#include "storage/table.h"

#include <cmath>

#include "util/string_util.h"

namespace qreg {
namespace storage {

util::Status Table::Append(const std::vector<double>& x, double u) {
  if (x.size() != d_) {
    return util::Status::InvalidArgument(
        util::Format("row has %zu features, table expects %zu", x.size(), d_));
  }
  for (size_t j = 0; j < d_; ++j) {
    if (!std::isfinite(x[j])) {
      return util::Status::InvalidArgument(
          util::Format("row feature %zu is not finite", j));
    }
  }
  if (!std::isfinite(u)) {
    return util::Status::InvalidArgument("row output is not finite");
  }
  AppendUnchecked(x.data(), u);
  return util::Status::OK();
}

void Table::FeatureRanges(std::vector<double>* mins, std::vector<double>* maxs) const {
  mins->clear();
  maxs->clear();
  if (num_rows() == 0) return;
  mins->assign(d_, 0.0);
  maxs->assign(d_, 0.0);
  for (size_t j = 0; j < d_; ++j) {
    (*mins)[j] = xs_[j];
    (*maxs)[j] = xs_[j];
  }
  const int64_t n = num_rows();
  for (int64_t i = 1; i < n; ++i) {
    const double* row = x(i);
    for (size_t j = 0; j < d_; ++j) {
      if (row[j] < (*mins)[j]) (*mins)[j] = row[j];
      if (row[j] > (*maxs)[j]) (*maxs)[j] = row[j];
    }
  }
}

}  // namespace storage
}  // namespace qreg
