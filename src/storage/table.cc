#include "storage/table.h"

#include <cmath>

#include "util/string_util.h"

namespace qreg {
namespace storage {

Schema Schema::Default(size_t d) {
  Schema s;
  s.feature_names.reserve(d);
  for (size_t i = 0; i < d; ++i) {
    s.feature_names.push_back(util::Format("x%zu", i + 1));
  }
  s.output_name = "u";
  return s;
}

int64_t Table::SchemaBytes() const {
  // Vector-of-string backbone plus each name's heap allocation. Names at or
  // under the implementation's SSO capacity live inline in the string
  // object; anything longer allocates capacity() + 1 bytes out of line.
  static const size_t kSsoCapacity = std::string().capacity();
  auto string_bytes = [](const std::string& s) {
    int64_t bytes = static_cast<int64_t>(sizeof(std::string));
    if (s.capacity() > kSsoCapacity) {
      bytes += static_cast<int64_t>(s.capacity()) + 1;
    }
    return bytes;
  };
  int64_t total = static_cast<int64_t>(schema_.feature_names.capacity() *
                                       sizeof(std::string));
  for (const std::string& name : schema_.feature_names) {
    total += string_bytes(name) - static_cast<int64_t>(sizeof(std::string));
  }
  total += string_bytes(schema_.output_name);
  return total;
}

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
