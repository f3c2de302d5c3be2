// In-memory table of (x, u) pairs: the dataset relation B that the exact
// query engine (the "DBMS" of the paper's Figure 2) scans or indexes.
//
// Features are stored row-major and contiguous so radius scans stream
// sequentially; the output attribute u is a separate column.

#ifndef QREG_STORAGE_TABLE_H_
#define QREG_STORAGE_TABLE_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace qreg {
namespace storage {

/// \brief Append-only in-memory relation of d input features and one output.
class Table {
 public:
  /// Creates an empty table of dimension d.
  explicit Table(size_t d) : d_(d) {}

  size_t dimension() const { return d_; }
  int64_t num_rows() const { return static_cast<int64_t>(us_.size()); }

  void Reserve(int64_t rows) {
    xs_.reserve(static_cast<size_t>(rows) * d_);
    us_.reserve(static_cast<size_t>(rows));
  }

  /// Appends one row; x.size() must equal dimension() and every value must
  /// be finite (InvalidArgument otherwise).
  util::Status Append(const std::vector<double>& x, double u);

  /// Appends from a raw pointer (d doubles), no validation: non-finite
  /// values can get in this way, so access paths must not assume finite
  /// data.
  void AppendUnchecked(const double* x, double u) {
    xs_.insert(xs_.end(), x, x + d_);
    us_.push_back(u);
  }

  /// Pointer to the d features of row id.
  const double* x(int64_t id) const { return &xs_[static_cast<size_t>(id) * d_]; }

  /// Copy of the feature vector of row id.
  std::vector<double> XRow(int64_t id) const {
    const double* p = x(id);
    return std::vector<double>(p, p + d_);
  }

  double u(int64_t id) const { return us_[static_cast<size_t>(id)]; }

  const std::vector<double>& u_column() const { return us_; }

  /// Per-dimension [min,max] over all rows; empty vectors for empty table.
  void FeatureRanges(std::vector<double>* mins, std::vector<double>* maxs) const;

  /// Resident bytes of the row-major feature store xs_ (capacity, not size:
  /// what the allocator actually holds).
  int64_t FeatureBytes() const {
    return static_cast<int64_t>(xs_.capacity() * sizeof(double));
  }

  /// Resident bytes of the output column us_.
  int64_t OutputBytes() const {
    return static_cast<int64_t>(us_.capacity() * sizeof(double));
  }

  /// Resident bytes of both columns, reported separately above so benches
  /// can track bytes/row per column.
  int64_t MemoryBytes() const { return FeatureBytes() + OutputBytes(); }

 private:
  size_t d_;
  std::vector<double> xs_;  // row-major, n * d
  std::vector<double> us_;  // n
};

}  // namespace storage
}  // namespace qreg

#endif  // QREG_STORAGE_TABLE_H_
