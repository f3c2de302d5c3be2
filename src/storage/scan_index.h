// Full-table-scan access path: what a DBMS without a spatial index does for
// a dNN selection (sequential filter). Baseline for Figure 12 and the
// correctness oracle for the k-d tree.
//
// Execution is block-at-a-time: the row-major feature array is streamed in
// kScanBlockRows-row blocks through the branch-free Lp filter and the
// selected lanes are handed to the caller's BlockKernel. A partition is a
// contiguous row range of the same scan.

#ifndef QREG_STORAGE_SCAN_INDEX_H_
#define QREG_STORAGE_SCAN_INDEX_H_

#include "storage/spatial_index.h"

namespace qreg {
namespace storage {

/// \brief Sequential-scan selection over a Table.
class ScanIndex : public SpatialIndex {
 public:
  /// The table must outlive the index.
  explicit ScanIndex(const Table& table) : table_(table) {}

  /// Equal-size contiguous row ranges. The last absorbs the remainder and
  /// is open-ended: it also covers rows appended after the plan was made.
  std::vector<ScanPartition> MakePartitions(size_t target) const override;

  void BlockVisitPartition(const ScanPartition& part, const double* center,
                           double radius, const LpNorm& norm,
                           BlockKernel* kernel,
                           SelectionStats* stats) const override;

  bool CoversTable() const override { return true; }

  std::string name() const override { return "scan"; }

 private:
  const Table& table_;
};

}  // namespace storage
}  // namespace qreg

#endif  // QREG_STORAGE_SCAN_INDEX_H_
