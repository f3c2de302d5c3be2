// Fused per-block accumulators for the exact operators: the BlockKernels
// the ExactEngine drives through SpatialIndex::BlockVisitPartition.
//
// Each kernel consumes a filtered BlockSpan's selected lanes in one tight
// loop — no per-row virtual or std::function dispatch — and *is* the
// MADlib-style transition state (sum / Gram matrix / id list):
// it owns its accumulator, copies cheaply while zeroed (one copy per
// partition), and Merge() folds a partition's partial into the total in
// plan order.
//
// The Q1 kernel (Sum) needs only count and Σu, so it takes a subtree the
// index found wholly inside the ball from its precomputed SubtreeSummary in
// O(1). Gram and CollectIds need the rows themselves and decline the offer;
// the index then streams them the subtree's rows.
//
// Scalar accumulators are Kahan-compensated. Compensation is an accuracy
// measure, not the determinism mechanism: bit-for-bit reproducibility
// across thread counts comes from the fixed partition plan and the fixed
// plan-order merge (each partition's kernel sees exactly the same rows in
// the same order regardless of which worker runs it). Compensation keeps
// those per-partition partials accurate enough that plan-shape changes
// stay within ~1 ulp of each other. Merges are plain adds, so merging one
// partial into a zeroed total reproduces the partial bit for bit
// (0.0 + x == x).

#ifndef QREG_QUERY_SCAN_KERNELS_H_
#define QREG_QUERY_SCAN_KERNELS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/ols.h"
#include "storage/spatial_index.h"

namespace qreg {
namespace query {

/// \brief Kahan-compensated running sum: adds carry the rounding residue of
/// the previous add, so a long stream loses O(1) ulps instead of O(n).
struct KahanSum {
  double sum = 0.0;
  double carry = 0.0;

  void Add(double v) {
    const double y = v - carry;
    const double t = sum + y;
    carry = (t - sum) - y;
    sum = t;
  }

  /// Folds in another stream's partial with one plain add.
  void Merge(const KahanSum& part) { sum += part.sum; }

  double value() const { return sum; }
};

/// \brief Q1 transition state: compensated Σu and the subspace cardinality.
class SumBlockKernel : public storage::BlockKernel {
 public:
  void OnBlock(const storage::BlockSpan& span) override {
    for (int32_t k = 0; k < span.count; ++k) sum_.Add(span.UAt(k));
    count_ += span.count;
  }

  bool OnSubtree(const storage::SubtreeSummary& summary) override {
    sum_.Add(summary.sum_u);
    count_ += summary.count;
    return true;
  }

  void Merge(const SumBlockKernel& part) {
    sum_.Merge(part.sum_);
    count_ += part.count_;
  }

  double sum() const { return sum_.value(); }
  int64_t count() const { return count_; }

 private:
  KahanSum sum_;
  int64_t count_ = 0;
};

/// \brief Q2 transition state: fused Gram-matrix/moment-vector update over
/// the selected lanes of each block (OlsAccumulator::AddBlock).
class GramBlockKernel : public storage::BlockKernel {
 public:
  explicit GramBlockKernel(size_t d) : acc_(d) {}

  void OnBlock(const storage::BlockSpan& span) override {
    acc_.AddBlock(span.xs, span.us, span.sel, span.count);
  }

  void Merge(const GramBlockKernel& part) { (void)acc_.Merge(part.acc_); }

  const linalg::OlsAccumulator& acc() const { return acc_; }

 private:
  linalg::OlsAccumulator acc_;
};

/// \brief Select transition state: the matched row ids in scan order.
class CollectIdsBlockKernel : public storage::BlockKernel {
 public:
  void OnBlock(const storage::BlockSpan& span) override {
    for (int32_t k = 0; k < span.count; ++k) ids_.push_back(span.IdAt(k));
  }

  void Merge(const CollectIdsBlockKernel& part) {
    ids_.insert(ids_.end(), part.ids_.begin(), part.ids_.end());
  }

  std::vector<int64_t> TakeIds() { return std::move(ids_); }

 private:
  std::vector<int64_t> ids_;
};

}  // namespace query
}  // namespace qreg

#endif  // QREG_QUERY_SCAN_KERNELS_H_
