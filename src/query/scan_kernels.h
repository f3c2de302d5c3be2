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
// The Q1 kernel (Sum) needs only count and Σu. Its state is a
// storage::SubtreeSummary, the one the index keeps per k-d tree node, so it
// takes a subtree the index found wholly inside the ball from that node's
// summary in O(1). Gram and CollectIds need the rows themselves and decline
// the offer; the index then streams them the subtree's rows.
//
// The Q1 Σu is Kahan-compensated (storage::KahanSum); the Gram moments are
// plain sums. Compensation is an accuracy measure, not the determinism
// mechanism: bit-for-bit reproducibility across thread counts comes from
// the fixed partition plan and the fixed plan-order merge (each
// partition's kernel sees exactly the same rows in the same order
// regardless of which worker runs it). Compensation keeps those
// per-partition partials accurate enough that plan-shape changes stay
// within ~1 ulp of each other. Merges are plain adds, so merging one
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

/// \brief Q1 transition state: a thin kernel over one
/// storage::SubtreeSummary (count, compensated Σu), the same state the
/// k-d tree keeps per node.
class SumBlockKernel : public storage::BlockKernel {
 public:
  void OnBlock(const storage::BlockSpan& span) override {
    for (int32_t k = 0; k < span.count; ++k) state_.Add(span.UAt(k));
  }

  bool OnSubtree(const storage::SubtreeSummary& summary) override {
    state_.AddSubtree(summary);
    return true;
  }

  void Merge(const SumBlockKernel& part) { state_.Merge(part.state_); }

  double sum() const { return state_.sum_u.value(); }
  int64_t count() const { return state_.count; }

 private:
  storage::SubtreeSummary state_;
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
