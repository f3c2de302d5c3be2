// Selection-operator interface: visit every row of a Table whose feature
// vector lies within an Lp ball (Definition 3's data subspace D(x, θ)).
//
// One visit, block-at-a-time: BlockVisitPartition streams the contiguous
// candidate blocks of one partition of a MakePartitions plan through a
// branch-free Lp filter (storage/block_filter.h) and hands each block's
// selected lanes to a BlockKernel — one virtual call per ~256 rows. Any
// plan, visited in plan order, selects the same rows in the same order with
// the same SelectionStats; BlockVisit is the one-partition plan.
//
// A tree path may also find a whole subtree inside the ball. It then offers
// the kernel that subtree's precomputed SubtreeSummary — the Q1 transition
// state (count, compensated Σu) that the Q1 kernel itself accumulates —
// through OnSubtree; a kernel that only needs those takes the subtree in
// O(1), and any other kernel gets the subtree's rows as OnBlock spans with
// every lane selected, in the same order a filtered visit would give.

#ifndef QREG_STORAGE_SPATIAL_INDEX_H_
#define QREG_STORAGE_SPATIAL_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/lp_norm.h"
#include "storage/table.h"

namespace qreg {
namespace storage {

/// \brief Statistics of one selection execution.
struct SelectionStats {
  /// Rows of visited leaves, distance-filtered or inside a contained
  /// subtree.
  int64_t tuples_examined = 0;
  int64_t tuples_matched = 0;  ///< Rows inside the ball.
};

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

/// \brief Q1 transition state (count, compensated Σu) over a set of rows:
/// a k-d tree node's summary and the Q1 kernel's running state. Add takes
/// one row; AddSubtree a subtree inside the ball, its Σu as one compensated
/// add; Merge a disjoint partial (a scan partition, a right child), plainly.
struct SubtreeSummary {
  int64_t count = 0;
  KahanSum sum_u;  ///< Σu over the rows.

  void Add(double u) {
    sum_u.Add(u);
    ++count;
  }
  void AddSubtree(const SubtreeSummary& s) {
    sum_u.Add(s.sum_u.value());
    count += s.count;
  }
  void Merge(const SubtreeSummary& part) {
    sum_u.Merge(part.sum_u);
    count += part.count;
  }
};

/// \brief One filtered candidate block: `rows` contiguous row-major feature
/// rows with `count` selected (in-ball) lanes. Lane k of the selection has
/// features at xs + sel[k]*d, output us[sel[k]], and row id
/// ids[sel[k]] (or id_base + sel[k] when ids is null — scan paths, whose
/// ids are consecutive). sel is ascending, so iterating the selection
/// preserves the index's row visit order.
struct BlockSpan {
  const double* xs = nullptr;    ///< Candidate rows, row-major, stride d.
  const double* us = nullptr;    ///< Candidate outputs, one per row.
  const int64_t* ids = nullptr;  ///< Per-row ids; null => id_base + lane.
  int64_t id_base = 0;
  const int32_t* sel = nullptr;  ///< Ascending selected lane offsets.
  int32_t count = 0;             ///< Selected lanes.
  int32_t rows = 0;              ///< Candidate rows in this block.
  size_t d = 0;

  int64_t IdAt(int32_t k) const {
    const int32_t lane = sel[k];
    return ids != nullptr ? ids[lane] : id_base + lane;
  }
  const double* XAt(int32_t k) const {
    return xs + static_cast<size_t>(sel[k]) * d;
  }
  double UAt(int32_t k) const { return us[sel[k]]; }
};

/// \brief Fused filter+accumulate consumer of a block scan. One OnBlock call
/// per candidate block that has at least one selected lane, and one
/// OnSubtree offer per subtree found wholly inside the ball. Copyable, so a
/// zeroed kernel can seed one copy per scan partition.
class BlockKernel {
 public:
  BlockKernel() = default;
  BlockKernel(const BlockKernel&) = default;
  BlockKernel& operator=(const BlockKernel&) = default;
  BlockKernel(BlockKernel&&) = default;
  BlockKernel& operator=(BlockKernel&&) = default;
  virtual ~BlockKernel() = default;
  virtual void OnBlock(const BlockSpan& span) = 0;

  /// Offered instead of the rows of a subtree that lies wholly inside the
  /// ball. Return true to consume the subtree from its summary; the default
  /// declines, and the index then streams the subtree's rows to OnBlock as
  /// spans with every lane selected.
  virtual bool OnSubtree(const SubtreeSummary& summary) {
    (void)summary;
    return false;
  }
};

/// \brief One disjoint unit of parallel selection work, produced by
/// MakePartitions and only meaningful to the index that produced it.
///
/// Scan-style access paths use [begin, end) row ranges; tree-style paths
/// use a subtree root. Visiting every partition of a plan is equivalent to
/// one BlockVisit: partitions are disjoint and jointly exhaustive, and the
/// partition plan depends only on the indexed data — never on thread
/// counts — so a partitioned reduction is deterministic across pool sizes.
struct ScanPartition {
  int64_t begin = 0;  ///< First row of a range partition (scan paths).
  int64_t end = 0;    ///< One past the last row (clamped to the table).
  int32_t node = -1;  ///< Subtree root of a tree partition (tree paths).
};

/// \brief Abstract radius-selection access path over a Table.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Streams every row within `radius` of `center` under `norm` to `kernel`,
  /// block-at-a-time in the index's row visit order: the partitions of
  /// MakePartitions(1), each through BlockVisitPartition. `stats` may be null.
  void BlockVisit(const double* center, double radius, const LpNorm& norm,
                  BlockKernel* kernel, SelectionStats* stats) const;

  /// Splits the indexed data into roughly `target` disjoint partitions whose
  /// union is the whole table. Implementations may return fewer (never more
  /// than max(1, rows)) — notably a single partition when the data is too
  /// small to be worth splitting. The plan is a pure function of the indexed
  /// data, so repeated calls with the same `target` return the same plan.
  virtual std::vector<ScanPartition> MakePartitions(size_t target) const = 0;

  /// BlockVisit restricted to one partition of a plan produced by *this*
  /// index's MakePartitions. Visiting all partitions of a plan in plan order
  /// hands `kernel` exactly the rows one BlockVisit would, in the same
  /// order, with identical aggregate SelectionStats.
  virtual void BlockVisitPartition(const ScanPartition& part, const double* center,
                                   double radius, const LpNorm& norm,
                                   BlockKernel* kernel,
                                   SelectionStats* stats) const = 0;

  /// True while a visit still reaches every row of the indexed table. An
  /// index that copied the rows at build time stops covering the table once
  /// rows are appended; a scan reads the table itself and always covers it.
  virtual bool CoversTable() const = 0;

  /// Access-path name for logs and bench tables ("kdtree", "scan").
  virtual std::string name() const = 0;
};

}  // namespace storage
}  // namespace qreg

#endif  // QREG_STORAGE_SPATIAL_INDEX_H_
