// Bulk-loaded k-d tree over a Table's feature vectors.
//
// Supports radius (dNN) selection under any Lp norm — the paper's selection
// operator. Nodes own contiguous index ranges; leaves hold up to
// `leaf_size` rows and every node keeps its bounding box for Lp pruning,
// stored flat (2·d doubles per node: lo then hi) in one array.
//
// Storage is leaf-blocked: after the build permutes the row order, the
// feature rows and outputs are re-laid out into contiguous permuted arrays,
// so every leaf (and every subtree-frontier partition) owns a contiguous
// span of row-major storage. Radius selection streams those spans through
// the branch-free block filter instead of pointer-chasing per-row ids.
//
// Aggregate tree: each node also stores the Q1 transition state of its
// rows, a SubtreeSummary (count and Σu: Add per row in a leaf, the left
// child's plus Merge(right) above it), built once from the data. A radius
// visit tests each unpruned node for containment by running the scan's own
// block filter on the box's farthest corner; every filter is monotone in
// each |x_j − c_j|, so an accepted corner means every row of the box is
// accepted. A contained subtree's summary is offered to the kernel's
// OnSubtree (O(1) for the Q1 kernel) and otherwise its rows are streamed
// to OnBlock unfiltered, so the scan's filter cost grows with the ball's
// boundary rather than its volume. A subtree holding a non-finite feature
// is never pruned or treated as contained, so the filter alone decides its
// rows (a box's min/max skip NaN coordinates).
//
// Parallel bulk load, same tree as a serial build. If every node over more
// than leaf_size rows splits at its median, a subtree over m rows has
// NodesFor(m) nodes, a function of m alone. So nodes_ and boxes_ are sized
// once, node i's left child sits at i + 1 and its right child at
// i + 1 + NodesFor(left rows): fixed pre-order slots, where each subtree
// writes only its own slice and no task allocates. The top three levels
// build their two children through util::RunChunks on a pool of
// hardware_concurrency() - 1 workers (0 workers, inline, below a row
// cutoff). A median is chosen by copying the node's (split key, row id)
// pairs into one n-entry scratch array and running nth_element on the key:
// introselect's moves depend only on comparison outcomes, so the
// permutation is the one an indirect comparator over the same keys gives.
// A node whose rows are all identical stays a leaf and leaves its would-be
// subtree's slots empty; one serial pass then compacts the slots in
// pre-order, so node numbering is the serial recursion's too. The
// re-layout and the leaf summaries run in chunks on the same pool.

#ifndef QREG_STORAGE_KDTREE_H_
#define QREG_STORAGE_KDTREE_H_

#include <cstdint>
#include <vector>

#include "storage/block_filter.h"
#include "storage/spatial_index.h"
#include "util/status.h"

namespace qreg {
namespace util {
class ThreadPool;
}  // namespace util

namespace storage {

/// \brief k-d tree access path (median splits on the widest dimension).
class KdTree : public SpatialIndex {
 public:
  /// Tables with at least this many rows build on a pool of
  /// hardware_concurrency() - 1 workers; smaller ones build inline, where
  /// starting workers would cost more than they save.
  static constexpr int64_t kParallelBuildRows = 32768;

  /// Builds over all current rows of `table` (which must outlive the tree).
  /// leaf_size trades pruning power for per-leaf scan cost; 32 is a good
  /// default for d <= 8.
  explicit KdTree(const Table& table, int leaf_size = 32);

  /// A frontier of disjoint subtree roots covering every row, built by
  /// repeatedly splitting the largest frontier node until `target` subtrees
  /// exist (or only leaves remain), then ordered left-to-right so that
  /// visiting partitions in plan order enumerates rows in the same order for
  /// every `target`. MakePartitions(1) is the root alone.
  std::vector<ScanPartition> MakePartitions(size_t target) const override;

  void BlockVisitPartition(const ScanPartition& part, const double* center,
                           double radius, const LpNorm& norm,
                           BlockKernel* kernel,
                           SelectionStats* stats) const override;

  /// False once rows were appended to the table after the build: the tree
  /// holds a copy of the rows it was built over and never sees later ones.
  bool CoversTable() const override { return num_rows() == table_.num_rows(); }

  std::string name() const override { return "kdtree"; }

  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }
  int64_t num_rows() const { return static_cast<int64_t>(row_ids_.size()); }

 private:
  struct Node {
    int32_t left = -1;    // child node index, -1 for leaf
    int32_t right = -1;
    int32_t begin = 0;    // first row in the permuted row storage
    bool finite = true;   // every feature of every row is finite
    // The node's rows [begin, end()) and their Q1 state: Build sets the
    // count, ComputeSummaries the Σu.
    SubtreeSummary summary;

    int32_t end() const { return begin + static_cast<int32_t>(summary.count); }
  };

  // One radius selection's resolved arguments.
  struct Ball {
    const double* center;
    double radius;
    const LpNorm* norm;
    BlockFilter filter;
    double* corner;  // d doubles of scratch for the containment test
  };

  // Pool, key scratch and hole flag shared by one constructor's build tasks.
  struct BuildContext;

  /// Builds the subtree over ids_[begin, end) into the pre-order slots that
  /// start at node_idx; the top kParallelLevels levels split on the pool.
  void Build(int32_t node_idx, int32_t begin, int32_t end, int depth,
             BuildContext* ctx);
  /// Drops the empty slots that unsplittable (all-identical) nodes left.
  void CompactSlots();
  void ComputeBox(int32_t node_idx);
  void ComputeSummaries(util::ThreadPool* pool);

  void VisitNode(int32_t node_idx, const Ball& ball, BlockKernel* kernel,
                 SelectionStats* stats) const;
  /// True when the ball's filter accepts every row of the node's box.
  bool InsideBall(int32_t node_idx, const Ball& ball) const;
  /// Streams rows [begin, end) to OnBlock with every lane selected.
  void EmitRows(int32_t begin, int32_t end, BlockKernel* kernel) const;

  const double* BoxLo(int32_t node_idx) const {
    return &boxes_[static_cast<size_t>(node_idx) * 2 * table_.dimension()];
  }
  const double* BoxHi(int32_t node_idx) const {
    return BoxLo(node_idx) + table_.dimension();
  }

  /// Features of permuted position i (valid after the build re-layout).
  const double* PermRow(int32_t i) const {
    return &xs_perm_[static_cast<size_t>(i) * table_.dimension()];
  }

  const Table& table_;
  int leaf_size_;
  std::vector<int32_t> ids_;      // permutation of row ids (build order)
  std::vector<Node> nodes_;
  std::vector<double> boxes_;     // 2·d per node: box lo, then box hi
  int32_t root_ = -1;
  // Leaf-blocked re-layout of the table in ids_ order: position i holds the
  // features/output/original id of row ids_[i], so node [begin, end) ranges
  // are contiguous row-major spans.
  std::vector<double> xs_perm_;   // n * d
  std::vector<double> us_perm_;   // n
  std::vector<int64_t> row_ids_;  // n
};

}  // namespace storage
}  // namespace qreg

#endif  // QREG_STORAGE_KDTREE_H_
