#include "storage/kdtree.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <queue>
#include <thread>
#include <utility>

#include "util/run_chunks.h"
#include "util/thread_pool.h"

namespace qreg {
namespace storage {

namespace {

// Lane offsets 0..kScanBlockRows-1: the selection of a block whose every
// row is inside the ball.
const std::array<int32_t, kScanBlockRows> kAllLanes = [] {
  std::array<int32_t, kScanBlockRows> lanes{};
  std::iota(lanes.begin(), lanes.end(), 0);
  return lanes;
}();

// Widest table whose containment-test corner fits in a stack buffer.
constexpr size_t kStackCornerDims = 16;

// Levels whose two children are built as pool chunks: 2^3 = 8 subtrees
// below them, enough to keep a few cores busy while the upper levels'
// serial selections stay a small share of the work.
constexpr int kParallelLevels = 3;

// Bounding box of rows ids[0, rows) into lo/hi. KD > 0 fixes the dimension
// at compile time, which keeps the running bounds in registers (the output
// pointers could otherwise alias the table's rows); KD == 0 reads d.
template <size_t KD>
void RowBounds(const Table& table, const int32_t* ids, int32_t rows, size_t d,
               double* lo, double* hi) {
  const size_t dim = KD > 0 ? KD : d;
  double local_lo[KD > 0 ? KD : 1];
  double local_hi[KD > 0 ? KD : 1];
  double* l = KD > 0 ? local_lo : lo;
  double* h = KD > 0 ? local_hi : hi;
  const double* first = table.x(ids[0]);
  std::copy(first, first + dim, l);
  std::copy(first, first + dim, h);
  for (int32_t i = 1; i < rows; ++i) {
    const double* row = table.x(ids[i]);
    for (size_t j = 0; j < dim; ++j) {
      l[j] = row[j] < l[j] ? row[j] : l[j];
      h[j] = row[j] > h[j] ? row[j] : h[j];
    }
  }
  if (KD > 0) {
    std::copy(l, l + dim, lo);
    std::copy(h, h + dim, hi);
  }
}

// One (split key, row id) pair of a node's median selection.
struct KeyedId {
  double key;
  int32_t id;
};

// Nodes of a subtree over m and over m + 1 rows when every node over
// leaf_size rows splits at its median. The halves of m and of m + 1 are
// both k = m / 2 or k + 1, so one recursion on k serves the pair: O(log m).
std::pair<int64_t, int64_t> NodesForPair(int64_t m, int64_t leaf_size) {
  if (m < leaf_size) return {1, 1};
  if (m == leaf_size) return {1, 3};  // m + 1 splits into two leaves.
  const std::pair<int64_t, int64_t> half = NodesForPair(m / 2, leaf_size);
  if (m % 2 == 0) return {1 + 2 * half.first, 1 + half.first + half.second};
  return {1 + half.first + half.second, 1 + 2 * half.second};
}

int64_t NodesFor(int64_t m, int leaf_size) {
  return NodesForPair(m, leaf_size).first;
}

}  // namespace

struct KdTree::BuildContext {
  util::ThreadPool* pool = nullptr;
  std::unique_ptr<KeyedId[]> keys;  // n entries; a node uses [begin, end).
  // Set when a node over leaf_size_ rows stayed a leaf (all rows identical).
  std::atomic<bool> has_holes{false};
};

KdTree::KdTree(const Table& table, int leaf_size)
    : table_(table), leaf_size_(std::max(1, leaf_size)) {
  const int64_t n = table_.num_rows();
  if (n == 0) return;
  const size_t d = table_.dimension();
  const unsigned cores = std::thread::hardware_concurrency();
  util::ThreadPool pool(n >= kParallelBuildRows && cores > 1 ? cores - 1 : 0);
  ids_.resize(static_cast<size_t>(n));
  std::iota(ids_.begin(), ids_.end(), 0);
  const size_t slots = static_cast<size_t>(NodesFor(n, leaf_size_));
  nodes_.resize(slots);
  boxes_.resize(slots * 2 * d);
  {
    BuildContext ctx;
    ctx.pool = &pool;
    // Default-initialised: every entry is written before it is read.
    ctx.keys.reset(new KeyedId[static_cast<size_t>(n)]);
    root_ = 0;
    Build(root_, 0, static_cast<int32_t>(n), 0, &ctx);
    if (ctx.has_holes.load()) CompactSlots();
  }  // The key scratch is released before the re-layout allocates.
  // Leaf-blocked re-layout: copy rows into permuted contiguous storage so
  // every subtree's [begin, end) range is one row-major span.
  xs_perm_.resize(static_cast<size_t>(n) * d);
  us_perm_.resize(static_cast<size_t>(n));
  row_ids_.resize(static_cast<size_t>(n));
  const int64_t chunks = static_cast<int64_t>(pool.num_threads()) + 1;
  util::RunChunks(&pool, static_cast<size_t>(chunks), [this, n, d, chunks](size_t c) {
    const int64_t begin = n * static_cast<int64_t>(c) / chunks;
    const int64_t end = n * static_cast<int64_t>(c + 1) / chunks;
    for (int64_t i = begin; i < end; ++i) {
      const int32_t id = ids_[static_cast<size_t>(i)];
      const double* src = table_.x(id);
      std::copy(src, src + d, &xs_perm_[static_cast<size_t>(i) * d]);
      us_perm_[static_cast<size_t>(i)] = table_.u(id);
      row_ids_[static_cast<size_t>(i)] = id;
    }
  }, nullptr);
  // The build permutation is fully captured by row_ids_ now; release the
  // int32 scratch instead of carrying n dead entries for the tree's life.
  std::vector<int32_t>().swap(ids_);
  ComputeSummaries(&pool);
}

void KdTree::ComputeBox(int32_t node_idx) {
  const Node& node = nodes_[static_cast<size_t>(node_idx)];
  const size_t d = table_.dimension();
  double* lo = &boxes_[static_cast<size_t>(node_idx) * 2 * d];
  double* hi = lo + d;
  const int32_t* ids = ids_.data() + node.begin;
  const auto rows = static_cast<int32_t>(node.summary.count);
  switch (d) {
    case 1: return RowBounds<1>(table_, ids, rows, d, lo, hi);
    case 2: return RowBounds<2>(table_, ids, rows, d, lo, hi);
    case 3: return RowBounds<3>(table_, ids, rows, d, lo, hi);
    case 4: return RowBounds<4>(table_, ids, rows, d, lo, hi);
    default: return RowBounds<0>(table_, ids, rows, d, lo, hi);
  }
}

void KdTree::Build(int32_t node_idx, int32_t begin, int32_t end, int depth,
                   BuildContext* ctx) {
  Node& node = nodes_[static_cast<size_t>(node_idx)];
  node.begin = begin;
  node.summary.count = end - begin;
  ComputeBox(node_idx);

  if (end - begin <= leaf_size_) return;

  // Split on the widest box dimension at the median.
  const size_t d = table_.dimension();
  const double* lo = BoxLo(node_idx);
  const double* hi = BoxHi(node_idx);
  size_t split_dim = 0;
  double widest = -1.0;
  for (size_t j = 0; j < d; ++j) {
    const double w = hi[j] - lo[j];
    if (w > widest) {
      widest = w;
      split_dim = j;
    }
  }
  if (widest <= 0.0) {  // All points identical: stay a leaf.
    ctx->has_holes.store(true);
    return;
  }

  const int32_t mid = begin + (end - begin) / 2;
  KeyedId* keys = ctx->keys.get();
  for (int32_t i = begin; i < end; ++i) {
    const int32_t id = ids_[static_cast<size_t>(i)];
    keys[i] = {table_.x(id)[split_dim], id};
  }
  std::nth_element(keys + begin, keys + mid, keys + end,
                   [](const KeyedId& a, const KeyedId& b) { return a.key < b.key; });
  for (int32_t i = begin; i < end; ++i) ids_[static_cast<size_t>(i)] = keys[i].id;

  // Fixed pre-order slots: the left subtree fills the NodesFor(mid - begin)
  // slots after this node, and the right subtree starts past them.
  const int32_t left = node_idx + 1;
  const int32_t right = left + static_cast<int32_t>(NodesFor(mid - begin, leaf_size_));
  node.left = left;
  node.right = right;
  if (depth < kParallelLevels) {
    util::RunChunks(ctx->pool, 2, [&](size_t c) {
      if (c == 0) {
        Build(left, begin, mid, depth + 1, ctx);
      } else {
        Build(right, mid, end, depth + 1, ctx);
      }
    }, nullptr);
  } else {
    Build(left, begin, mid, depth + 1, ctx);
    Build(right, mid, end, depth + 1, ctx);
  }
}

void KdTree::CompactSlots() {
  // Slots are the full tree's pre-order, so the written ones in slot order
  // are the real tree's pre-order. An unwritten slot keeps its default
  // empty range; every real node holds at least one row.
  const size_t box_doubles = 2 * table_.dimension();
  std::vector<int32_t> moved_to(nodes_.size(), -1);
  size_t used = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].summary.count == 0) continue;
    moved_to[i] = static_cast<int32_t>(used);
    if (used != i) {
      nodes_[used] = nodes_[i];
      std::copy_n(&boxes_[i * box_doubles], box_doubles, &boxes_[used * box_doubles]);
    }
    ++used;
  }
  nodes_.resize(used);
  boxes_.resize(used * box_doubles);
  for (Node& node : nodes_) {
    if (node.left < 0) continue;
    node.left = moved_to[static_cast<size_t>(node.left)];
    node.right = moved_to[static_cast<size_t>(node.right)];
  }
}

void KdTree::ComputeSummaries(util::ThreadPool* pool) {
  const size_t d = table_.dimension();
  // Leaves first, in node chunks: one row at a time into a zeroed summary.
  const size_t count = nodes_.size();
  const size_t chunks = pool->num_threads() + 1;
  util::RunChunks(pool, chunks, [this, d, count, chunks](size_t c) {
    for (size_t idx = count * c / chunks; idx < count * (c + 1) / chunks; ++idx) {
      Node& node = nodes_[idx];
      if (node.left >= 0) continue;
      const int32_t end = node.end();
      SubtreeSummary leaf;
      for (int32_t i = node.begin; i < end; ++i) {
        leaf.Add(us_perm_[static_cast<size_t>(i)]);
      }
      node.summary = leaf;
      const double* xs = xs_perm_.data() + static_cast<size_t>(node.begin) * d;
      const double* xs_end = xs_perm_.data() + static_cast<size_t>(end) * d;
      node.finite =
          std::all_of(xs, xs_end, [](double v) { return std::isfinite(v); });
    }
  }, nullptr);
  // Nodes are numbered in pre-order, so every child has a larger index than
  // its parent: a reverse sweep sees both children before their parent.
  for (size_t idx = count; idx-- > 0;) {
    Node& node = nodes_[idx];
    if (node.left < 0) continue;
    const Node& l = nodes_[static_cast<size_t>(node.left)];
    const Node& r = nodes_[static_cast<size_t>(node.right)];
    node.summary = l.summary;
    node.summary.Merge(r.summary);
    node.finite = l.finite && r.finite;
  }
}

bool KdTree::InsideBall(int32_t node_idx, const Ball& ball) const {
  if (!nodes_[static_cast<size_t>(node_idx)].finite) return false;
  // The box's farthest corner from the center, as the filter computes
  // |x_j - c_j|. Rounded subtraction is monotone in x_j, so no row of the
  // box has a larger |x_j - c_j| in any coordinate, and the filter (monotone
  // in each) accepts every row of the box if it accepts this corner.
  const size_t d = table_.dimension();
  const double* lo = BoxLo(node_idx);
  const double* hi = BoxHi(node_idx);
  for (size_t j = 0; j < d; ++j) {
    const double to_lo = std::fabs(lo[j] - ball.center[j]);
    const double to_hi = std::fabs(hi[j] - ball.center[j]);
    ball.corner[j] = to_hi > to_lo ? hi[j] : lo[j];
  }
  int32_t sel;
  double scratch;
  return ball.filter.Run(ball.corner, 1, d, ball.center, ball.radius, &sel,
                         &scratch) == 1;
}

void KdTree::EmitRows(int32_t begin, int32_t end, BlockKernel* kernel) const {
  BlockSpan span;
  span.sel = kAllLanes.data();
  span.d = table_.dimension();
  for (int32_t b = begin; b < end; b += kScanBlockRows) {
    span.rows = std::min<int32_t>(kScanBlockRows, end - b);
    span.count = span.rows;
    span.xs = PermRow(b);
    span.us = &us_perm_[static_cast<size_t>(b)];
    span.ids = &row_ids_[static_cast<size_t>(b)];
    kernel->OnBlock(span);
  }
}

void KdTree::VisitNode(int32_t node_idx, const Ball& ball, BlockKernel* kernel,
                       SelectionStats* stats) const {
  const Node& node = nodes_[static_cast<size_t>(node_idx)];
  const size_t d = table_.dimension();
  // A box skips NaN coordinates, so a subtree holding a non-finite feature
  // is neither pruned nor summarized: the filter judges each of its rows.
  if (node.finite &&
      ball.norm->MinDistanceToBox(ball.center, BoxLo(node_idx),
                                  BoxHi(node_idx), d) > ball.radius) {
    return;  // Ball cannot intersect this subtree.
  }
  if (InsideBall(node_idx, ball)) {  // Every row selected, none filtered.
    stats->tuples_examined += node.summary.count;
    stats->tuples_matched += node.summary.count;
    if (!kernel->OnSubtree(node.summary)) {
      EmitRows(node.begin, node.end(), kernel);
    }
    return;
  }
  if (node.left < 0) {  // Boundary leaf: stream its span block-at-a-time.
    double scratch[kScanBlockRows];
    int32_t sel[kScanBlockRows];
    const int32_t end = node.end();
    for (int32_t b = node.begin; b < end; b += kScanBlockRows) {
      const int32_t rows = std::min<int32_t>(kScanBlockRows, end - b);
      const double* xs = PermRow(b);
      const int32_t count =
          ball.filter.Run(xs, rows, d, ball.center, ball.radius, sel, scratch);
      stats->tuples_examined += rows;
      stats->tuples_matched += count;
      if (count > 0) {
        BlockSpan span;
        span.xs = xs;
        span.us = &us_perm_[static_cast<size_t>(b)];
        span.ids = &row_ids_[static_cast<size_t>(b)];
        span.sel = sel;
        span.count = count;
        span.rows = rows;
        span.d = d;
        kernel->OnBlock(span);
      }
    }
    return;
  }
  VisitNode(node.left, ball, kernel, stats);
  VisitNode(node.right, ball, kernel, stats);
}

void KdTree::BlockVisitPartition(const ScanPartition& part, const double* center,
                                 double radius, const LpNorm& norm,
                                 BlockKernel* kernel,
                                 SelectionStats* stats) const {
  if (part.node < 0 || part.node >= static_cast<int32_t>(nodes_.size())) return;
  const size_t d = table_.dimension();
  // The containment test's corner lives on the stack: a query visits every
  // partition of its plan, so a heap buffer here would cost one allocation
  // per partition. Only tables wider than kStackCornerDims allocate.
  double stack_corner[kStackCornerDims];
  std::vector<double> heap_corner(d > kStackCornerDims ? d : 0);
  const Ball ball{center, radius, &norm, SelectBlockFilter(norm, d),
                  d > kStackCornerDims ? heap_corner.data() : stack_corner};
  SelectionStats local;
  VisitNode(part.node, ball, kernel, &local);
  if (stats != nullptr) {
    stats->tuples_examined += local.tuples_examined;
    stats->tuples_matched += local.tuples_matched;
  }
}

std::vector<ScanPartition> KdTree::MakePartitions(size_t target) const {
  std::vector<ScanPartition> plan;
  if (root_ < 0) return plan;

  // Grow a frontier of subtree roots: always split the widest (most rows)
  // splittable node next, so partition sizes stay balanced.
  auto rows_of = [this](int32_t idx) {
    return nodes_[static_cast<size_t>(idx)].summary.count;
  };
  auto cmp = [&rows_of](int32_t a, int32_t b) { return rows_of(a) < rows_of(b); };
  std::priority_queue<int32_t, std::vector<int32_t>, decltype(cmp)> frontier(cmp);
  frontier.push(root_);
  std::vector<int32_t> done;  // Leaves reached before `target` subtrees exist.
  while (frontier.size() + done.size() < std::max<size_t>(target, 1) &&
         !frontier.empty()) {
    const int32_t idx = frontier.top();
    frontier.pop();
    const Node& n = nodes_[static_cast<size_t>(idx)];
    if (n.left < 0) {
      done.push_back(idx);
      continue;
    }
    frontier.push(n.left);
    frontier.push(n.right);
  }
  while (!frontier.empty()) {
    done.push_back(frontier.top());
    frontier.pop();
  }
  // Left-to-right (permuted ranges are disjoint and ordered by construction).
  std::sort(done.begin(), done.end(), [this](int32_t a, int32_t b) {
    return nodes_[static_cast<size_t>(a)].begin < nodes_[static_cast<size_t>(b)].begin;
  });
  plan.reserve(done.size());
  for (int32_t idx : done) {
    ScanPartition p;
    const Node& n = nodes_[static_cast<size_t>(idx)];
    p.begin = n.begin;
    p.end = n.end();
    p.node = idx;
    plan.push_back(p);
  }
  return plan;
}

}  // namespace storage
}  // namespace qreg
