#include "storage/kdtree.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace qreg {
namespace storage {

KdTree::KdTree(const Table& table, int leaf_size)
    : table_(table), leaf_size_(std::max(1, leaf_size)) {
  const int64_t n = table_.num_rows();
  ids_.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids_[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  if (n > 0) {
    nodes_.reserve(static_cast<size_t>(2 * n / leaf_size_ + 2));
    root_ = Build(0, static_cast<int32_t>(n));
    // Leaf-blocked re-layout: copy rows into permuted contiguous storage so
    // every subtree's [begin, end) range is one row-major span.
    const size_t d = table_.dimension();
    xs_perm_.resize(static_cast<size_t>(n) * d);
    us_perm_.resize(static_cast<size_t>(n));
    row_ids_.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const int32_t id = ids_[static_cast<size_t>(i)];
      const double* src = table_.x(id);
      std::copy(src, src + d, &xs_perm_[static_cast<size_t>(i) * d]);
      us_perm_[static_cast<size_t>(i)] = table_.u(id);
      row_ids_[static_cast<size_t>(i)] = id;
    }
    // The build permutation is fully captured by row_ids_ now; release the
    // int32 scratch instead of carrying n dead entries for the tree's life.
    std::vector<int32_t>().swap(ids_);
  }
}

void KdTree::ComputeBox(Node* node) const {
  const size_t d = table_.dimension();
  node->box_lo.assign(d, 0.0);
  node->box_hi.assign(d, 0.0);
  const double* first = table_.x(ids_[static_cast<size_t>(node->begin)]);
  for (size_t j = 0; j < d; ++j) {
    node->box_lo[j] = first[j];
    node->box_hi[j] = first[j];
  }
  for (int32_t i = node->begin + 1; i < node->end; ++i) {
    const double* row = table_.x(ids_[static_cast<size_t>(i)]);
    for (size_t j = 0; j < d; ++j) {
      if (row[j] < node->box_lo[j]) node->box_lo[j] = row[j];
      if (row[j] > node->box_hi[j]) node->box_hi[j] = row[j];
    }
  }
}

int32_t KdTree::Build(int32_t begin, int32_t end) {
  const int32_t node_idx = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  {
    Node& node = nodes_.back();
    node.begin = begin;
    node.end = end;
  }
  // ComputeBox reads through ids_; safe to call with the node in place.
  ComputeBox(&nodes_[static_cast<size_t>(node_idx)]);

  if (end - begin <= leaf_size_) return node_idx;

  // Split on the widest box dimension at the median.
  const Node& node = nodes_[static_cast<size_t>(node_idx)];
  const size_t d = table_.dimension();
  size_t split_dim = 0;
  double widest = -1.0;
  for (size_t j = 0; j < d; ++j) {
    const double w = node.box_hi[j] - node.box_lo[j];
    if (w > widest) {
      widest = w;
      split_dim = j;
    }
  }
  if (widest <= 0.0) return node_idx;  // All points identical: stay a leaf.

  const int32_t mid = begin + (end - begin) / 2;
  std::nth_element(ids_.begin() + begin, ids_.begin() + mid, ids_.begin() + end,
                   [this, split_dim](int32_t a, int32_t b) {
                     return table_.x(a)[split_dim] < table_.x(b)[split_dim];
                   });

  const int32_t left = Build(begin, mid);
  const int32_t right = Build(mid, end);
  nodes_[static_cast<size_t>(node_idx)].left = left;
  nodes_[static_cast<size_t>(node_idx)].right = right;
  return node_idx;
}

void KdTree::BlockVisitNode(int32_t node_idx, const double* center,
                            double radius, const LpNorm& norm,
                            const BlockFilter& filter, BlockKernel* kernel,
                            int64_t* examined, int64_t* matched) const {
  const Node& node = nodes_[static_cast<size_t>(node_idx)];
  const size_t d = table_.dimension();
  if (norm.MinDistanceToBox(center, node.box_lo.data(), node.box_hi.data(), d) >
      radius) {
    return;  // Ball cannot intersect this subtree.
  }
  if (node.left < 0) {  // Leaf: stream its contiguous span block-at-a-time.
    double scratch[kScanBlockRows];
    int32_t sel[kScanBlockRows];
    for (int32_t b = node.begin; b < node.end; b += kScanBlockRows) {
      const int32_t rows = std::min<int32_t>(kScanBlockRows, node.end - b);
      const double* xs = PermRow(b);
      const int32_t count =
          filter.Run(xs, rows, d, center, radius, sel, scratch);
      *examined += rows;
      *matched += count;
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
  BlockVisitNode(node.left, center, radius, norm, filter, kernel, examined,
                 matched);
  BlockVisitNode(node.right, center, radius, norm, filter, kernel, examined,
                 matched);
}

void KdTree::BlockVisit(const double* center, double radius, const LpNorm& norm,
                        BlockKernel* kernel, SelectionStats* stats) const {
  if (root_ < 0) return;
  const BlockFilter filter = SelectBlockFilter(norm, table_.dimension());
  int64_t examined = 0;
  int64_t matched = 0;
  BlockVisitNode(root_, center, radius, norm, filter, kernel, &examined,
                 &matched);
  if (stats != nullptr) {
    stats->tuples_examined += examined;
    stats->tuples_matched += matched;
  }
}

void KdTree::BlockVisitPartition(const ScanPartition& part, const double* center,
                                 double radius, const LpNorm& norm,
                                 BlockKernel* kernel,
                                 SelectionStats* stats) const {
  if (part.node < 0 || part.node >= static_cast<int32_t>(nodes_.size())) return;
  const BlockFilter filter = SelectBlockFilter(norm, table_.dimension());
  int64_t examined = 0;
  int64_t matched = 0;
  BlockVisitNode(part.node, center, radius, norm, filter, kernel, &examined,
                 &matched);
  if (stats != nullptr) {
    stats->tuples_examined += examined;
    stats->tuples_matched += matched;
  }
}

std::vector<ScanPartition> KdTree::MakePartitions(size_t target) const {
  std::vector<ScanPartition> plan;
  if (root_ < 0) return plan;

  // Grow a frontier of subtree roots: always split the widest (most rows)
  // splittable node next, so partition sizes stay balanced.
  auto rows_of = [this](int32_t idx) {
    const Node& n = nodes_[static_cast<size_t>(idx)];
    return n.end - n.begin;
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
    p.end = n.end;
    p.node = idx;
    plan.push_back(p);
  }
  return plan;
}

std::vector<Neighbor> KdTree::NearestNeighbors(const double* center, int k,
                                               const LpNorm& norm) const {
  std::vector<Neighbor> result;
  if (root_ < 0 || k <= 0) return result;

  // Max-heap of the best k found so far.
  auto cmp = [](const Neighbor& a, const Neighbor& b) { return a.distance < b.distance; };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(cmp)> heap(cmp);
  const size_t d = table_.dimension();

  // Depth-first with box pruning against the current kth distance.
  std::vector<int32_t> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    const int32_t node_idx = stack.back();
    stack.pop_back();
    const Node& node = nodes_[static_cast<size_t>(node_idx)];
    const double bound =
        (heap.size() == static_cast<size_t>(k)) ? heap.top().distance
                                                : LpNorm::kInf;
    if (norm.MinDistanceToBox(center, node.box_lo.data(), node.box_hi.data(), d) >
        bound) {
      continue;
    }
    if (node.left < 0) {
      // Leaf: permuted storage keeps the candidate rows contiguous.
      for (int32_t i = node.begin; i < node.end; ++i) {
        const double dist = norm.Distance(PermRow(i), center, d);
        if (heap.size() < static_cast<size_t>(k)) {
          heap.push({dist, row_ids_[static_cast<size_t>(i)]});
        } else if (dist < heap.top().distance) {
          heap.pop();
          heap.push({dist, row_ids_[static_cast<size_t>(i)]});
        }
      }
      continue;
    }
    // Descend nearer child first so the bound shrinks early.
    const Node& ln = nodes_[static_cast<size_t>(node.left)];
    const Node& rn = nodes_[static_cast<size_t>(node.right)];
    const double dl = norm.MinDistanceToBox(center, ln.box_lo.data(), ln.box_hi.data(), d);
    const double dr = norm.MinDistanceToBox(center, rn.box_lo.data(), rn.box_hi.data(), d);
    if (dl <= dr) {
      stack.push_back(node.right);
      stack.push_back(node.left);
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }

  result.resize(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    result[i] = heap.top();
    heap.pop();
  }
  return result;
}

}  // namespace storage
}  // namespace qreg
