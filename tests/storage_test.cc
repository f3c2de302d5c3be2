// Unit + property tests for src/storage: Table, LpNorm, ScanIndex, KdTree.
// The key property: the k-d tree returns exactly the same row sets as the
// brute-force scan for random workloads across dimensions and norms.
// KdTreeBuildTest checks that the pooled bulk load builds the very tree of
// a serial recursion (a test-local reference), through public API only.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <queue>

#include "data/generator.h"
#include "query/scan_kernels.h"
#include "storage/block_filter.h"
#include "storage/kdtree.h"
#include "storage/lp_norm.h"
#include "storage/scan_index.h"
#include "storage/table.h"
#include "util/rng.h"

namespace qreg {
namespace storage {
namespace {

Table MakeRandomTable(size_t d, int64_t n, uint64_t seed, double lo = 0.0,
                      double hi = 1.0) {
  util::Rng rng(seed);
  Table t(d);
  t.Reserve(n);
  std::vector<double> x(d);
  for (int64_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) x[j] = rng.Uniform(lo, hi);
    t.AppendUnchecked(x.data(), rng.Uniform(-1, 1));
  }
  return t;
}

// Row ids inside the ball, in the index's visit order.
std::vector<int64_t> CollectIds(const SpatialIndex& index, const double* center,
                                double radius, const LpNorm& norm,
                                SelectionStats* stats = nullptr) {
  query::CollectIdsBlockKernel collect;
  index.BlockVisit(center, radius, norm, &collect, stats);
  return collect.TakeIds();
}

// ---------- Table ----------

TEST(TableTest, AppendAndAccess) {
  Table t(2);
  ASSERT_TRUE(t.Append({0.1, 0.2}, 5.0).ok());
  ASSERT_TRUE(t.Append({0.3, 0.4}, 6.0).ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_DOUBLE_EQ(t.x(1)[0], 0.3);
  EXPECT_DOUBLE_EQ(t.u(0), 5.0);
  EXPECT_EQ(t.XRow(1), (std::vector<double>{0.3, 0.4}));
}

TEST(TableTest, AppendWrongDimensionRejected) {
  Table t(2);
  EXPECT_EQ(t.Append({0.1}, 5.0).code(), util::StatusCode::kInvalidArgument);
}

TEST(TableTest, AppendNonFiniteRejected) {
  Table t(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(t.Append({nan, 0.1}, 1.0).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Append({0.1, -inf}, 1.0).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Append({0.1, 0.2}, inf).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Append({0.1, 0.2}, nan).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0);
  EXPECT_TRUE(t.Append({0.1, 0.2}, 1.0).ok());
}

TEST(TableTest, FeatureRanges) {
  Table t(2);
  ASSERT_TRUE(t.Append({0.0, 5.0}, 0).ok());
  ASSERT_TRUE(t.Append({2.0, -1.0}, 0).ok());
  std::vector<double> lo, hi;
  t.FeatureRanges(&lo, &hi);
  EXPECT_EQ(lo, (std::vector<double>{0.0, -1.0}));
  EXPECT_EQ(hi, (std::vector<double>{2.0, 5.0}));
}

TEST(TableTest, EmptyTableRangesEmpty) {
  Table t(3);
  std::vector<double> lo, hi;
  t.FeatureRanges(&lo, &hi);
  EXPECT_TRUE(lo.empty());
  EXPECT_TRUE(hi.empty());
}

TEST(TableTest, MemoryBytesGrows) {
  Table t(4);
  const int64_t before = t.MemoryBytes();
  for (int i = 0; i < 1000; ++i) t.AppendUnchecked(std::vector<double>(4, 0.5).data(), 1.0);
  EXPECT_GT(t.MemoryBytes(), before);
}

TEST(TableTest, MemoryBytesBreakdown) {
  Table t(3);
  // An empty table holds nothing.
  EXPECT_EQ(t.FeatureBytes(), 0);
  EXPECT_EQ(t.OutputBytes(), 0);
  EXPECT_EQ(t.MemoryBytes(), 0);

  for (int i = 0; i < 500; ++i) {
    t.AppendUnchecked(std::vector<double>(3, 0.5).data(), 1.0);
  }
  // Features dominate the output column d:1, both are capacity-accounted,
  // and the total is exactly the sum of the parts.
  EXPECT_GE(t.FeatureBytes(), t.num_rows() * 3 * static_cast<int64_t>(sizeof(double)));
  EXPECT_GE(t.OutputBytes(), t.num_rows() * static_cast<int64_t>(sizeof(double)));
  EXPECT_EQ(t.MemoryBytes(), t.FeatureBytes() + t.OutputBytes());
}

// ---------- LpNorm ----------

TEST(LpNormTest, L2Distance) {
  const double a[] = {0.0, 0.0};
  const double b[] = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(LpNorm::L2().Distance(a, b, 2), 5.0);
  EXPECT_TRUE(LpNorm::L2().Within(a, b, 2, 5.0));
  EXPECT_FALSE(LpNorm::L2().Within(a, b, 2, 4.999));
}

TEST(LpNormTest, L1Distance) {
  const double a[] = {0.0, 0.0};
  const double b[] = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(LpNorm::L1().Distance(a, b, 2), 7.0);
}

TEST(LpNormTest, LInfDistance) {
  const double a[] = {0.0, 0.0};
  const double b[] = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(LpNorm::LInf().Distance(a, b, 2), 4.0);
  EXPECT_TRUE(LpNorm::LInf().Within(a, b, 2, 4.0));
}

TEST(LpNormTest, GeneralPBetweenL1AndLInf) {
  const double a[] = {0.0, 0.0, 0.0};
  const double b[] = {1.0, 1.0, 1.0};
  const double d1 = LpNorm::L1().Distance(a, b, 3);
  const double d3 = LpNorm(3.0).Distance(a, b, 3);
  const double dinf = LpNorm::LInf().Distance(a, b, 3);
  EXPECT_GT(d1, d3);
  EXPECT_GT(d3, dinf);
  EXPECT_NEAR(d3, std::pow(3.0, 1.0 / 3.0), 1e-12);
}

TEST(LpNormTest, KindResolvedOnceAtConstruction) {
  EXPECT_EQ(LpNorm::L1().kind(), LpKind::kL1);
  EXPECT_EQ(LpNorm::L2().kind(), LpKind::kL2);
  EXPECT_EQ(LpNorm::LInf().kind(), LpKind::kLInf);
  EXPECT_EQ(LpNorm(3.0).kind(), LpKind::kGeneric);
}

TEST(LpNormTest, Distance2IsSquaredEuclidean) {
  const double a[] = {0.0, 0.0};
  const double b[] = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(LpNorm::L2().Distance2(a, b, 2), 25.0);
  // Distance2 is the L2 helper regardless of the norm's own p: callers use
  // it to compare a Euclidean distance against a radius without the sqrt.
  EXPECT_DOUBLE_EQ(LpNorm::L1().Distance2(a, b, 2), 25.0);
  // Radius comparison without the root agrees with Within on both sides of
  // the boundary.
  EXPECT_TRUE(LpNorm::L2().Distance2(a, b, 2) <= 5.0 * 5.0);
  EXPECT_FALSE(LpNorm::L2().Distance2(a, b, 2) <= 4.999 * 4.999);
}

TEST(LpNormTest, MinDistanceToBoxInsideIsZero) {
  const double q[] = {0.5, 0.5};
  const double lo[] = {0.0, 0.0};
  const double hi[] = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(LpNorm::L2().MinDistanceToBox(q, lo, hi, 2), 0.0);
}

TEST(LpNormTest, MinDistanceToBoxOutside) {
  const double q[] = {2.0, 0.5};
  const double lo[] = {0.0, 0.0};
  const double hi[] = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(LpNorm::L2().MinDistanceToBox(q, lo, hi, 2), 1.0);
  const double q2[] = {2.0, 2.0};
  EXPECT_DOUBLE_EQ(LpNorm::L2().MinDistanceToBox(q2, lo, hi, 2), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(LpNorm::LInf().MinDistanceToBox(q2, lo, hi, 2), 1.0);
}

// Lower bound property: box distance never exceeds distance to any point in
// the box.
TEST(LpNormTest, BoxDistanceIsLowerBound) {
  util::Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t d = 1 + rng.UniformInt(4);
    std::vector<double> lo(d), hi(d), q(d), p(d);
    for (size_t j = 0; j < d; ++j) {
      const double a = rng.Uniform(-2, 2), b = rng.Uniform(-2, 2);
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
      q[j] = rng.Uniform(-3, 3);
      p[j] = rng.Uniform(lo[j], hi[j]);  // point inside the box
    }
    for (double pp : {1.0, 2.0, LpNorm::kInf}) {
      LpNorm norm(pp);
      EXPECT_LE(norm.MinDistanceToBox(q.data(), lo.data(), hi.data(), d),
                norm.Distance(q.data(), p.data(), d) + 1e-12);
    }
  }
}

// ---------- ScanIndex ----------

TEST(ScanIndexTest, FindsAllWithinRadius) {
  Table t(1);
  for (double v : {0.1, 0.2, 0.5, 0.9}) ASSERT_TRUE(t.Append({v}, v).ok());
  ScanIndex scan(t);
  const double c[] = {0.15};
  SelectionStats stats;
  auto ids = CollectIds(scan, c, 0.1, LpNorm::L2(), &stats);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(stats.tuples_examined, 4);
  EXPECT_EQ(stats.tuples_matched, 2);
}

TEST(ScanIndexTest, EmptyResultForDistantQuery) {
  Table t = MakeRandomTable(2, 100, 3);
  ScanIndex scan(t);
  const double c[] = {100.0, 100.0};
  EXPECT_TRUE(CollectIds(scan, c, 0.5, LpNorm::L2()).empty());
}

// ---------- KdTree ----------

TEST(KdTreeTest, EmptyTable) {
  Table t(2);
  KdTree tree(t);
  const double c[] = {0.5, 0.5};
  EXPECT_TRUE(CollectIds(tree, c, 10.0, LpNorm::L2()).empty());
}

TEST(KdTreeTest, SingleRow) {
  Table t(2);
  ASSERT_TRUE(t.Append({0.5, 0.5}, 1.0).ok());
  KdTree tree(t);
  const double c[] = {0.4, 0.5};
  auto ids = CollectIds(tree, c, 0.2, LpNorm::L2());
  EXPECT_EQ(ids, (std::vector<int64_t>{0}));
}

TEST(KdTreeTest, DuplicatePointsAllReturned) {
  Table t(2);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(t.Append({0.5, 0.5}, i).ok());
  KdTree tree(t, 8);
  const double c[] = {0.5, 0.5};
  EXPECT_EQ(CollectIds(tree, c, 0.01, LpNorm::L2()).size(), 50u);
}

// Property: kd-tree selection == scan selection for random tables, queries,
// dimensions, leaf sizes, and norms.
class KdTreeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(KdTreeEquivalenceTest, MatchesScan) {
  const int d = std::get<0>(GetParam());
  const int leaf = std::get<1>(GetParam());
  const double p = std::get<2>(GetParam());
  Table t = MakeRandomTable(static_cast<size_t>(d), 2000,
                            static_cast<uint64_t>(d * 100 + leaf));
  ScanIndex scan(t);
  KdTree tree(t, leaf);
  LpNorm norm(p);
  util::Rng rng(static_cast<uint64_t>(d * 7 + leaf));
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> c(static_cast<size_t>(d));
    for (auto& v : c) v = rng.Uniform(-0.2, 1.2);
    const double radius = rng.Uniform(0.01, 0.5);
    auto a = CollectIds(scan, c.data(), radius, norm);
    auto b = CollectIds(tree, c.data(), radius, norm);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "d=" << d << " leaf=" << leaf << " p=" << p
                    << " radius=" << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(1, 8, 64),
                       ::testing::Values(1.0, 2.0, LpNorm::kInf)));

TEST(KdTreeTest, ExaminesFewerTuplesThanScan) {
  Table t = MakeRandomTable(2, 20000, 11);
  ScanIndex scan(t);
  KdTree tree(t);
  const double c[] = {0.5, 0.5};
  SelectionStats ss, ts;
  CollectIds(scan, c, 0.05, LpNorm::L2(), &ss);
  CollectIds(tree, c, 0.05, LpNorm::L2(), &ts);
  EXPECT_EQ(ss.tuples_matched, ts.tuples_matched);
  EXPECT_LT(ts.tuples_examined, ss.tuples_examined / 4)
      << "kd-tree should prune most of the table for a small ball";
}


// ---------- KdTree bulk load: the pooled build is the serial tree ----------

// The serial bulk load the pooled one must reproduce: one recursion with an
// indirect nth_element over row ids and nodes appended in pre-order, then
// the same leaf-blocked re-layout, Kahan leaf sums and radius visit.
class ReferenceTree {
 public:
  ReferenceTree(const Table& table, int leaf_size)
      : table_(table), d_(table.dimension()), leaf_size_(leaf_size) {
    const int64_t n = table.num_rows();
    ids_.resize(static_cast<size_t>(n));
    std::iota(ids_.begin(), ids_.end(), 0);
    Build(0, static_cast<int32_t>(n), 0);
    for (int32_t id : ids_) {
      xs_.insert(xs_.end(), table.x(id), table.x(id) + d_);
      us_.push_back(table.u(id));
      row_ids_.push_back(id);
    }
    for (size_t idx = nodes_.size(); idx-- > 0;) Summarize(&nodes_[idx]);
  }

  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }
  const std::vector<int64_t>& row_ids() const { return row_ids_; }

  // True when some node over leaf_size rows below the root stayed a leaf.
  bool HasEarlyLeafBelowRoot() const {
    for (const Node& node : nodes_) {
      if (node.depth > 0 && node.left < 0 && node.end - node.begin > leaf_size_) {
        return true;
      }
    }
    return false;
  }

  // KdTree::MakePartitions' frontier walk over this tree's nodes.
  std::vector<ScanPartition> MakePartitions(size_t target) const {
    auto rows_of = [this](int32_t idx) {
      return nodes_[static_cast<size_t>(idx)].end - nodes_[static_cast<size_t>(idx)].begin;
    };
    auto cmp = [&rows_of](int32_t a, int32_t b) { return rows_of(a) < rows_of(b); };
    std::priority_queue<int32_t, std::vector<int32_t>, decltype(cmp)> frontier(cmp);
    frontier.push(0);
    std::vector<int32_t> done;
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
    std::sort(done.begin(), done.end(), [this](int32_t a, int32_t b) {
      return nodes_[static_cast<size_t>(a)].begin < nodes_[static_cast<size_t>(b)].begin;
    });
    std::vector<ScanPartition> plan;
    for (int32_t idx : done) {
      ScanPartition p;
      p.begin = nodes_[static_cast<size_t>(idx)].begin;
      p.end = nodes_[static_cast<size_t>(idx)].end;
      p.node = idx;
      plan.push_back(p);
    }
    return plan;
  }

  void BlockVisit(const double* center, double radius, const LpNorm& norm,
                  BlockKernel* kernel, SelectionStats* stats) const {
    const BlockFilter filter = SelectBlockFilter(norm, d_);
    std::vector<double> corner(d_);
    SelectionStats local;
    Visit(0, center, radius, norm, filter, corner.data(), kernel,
          stats != nullptr ? stats : &local);
  }

 private:
  struct Node {
    int32_t left = -1, right = -1, begin = 0, end = 0, depth = 0;
    std::vector<double> lo, hi;
    double sum_u = 0.0, sum_u2 = 0.0;
    bool finite = true;
  };

  int32_t Build(int32_t begin, int32_t end, int32_t depth) {
    const int32_t idx = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    Node& node = nodes_.back();
    node.begin = begin;
    node.end = end;
    node.depth = depth;
    node.lo.assign(table_.x(ids_[static_cast<size_t>(begin)]),
                   table_.x(ids_[static_cast<size_t>(begin)]) + d_);
    node.hi = node.lo;
    for (int32_t i = begin + 1; i < end; ++i) {
      const double* row = table_.x(ids_[static_cast<size_t>(i)]);
      for (size_t j = 0; j < d_; ++j) {
        node.lo[j] = row[j] < node.lo[j] ? row[j] : node.lo[j];
        node.hi[j] = row[j] > node.hi[j] ? row[j] : node.hi[j];
      }
    }
    if (end - begin <= leaf_size_) return idx;
    size_t split_dim = 0;
    double widest = -1.0;
    for (size_t j = 0; j < d_; ++j) {
      if (node.hi[j] - node.lo[j] > widest) {
        widest = node.hi[j] - node.lo[j];
        split_dim = j;
      }
    }
    if (widest <= 0.0) return idx;
    const int32_t mid = begin + (end - begin) / 2;
    std::nth_element(ids_.begin() + begin, ids_.begin() + mid, ids_.begin() + end,
                     [this, split_dim](int32_t a, int32_t b) {
                       return table_.x(a)[split_dim] < table_.x(b)[split_dim];
                     });
    const int32_t left = Build(begin, mid, depth + 1);
    const int32_t right = Build(mid, end, depth + 1);
    nodes_[static_cast<size_t>(idx)].left = left;
    nodes_[static_cast<size_t>(idx)].right = right;
    return idx;
  }

  void Summarize(Node* node) const {
    if (node->left >= 0) {
      const Node& l = nodes_[static_cast<size_t>(node->left)];
      const Node& r = nodes_[static_cast<size_t>(node->right)];
      node->sum_u = l.sum_u + r.sum_u;
      node->sum_u2 = l.sum_u2 + r.sum_u2;
      node->finite = l.finite && r.finite;
      return;
    }
    query::KahanSum sum, sum2;
    for (int32_t i = node->begin; i < node->end; ++i) {
      const double u = us_[static_cast<size_t>(i)];
      sum.Add(u);
      sum2.Add(u * u);
    }
    node->sum_u = sum.value();
    node->sum_u2 = sum2.value();
    node->finite = std::all_of(xs_.begin() + static_cast<size_t>(node->begin) * d_,
                               xs_.begin() + static_cast<size_t>(node->end) * d_,
                               [](double v) { return std::isfinite(v); });
  }

  BlockSpan Span(int32_t b, int32_t rows) const {
    BlockSpan span;
    span.xs = &xs_[static_cast<size_t>(b) * d_];
    span.us = &us_[static_cast<size_t>(b)];
    span.ids = &row_ids_[static_cast<size_t>(b)];
    span.rows = rows;
    span.d = d_;
    return span;
  }

  void Visit(int32_t idx, const double* c, double radius, const LpNorm& norm,
             const BlockFilter& filter, double* corner, BlockKernel* kernel,
             SelectionStats* stats) const {
    const Node& node = nodes_[static_cast<size_t>(idx)];
    if (node.finite &&
        norm.MinDistanceToBox(c, node.lo.data(), node.hi.data(), d_) > radius) {
      return;
    }
    int32_t sel[kScanBlockRows];
    double scratch[kScanBlockRows];
    bool inside = false;
    if (node.finite) {
      for (size_t j = 0; j < d_; ++j) {
        corner[j] = std::fabs(node.hi[j] - c[j]) > std::fabs(node.lo[j] - c[j])
                        ? node.hi[j]
                        : node.lo[j];
      }
      inside = filter.Run(corner, 1, d_, c, radius, sel, scratch) == 1;
    }
    if (inside) {
      stats->tuples_examined += node.end - node.begin;
      stats->tuples_matched += node.end - node.begin;
      SubtreeSummary summary;
      summary.count = node.end - node.begin;
      summary.sum_u = node.sum_u;
      summary.sum_u2 = node.sum_u2;
      if (kernel->OnSubtree(summary)) return;
      int32_t all[kScanBlockRows];
      std::iota(all, all + kScanBlockRows, 0);
      for (int32_t b = node.begin; b < node.end; b += kScanBlockRows) {
        BlockSpan span = Span(b, std::min<int32_t>(kScanBlockRows, node.end - b));
        span.sel = all;
        span.count = span.rows;
        kernel->OnBlock(span);
      }
      return;
    }
    if (node.left < 0) {
      for (int32_t b = node.begin; b < node.end; b += kScanBlockRows) {
        BlockSpan span = Span(b, std::min<int32_t>(kScanBlockRows, node.end - b));
        span.count = filter.Run(span.xs, span.rows, d_, c, radius, sel, scratch);
        span.sel = sel;
        stats->tuples_examined += span.rows;
        stats->tuples_matched += span.count;
        if (span.count > 0) kernel->OnBlock(span);
      }
      return;
    }
    Visit(node.left, c, radius, norm, filter, corner, kernel, stats);
    Visit(node.right, c, radius, norm, filter, corner, kernel, stats);
  }

  const Table& table_;
  size_t d_;
  int32_t leaf_size_;
  std::vector<int32_t> ids_;
  std::vector<Node> nodes_;
  std::vector<double> xs_;
  std::vector<double> us_;
  std::vector<int64_t> row_ids_;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Asserts that `tree` is `ref` node for node, row for row and answer for
// answer: node count, every leaf and partition plan, the row permutation,
// and bit-identical Q1/Q2 sums and SelectionStats over `balls` random balls
// under each of four norms.
void ExpectSameTree(const Table& table, int leaf_size, int balls, uint64_t seed) {
  const KdTree tree(table, leaf_size);
  const ReferenceTree ref(table, leaf_size);
  const size_t d = table.dimension();
  ASSERT_EQ(tree.num_nodes(), ref.num_nodes());

  auto expect_same_plan = [&](size_t target) {
    const std::vector<ScanPartition> got = tree.MakePartitions(target);
    const std::vector<ScanPartition> want = ref.MakePartitions(target);
    ASSERT_EQ(got.size(), want.size()) << "target=" << target;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].node, want[i].node) << "target=" << target << " i=" << i;
      EXPECT_EQ(got[i].begin, want[i].begin) << "target=" << target << " i=" << i;
      EXPECT_EQ(got[i].end, want[i].end) << "target=" << target << " i=" << i;
    }
  };
  // Every leaf, then the plans the engine asks for.
  expect_same_plan(static_cast<size_t>(tree.num_nodes()));
  for (size_t target : {1u, 2u, 3u, 5u, 8u, 64u}) expect_same_plan(target);

  // The row permutation: CollectIdsBlockKernel declines every subtree, so a
  // covering ball streams all rows in storage order.
  const std::vector<double> center(d, 0.5);
  query::CollectIdsBlockKernel all_rows;
  tree.BlockVisit(center.data(), 1e9, LpNorm::L2(), &all_rows, nullptr);
  EXPECT_EQ(all_rows.TakeIds(), ref.row_ids());

  std::vector<double> mins, maxs;
  table.FeatureRanges(&mins, &maxs);
  util::Rng rng(seed);
  std::vector<double> c(d);
  for (int ball = 0; ball < balls; ++ball) {
    for (size_t j = 0; j < d; ++j) c[j] = rng.Uniform(mins[j], maxs[j]);
    const double radius = rng.Uniform(0.005, 0.06) * std::sqrt(static_cast<double>(d));
    for (double p : {1.0, 2.0, 3.0, LpNorm::kInf}) {
      const LpNorm norm(p);
      query::SumBlockKernel q1, ref_q1;
      SelectionStats stats, ref_stats;
      tree.BlockVisit(c.data(), radius, norm, &q1, &stats);
      ref.BlockVisit(c.data(), radius, norm, &ref_q1, &ref_stats);
      ASSERT_TRUE(SameBits(q1.sum(), ref_q1.sum())) << "ball=" << ball << " p=" << p;
      ASSERT_EQ(q1.count(), ref_q1.count()) << "ball=" << ball << " p=" << p;
      ASSERT_EQ(stats.tuples_examined, ref_stats.tuples_examined)
          << "ball=" << ball << " p=" << p;
      ASSERT_EQ(stats.tuples_matched, ref_stats.tuples_matched);

      query::GramBlockKernel q2(d), ref_q2(d);
      tree.BlockVisit(c.data(), radius, norm, &q2, nullptr);
      ref.BlockVisit(c.data(), radius, norm, &ref_q2, nullptr);
      ASSERT_EQ(q2.acc().count(), ref_q2.acc().count());
      const auto fit = q2.acc().Solve();
      const auto ref_fit = ref_q2.acc().Solve();
      ASSERT_EQ(fit.ok(), ref_fit.ok());
      if (!fit.ok()) continue;
      ASSERT_TRUE(SameBits(fit->intercept, ref_fit->intercept))
          << "ball=" << ball << " p=" << p;
      ASSERT_TRUE(SameBits(fit->ssr, ref_fit->ssr));
      ASSERT_TRUE(SameBits(fit->tss, ref_fit->tss));
      for (size_t j = 0; j < d; ++j) {
        ASSERT_TRUE(SameBits(fit->slope[j], ref_fit->slope[j]));
      }
    }
  }
}

TEST(KdTreeBuildTest, R1PooledBuildIsTheSerialTree) {
  auto ds = data::MakeR1(2, 300000, 42);
  ASSERT_TRUE(ds.ok());
  ExpectSameTree(ds->table, 32, 1000, 7);
}

TEST(KdTreeBuildTest, RowCutoffEdgesBuildTheSerialTree) {
  for (int64_t n : {KdTree::kParallelBuildRows - 1, KdTree::kParallelBuildRows,
                    KdTree::kParallelBuildRows + 1}) {
    SCOPED_TRACE(n);
    ExpectSameTree(MakeRandomTable(2, n, static_cast<uint64_t>(n)), 32, 200, 11);
  }
}

TEST(KdTreeBuildTest, OneAndFiveDimensionsBuildTheSerialTree) {
  ExpectSameTree(MakeRandomTable(1, 70000, 3), 32, 250, 13);
  // d = 5 takes the generic (runtime-dimension) box path.
  ExpectSameTree(MakeRandomTable(5, 60000, 5), 16, 250, 17);
}

TEST(KdTreeBuildTest, IdenticalRowsLeafInsidePooledSubtree) {
  // 40k copies of one point among 40k uniform rows: medians fall inside the
  // identical block, so some node below the root holds only that point and
  // stays a leaf over more than leaf_size rows, leaving empty slots that the
  // compaction pass must remove.
  Table table = MakeRandomTable(2, 40000, 19);
  const double point[2] = {0.5, 0.5};
  util::Rng rng(23);
  for (int i = 0; i < 40000; ++i) table.AppendUnchecked(point, rng.Uniform(-1, 1));
  ASSERT_TRUE(ReferenceTree(table, 32).HasEarlyLeafBelowRoot());
  ExpectSameTree(table, 32, 250, 29);
}

}  // namespace
}  // namespace storage
}  // namespace qreg
