// Unit + property tests for src/storage: Table, LpNorm, ScanIndex, KdTree.
// The key property: the k-d tree returns exactly the same row sets as the
// brute-force scan for random workloads across dimensions and norms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "query/scan_kernels.h"
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

}  // namespace
}  // namespace storage
}  // namespace qreg
