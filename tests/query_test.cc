// Unit + property tests for src/query: Query geometry (Defs. 5-6, Eq. 9),
// workload generation, and the exact Q1/Q2 engine (REG ground truth).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "query/exact_engine.h"
#include "query/query.h"
#include "query/workload.h"
#include "storage/kdtree.h"
#include "storage/scan_index.h"
#include "util/rng.h"

namespace qreg {
namespace query {
namespace {

// ---------- Query geometry ----------

TEST(QueryTest, DistanceCombinesCenterAndTheta) {
  Query a({0.0, 0.0}, 0.1);
  Query b({3.0, 4.0}, 0.2);
  EXPECT_DOUBLE_EQ(QueryDistanceSquared(a, b), 25.0 + 0.01);
  EXPECT_DOUBLE_EQ(QueryDistance(a, a), 0.0);
}

TEST(OverlapTest, TouchingBallsOverlap) {
  Query a({0.0}, 0.5);
  Query b({1.0}, 0.5);  // centers 1 apart; radii sum exactly 1
  EXPECT_TRUE(Overlaps(a, b));
  EXPECT_DOUBLE_EQ(DegreeOfOverlap(a, b), 0.0);  // "just meet" => δ = 0
}

TEST(OverlapTest, DisjointBallsDoNotOverlap) {
  Query a({0.0}, 0.4);
  Query b({1.0}, 0.5);
  EXPECT_FALSE(Overlaps(a, b));
  EXPECT_DOUBLE_EQ(DegreeOfOverlap(a, b), 0.0);
}

TEST(OverlapTest, IdenticalQueriesHaveFullOverlap) {
  Query a({0.3, 0.7}, 0.25);
  EXPECT_DOUBLE_EQ(DegreeOfOverlap(a, a), 1.0);
}

TEST(OverlapTest, ConcentricContainmentPenalizedByRadiusGap) {
  Query big({0.0, 0.0}, 1.0);
  Query small({0.0, 0.0}, 0.1);
  // max(0, |θ-θ'|)/(θ+θ') = 0.9/1.1
  EXPECT_NEAR(DegreeOfOverlap(big, small), 1.0 - 0.9 / 1.1, 1e-12);
}

TEST(OverlapTest, SymmetryProperty) {
  util::Rng rng(5);
  for (int t = 0; t < 200; ++t) {
    const size_t d = 1 + rng.UniformInt(4);
    Query a, b;
    a.center.resize(d);
    b.center.resize(d);
    for (size_t j = 0; j < d; ++j) {
      a.center[j] = rng.Uniform(-1, 1);
      b.center[j] = rng.Uniform(-1, 1);
    }
    a.theta = rng.Uniform(0.01, 1.0);
    b.theta = rng.Uniform(0.01, 1.0);
    EXPECT_DOUBLE_EQ(DegreeOfOverlap(a, b), DegreeOfOverlap(b, a));
    EXPECT_EQ(Overlaps(a, b), Overlaps(b, a));
  }
}

TEST(OverlapTest, DegreeAlwaysInUnitInterval) {
  util::Rng rng(6);
  for (int t = 0; t < 500; ++t) {
    Query a, b;
    a.center = {rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
    b.center = {rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
    a.theta = rng.Uniform(1e-4, 2.0);
    b.theta = rng.Uniform(1e-4, 2.0);
    const double delta = DegreeOfOverlap(a, b);
    EXPECT_GE(delta, 0.0);
    EXPECT_LE(delta, 1.0);
    if (delta > 0.0) {
      EXPECT_TRUE(Overlaps(a, b));
    }
  }
}

TEST(OverlapTest, DeltaDecreasesWithCenterDistance) {
  Query base({0.0, 0.0}, 0.5);
  double prev = 1.1;
  for (double shift : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    Query moved({shift, 0.0}, 0.5);
    const double delta = DegreeOfOverlap(base, moved);
    EXPECT_LT(delta, prev);
    prev = delta;
  }
}

// ---------- Workload ----------

TEST(WorkloadTest, ValidatesConfig) {
  WorkloadConfig bad = WorkloadConfig::Cube(2, 0.0, 1.0, 0.1, 0.01, 1);
  bad.center_lo = {1.0};  // wrong size
  EXPECT_FALSE(WorkloadGenerator(bad).Validate().ok());

  WorkloadConfig neg = WorkloadConfig::Cube(2, 0.0, 1.0, -0.1, 0.01, 1);
  EXPECT_FALSE(WorkloadGenerator(neg).Validate().ok());

  WorkloadConfig good = WorkloadConfig::Cube(2, 0.0, 1.0, 0.1, 0.01, 1);
  EXPECT_TRUE(WorkloadGenerator(good).Validate().ok());
}

TEST(WorkloadTest, DeterministicForSeed) {
  auto cfg = WorkloadConfig::Cube(3, -1.0, 1.0, 0.2, 0.05, 99);
  WorkloadGenerator g1(cfg), g2(cfg);
  for (int i = 0; i < 50; ++i) {
    const Query a = g1.Next();
    const Query b = g2.Next();
    EXPECT_EQ(a.center, b.center);
    EXPECT_DOUBLE_EQ(a.theta, b.theta);
  }
}

TEST(WorkloadTest, CentersWithinBoundsThetaPositive) {
  auto cfg = WorkloadConfig::Cube(2, -10.0, 10.0, 1.0, 0.5, 7);
  WorkloadGenerator gen(cfg);
  for (const Query& q : gen.Generate(2000)) {
    for (double c : q.center) {
      EXPECT_GE(c, -10.0);
      EXPECT_LE(c, 10.0);
    }
    EXPECT_GT(q.theta, 0.0);
  }
}

TEST(WorkloadTest, ThetaMeanApproximatesMu) {
  auto cfg = WorkloadConfig::Cube(2, 0.0, 1.0, 0.3, 0.01, 13);
  WorkloadGenerator gen(cfg);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += gen.Next().theta;
  EXPECT_NEAR(sum / n, 0.3, 0.005);
}

// ---------- ExactEngine ----------

class ExactEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<storage::Table>(2);
    util::Rng rng(17);
    // Plant an exactly linear function so Q2 is analytically known.
    for (int i = 0; i < 5000; ++i) {
      std::vector<double> x{rng.Uniform(0, 1), rng.Uniform(0, 1)};
      ASSERT_TRUE(table_->Append(x, 2.0 + 3.0 * x[0] - 1.0 * x[1]).ok());
    }
    scan_ = std::make_unique<storage::ScanIndex>(*table_);
    tree_ = std::make_unique<storage::KdTree>(*table_);
  }

  std::unique_ptr<storage::Table> table_;
  std::unique_ptr<storage::ScanIndex> scan_;
  std::unique_ptr<storage::KdTree> tree_;
};

TEST_F(ExactEngineTest, MeanValueMatchesManualAverage) {
  ExactEngine engine(*table_, *scan_);
  Query q({0.5, 0.5}, 0.2);
  ExecStats stats;
  auto r = engine.MeanValue(q, &stats);
  ASSERT_TRUE(r.ok());

  // Manual computation with a naive running sum. The engine's accumulator
  // is Kahan-compensated, so the two can legitimately differ by a few ulps
  // of drift that the *naive* loop accumulated — compare with a tight
  // relative tolerance instead of bit equality.
  double sum = 0.0;
  int64_t cnt = 0;
  for (int64_t i = 0; i < table_->num_rows(); ++i) {
    if (storage::LpNorm::L2().Within(table_->x(i), q.center.data(), 2, q.theta)) {
      sum += table_->u(i);
      ++cnt;
    }
  }
  ASSERT_GT(cnt, 0);
  const double manual = sum / static_cast<double>(cnt);
  EXPECT_NEAR(r->mean, manual, 1e-12 * std::max(1.0, std::fabs(manual)));
  EXPECT_EQ(r->count, cnt);
  EXPECT_EQ(stats.tuples_matched, cnt);
  EXPECT_GT(stats.nanos, 0);
}

TEST_F(ExactEngineTest, MeanValueSameForScanAndKdTree) {
  ExactEngine scan_engine(*table_, *scan_);
  ExactEngine tree_engine(*table_, *tree_);
  util::Rng rng(23);
  for (int t = 0; t < 20; ++t) {
    Query q({rng.Uniform(0, 1), rng.Uniform(0, 1)}, rng.Uniform(0.05, 0.3));
    auto a = scan_engine.MeanValue(q);
    auto b = tree_engine.MeanValue(q);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_NEAR(a->mean, b->mean, 1e-12);
      EXPECT_EQ(a->count, b->count);
    }
  }
}

TEST_F(ExactEngineTest, RegressionRecoversPlantedPlane) {
  ExactEngine engine(*table_, *tree_);
  Query q({0.5, 0.5}, 0.3);
  auto fit = engine.Regression(q);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->intercept, 2.0, 1e-8);
  EXPECT_NEAR(fit->slope[0], 3.0, 1e-8);
  EXPECT_NEAR(fit->slope[1], -1.0, 1e-8);
  EXPECT_NEAR(fit->CoD(), 1.0, 1e-10);
}

TEST_F(ExactEngineTest, EmptySubspaceIsNotFound) {
  ExactEngine engine(*table_, *tree_);
  Query q({50.0, 50.0}, 0.1);
  EXPECT_EQ(engine.MeanValue(q).status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(engine.Regression(q).status().code(), util::StatusCode::kNotFound);
}

TEST_F(ExactEngineTest, SelectReturnsMatchingIds) {
  ExactEngine engine(*table_, *tree_);
  Query q({0.5, 0.5}, 0.1);
  ExecStats stats;
  auto ids = engine.Select(q, &stats).value();
  EXPECT_EQ(static_cast<int64_t>(ids.size()), stats.tuples_matched);
  for (int64_t id : ids) {
    EXPECT_TRUE(
        storage::LpNorm::L2().Within(table_->x(id), q.center.data(), 2, q.theta));
  }
}

TEST_F(ExactEngineTest, L1NormSelectsDifferentSubspace) {
  ExactEngine l2(*table_, *scan_, storage::LpNorm::L2());
  ExactEngine l1(*table_, *scan_, storage::LpNorm::L1());
  Query q({0.5, 0.5}, 0.2);
  auto a = l2.MeanValue(q);
  auto b = l1.MeanValue(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // L1 ball is strictly inside the L2 ball of the same radius.
  EXPECT_LT(b->count, a->count);
}

// ---------- An index that no longer covers its table ----------

// 100 rows with u = 1, then (after the index is built) 100 more with u = 3:
// the grown table holds 200 rows with mean 2.
storage::Table FirstRegime() {
  storage::Table table(2);
  util::Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(table.Append({rng.Uniform(0, 1), rng.Uniform(0, 1)}, 1.0).ok());
  }
  return table;
}

void AppendSecondRegime(storage::Table* table) {
  util::Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    EXPECT_TRUE(table->Append(x, 3.0).ok());
  }
}

Query WholeTable() { return Query({0.5, 0.5}, 2.0); }

TEST(StaleIndexTest, GrownKdTreeFailsEveryOperatorBeforeAnyPartition) {
  const Query q = WholeTable();
  storage::Table table = FirstRegime();
  storage::KdTree tree(table);
  ExactEngine engine(table, tree);
  ASSERT_EQ(engine.MeanValue(q)->count, 100);

  AppendSecondRegime(&table);
  int64_t chunks_seen = 0;
  util::ExecControl control;
  control.on_chunk_for_testing = [&chunks_seen](size_t) { ++chunks_seen; };
  ExecStats stats[3];
  EXPECT_EQ(engine.MeanValue(q, &stats[0], &control).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Regression(q, &stats[1], &control).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Select(q, &stats[2], &control).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.MeanValue(q).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(chunks_seen, 0);
  for (const ExecStats& s : stats) {
    EXPECT_EQ(s.tuples_examined, 0);
    EXPECT_EQ(s.chunks_total, 0);
  }

  // A tree rebuilt over the grown table covers it again.
  storage::KdTree rebuilt(table);
  ExactEngine fresh(table, rebuilt);
  auto mean = fresh.MeanValue(q);
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean->count, 200);
  EXPECT_DOUBLE_EQ(mean->mean, 2.0);
}

TEST(StaleIndexTest, ScanIndexSeesAppendedRows) {
  const Query q = WholeTable();
  storage::Table table = FirstRegime();
  storage::ScanIndex scan(table);
  ExactEngine engine(table, scan);  // Plan made over the first 100 rows.
  ASSERT_EQ(engine.MeanValue(q)->count, 100);

  AppendSecondRegime(&table);
  auto mean = engine.MeanValue(q);
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean->count, 200);
  EXPECT_DOUBLE_EQ(mean->mean, 2.0);
  auto fit = engine.Regression(q);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit->n, 200);
  EXPECT_DOUBLE_EQ(fit->u_mean, 2.0);
  EXPECT_EQ(engine.Select(q).value().size(), 200u);
}

}  // namespace
}  // namespace query
}  // namespace qreg
