// Tests for the block-at-a-time scan pipeline:
//   - BlockVisit selects exactly the rows of a brute-force LpNorm::Within
//     loop over the Table, for all norms × both access paths (the scan in
//     row order with tuples_examined == n, the k-d tree as the same row
//     set), and a partitioned visit reproduces the whole visit's order and
//     SelectionStats;
//   - the engine's block-kernel answers stay bit-for-bit identical across
//     thread counts and survive a mid-scan ExecControl trip with consistent
//     partial-work accounting;
//   - the k-d tree's contained-subtree summaries: count, Σu and Σu² agree
//     with brute force up to table-covering balls, counters match a row
//     kernel, knife-edge radii at a box's farthest corner select exactly
//     the brute force rows, non-finite rows are never summarized, and
//     degenerate tables (identical rows, one row, empty) stay exact;
//   - KahanSum compensates where a naive stream loses precision;
//   - the branch-free filters agree with LpNorm::Within row-by-row.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "query/exact_engine.h"
#include "query/scan_kernels.h"
#include "storage/block_filter.h"
#include "storage/kdtree.h"
#include "storage/scan_index.h"
#include "storage/table.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace qreg {
namespace query {
namespace {

storage::Table MakeTable(size_t d, int64_t n, uint64_t seed) {
  util::Rng rng(seed);
  storage::Table t(d);
  t.Reserve(n);
  std::vector<double> x(d);
  for (int64_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) x[j] = rng.Uniform(0, 1);
    t.AppendUnchecked(x.data(), rng.Uniform(-2, 2));
  }
  return t;
}

// One visited row, captured exactly.
struct Row {
  int64_t id;
  std::vector<double> x;
  double u;

  bool operator==(const Row& o) const {
    return id == o.id && u == o.u && x == o.x;
  }
};

class CollectRowsKernel : public storage::BlockKernel {
 public:
  CollectRowsKernel(std::vector<Row>* out, size_t d) : out_(out), d_(d) {}
  void OnBlock(const storage::BlockSpan& span) override {
    for (int32_t k = 0; k < span.count; ++k) {
      const double* x = span.XAt(k);
      out_->push_back({span.IdAt(k), std::vector<double>(x, x + d_), span.UAt(k)});
    }
  }

 private:
  std::vector<Row>* out_;
  size_t d_;
};

// The reference selection: every row of the table, in row order, that
// LpNorm::Within admits.
std::vector<Row> BruteForceRows(const storage::Table& table, const double* c,
                                double radius, const storage::LpNorm& norm) {
  const size_t d = table.dimension();
  std::vector<Row> rows;
  for (int64_t id = 0; id < table.num_rows(); ++id) {
    const double* x = table.x(id);
    if (norm.Within(x, c, d, radius)) {
      rows.push_back({id, std::vector<double>(x, x + d), table.u(id)});
    }
  }
  return rows;
}

// The block filter's own verdict, row by row in row order. Equal to
// BruteForceRows on finite data; on NaN features the filter rejects where
// Within's early-exit loop does not.
std::vector<Row> BruteForceFilterRows(const storage::Table& table,
                                      const double* c, double radius,
                                      const storage::LpNorm& norm) {
  const size_t d = table.dimension();
  const storage::BlockFilter filter = storage::SelectBlockFilter(norm, d);
  std::vector<Row> rows;
  for (int64_t id = 0; id < table.num_rows(); ++id) {
    const double* x = table.x(id);
    int32_t sel;
    double scratch;
    if (filter.Run(x, 1, d, c, radius, &sel, &scratch) == 1) {
      rows.push_back({id, std::vector<double>(x, x + d), table.u(id)});
    }
  }
  return rows;
}

// Counts rows, sums u and u² (no engine kernel reads a summary's Σu²), and
// takes every offered subtree from its summary.
class CountingKernel : public storage::BlockKernel {
 public:
  void OnBlock(const storage::BlockSpan& span) override {
    for (int32_t k = 0; k < span.count; ++k) {
      const double u = span.UAt(k);
      sum_u.Add(u);
      sum_u2.Add(u * u);
    }
    rows += span.count;
  }
  bool OnSubtree(const storage::SubtreeSummary& summary) override {
    ++summaries;
    largest = std::max(largest, summary.count);
    rows += summary.count;
    sum_u.Add(summary.sum_u);
    sum_u2.Add(summary.sum_u2);
    return true;
  }

  int64_t summaries = 0;
  int64_t largest = 0;  ///< Rows of the largest summarized subtree.
  int64_t rows = 0;
  KahanSum sum_u;       ///< Σu over rows and summaries.
  KahanSum sum_u2;      ///< Σu² over rows and summaries.
};

std::vector<Row> SortedById(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.id < b.id; });
  return rows;
}

// ---------- BlockVisit ≡ brute force, all norms × paths × whole/partitioned --

class BlockRowEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BlockRowEquivalenceTest, SameRowsSameOrderSameStats) {
  const size_t d = static_cast<size_t>(std::get<0>(GetParam()));
  const storage::LpNorm norm(std::get<1>(GetParam()));
  storage::Table table = MakeTable(d, 5000, 91 + d);
  storage::ScanIndex scan(table);
  storage::KdTree tree(table, 16);

  util::Rng rng(7 * d + 1);
  for (const storage::SpatialIndex* index :
       {static_cast<const storage::SpatialIndex*>(&scan),
        static_cast<const storage::SpatialIndex*>(&tree)}) {
    const bool is_scan = index == &scan;
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> c(d);
      for (auto& v : c) v = rng.Uniform(-0.1, 1.1);
      const double radius = rng.Uniform(0.05, 0.6);
      const std::vector<Row> want = BruteForceRows(table, c.data(), radius, norm);

      // Whole visit: the scan reproduces the reference sequence and examines
      // every row; the tree selects the same row set in its own order.
      std::vector<Row> block_rows;
      storage::SelectionStats block_stats;
      CollectRowsKernel kernel(&block_rows, d);
      index->BlockVisit(c.data(), radius, norm, &kernel, &block_stats);

      if (is_scan) {
        EXPECT_EQ(block_rows, want) << "scan p=" << norm.p();
        EXPECT_EQ(block_stats.tuples_examined, table.num_rows());
      } else {
        EXPECT_EQ(SortedById(block_rows), want) << "kdtree p=" << norm.p();
      }
      EXPECT_EQ(block_stats.tuples_matched, static_cast<int64_t>(want.size()));

      // Partitioned: plan order reproduces the whole visit's order and stats.
      std::vector<Row> part_rows;
      storage::SelectionStats part_stats;
      CollectRowsKernel part_kernel(&part_rows, d);
      for (const auto& part : index->MakePartitions(7)) {
        index->BlockVisitPartition(part, c.data(), radius, norm, &part_kernel,
                                   &part_stats);
      }
      EXPECT_EQ(part_rows, block_rows) << index->name() << " p=" << norm.p();
      EXPECT_EQ(part_stats.tuples_examined, block_stats.tuples_examined);
      EXPECT_EQ(part_stats.tuples_matched, block_stats.tuples_matched);
    }
  }
}

// ---------- Contained subtrees: summaries ≡ brute force, same counters ----

TEST_P(BlockRowEquivalenceTest, SummariesMatchBruteForceUpToCoveringBalls) {
  const size_t d = static_cast<size_t>(std::get<0>(GetParam()));
  const storage::LpNorm norm(std::get<1>(GetParam()));
  storage::Table table = MakeTable(d, 5000, 91 + d);
  storage::KdTree tree(table, 16);
  const double dd = static_cast<double>(d);

  util::Rng rng(13 * d + 5);
  // Centers sit within 0.1 of the unit cube, whose L1 diameter is d, so the
  // last radii cover the whole table under every norm.
  for (double radius : {0.05, 0.2, 0.6, 1.5, 0.5 * dd + 1.0, 2.0 * dd}) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> c(d);
      for (auto& v : c) v = rng.Uniform(-0.1, 1.1);
      const std::vector<Row> want = BruteForceRows(table, c.data(), radius, norm);
      double want_sum = 0.0, want_abs = 0.0, want_sq = 0.0;
      for (const Row& r : want) {
        want_sum += r.u;
        want_abs += std::fabs(r.u);
        want_sq += r.u * r.u;
      }

      SumBlockKernel sum;
      CountingKernel counting;
      std::vector<Row> rows;
      CollectRowsKernel collect(&rows, d);
      storage::SelectionStats sum_stats, counting_stats, row_stats;
      tree.BlockVisit(c.data(), radius, norm, &sum, &sum_stats);
      tree.BlockVisit(c.data(), radius, norm, &counting, &counting_stats);
      tree.BlockVisit(c.data(), radius, norm, &collect, &row_stats);

      const auto n = static_cast<int64_t>(want.size());
      const std::string where = "p=" + std::to_string(norm.p()) +
                                " radius=" + std::to_string(radius);
      EXPECT_EQ(SortedById(rows), want) << where;
      EXPECT_EQ(sum.count(), n) << where;
      EXPECT_EQ(counting.rows, n) << where;
      EXPECT_NEAR(sum.sum(), want_sum, 1e-12 * want_abs) << where;
      EXPECT_NEAR(counting.sum_u.value(), want_sum, 1e-12 * want_abs) << where;
      EXPECT_NEAR(counting.sum_u2.value(), want_sq, 1e-12 * want_sq) << where;
      // Summaries skip the filter, not the accounting.
      EXPECT_EQ(sum_stats.tuples_examined, row_stats.tuples_examined) << where;
      EXPECT_EQ(sum_stats.tuples_matched, row_stats.tuples_matched) << where;
      EXPECT_EQ(counting_stats.tuples_examined, row_stats.tuples_examined);
      EXPECT_EQ(counting_stats.tuples_matched, row_stats.tuples_matched);
      EXPECT_EQ(row_stats.tuples_matched, n) << where;
    }
  }
}

TEST_P(BlockRowEquivalenceTest, KnifeEdgeRadiiAtTheFarthestCorner) {
  const size_t d = static_cast<size_t>(std::get<0>(GetParam()));
  const storage::LpNorm norm(std::get<1>(GetParam()));
  storage::Table table = MakeTable(d, 5000, 91 + d);
  storage::KdTree tree(table, 16);
  const storage::BlockFilter filter = storage::SelectBlockFilter(norm, d);
  auto accepts = [&](const double* x, const double* c, double radius) {
    int32_t sel;
    double scratch;
    return filter.Run(x, 1, d, c, radius, &sel, &scratch) == 1;
  };
  // The root's box is the table's feature range.
  std::vector<double> lo, hi;
  table.FeatureRanges(&lo, &hi);

  util::Rng rng(29 * d + 3);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<double> c(d), corner(d);
    for (size_t j = 0; j < d; ++j) {
      c[j] = rng.Uniform(-0.1, 1.1);
      corner[j] = std::fabs(hi[j] - c[j]) > std::fabs(lo[j] - c[j]) ? hi[j] : lo[j];
    }
    // The smallest radius the filter accepts the corner at.
    double edge = norm.Distance(corner.data(), c.data(), d);
    while (!accepts(corner.data(), c.data(), edge)) {
      edge = std::nextafter(edge, storage::LpNorm::kInf);
    }
    while (accepts(corner.data(), c.data(), std::nextafter(edge, 0.0))) {
      edge = std::nextafter(edge, 0.0);
    }
    const double below = std::nextafter(edge, 0.0);
    for (double radius : {edge, below}) {
      const std::vector<Row> want = BruteForceRows(table, c.data(), radius, norm);
      std::vector<Row> rows;
      CollectRowsKernel collect(&rows, d);
      tree.BlockVisit(c.data(), radius, norm, &collect, nullptr);
      EXPECT_EQ(SortedById(rows), want) << "p=" << norm.p() << " trial " << trial;

      CountingKernel counting;
      storage::SelectionStats stats;
      tree.BlockVisit(c.data(), radius, norm, &counting, &stats);
      EXPECT_EQ(counting.rows, static_cast<int64_t>(want.size()));
      EXPECT_EQ(stats.tuples_matched, static_cast<int64_t>(want.size()));
      // At the edge the whole root is one summary; just below it is not.
      EXPECT_EQ(counting.largest == table.num_rows(), radius == edge)
          << "p=" << norm.p() << " trial " << trial;
    }
    // Soundness: an accepted corner means every row is accepted.
    EXPECT_EQ(BruteForceRows(table, c.data(), edge, norm).size(),
              static_cast<size_t>(table.num_rows()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockRowEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 6, 12),
                       ::testing::Values(1.0, 2.0, 3.0, storage::LpNorm::kInf)));

// ---------- Contained subtrees: when summaries are (not) used ----------

TEST(KdTreeSummaryTest, CoveringBallSummarizesTinyBallDoesNot) {
  storage::Table table = MakeTable(2, 4000, 77);
  storage::KdTree tree(table, 16);
  const storage::LpNorm l2 = storage::LpNorm::L2();

  const double center[2] = {0.5, 0.5};
  CountingKernel covering;
  tree.BlockVisit(center, 10.0, l2, &covering, nullptr);
  EXPECT_GE(covering.summaries, 1);
  EXPECT_EQ(covering.rows, table.num_rows());

  // A ball around one row, far smaller than any leaf's box.
  const double* row = table.x(123);
  CountingKernel tiny;
  tree.BlockVisit(row, 1e-9, l2, &tiny, nullptr);
  EXPECT_EQ(tiny.summaries, 0);
  EXPECT_EQ(tiny.rows,
            static_cast<int64_t>(BruteForceRows(table, row, 1e-9, l2).size()));
  EXPECT_GE(tiny.rows, 1);
}

TEST(KdTreeSummaryTest, NonFiniteRowsAreNeverSummarized) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t d : {2u, 6u}) {
    storage::Table table(d);
    util::Rng rng(41 + d);
    std::vector<double> x(d);
    for (int64_t i = 0; i < 3000; ++i) {
      for (size_t j = 0; j < d; ++j) x[j] = rng.Uniform(0, 1);
      // Every 500th row, row 0 first, carries one non-finite feature:
      // NaN, +inf and -inf in turn.
      if (i % 500 == 0) {
        const double bad[3] = {nan, inf, -inf};
        x[static_cast<size_t>(i / 500) % d] = bad[(i / 500) % 3];
      }
      table.AppendUnchecked(x.data(), rng.Uniform(-2, 2));
    }
    storage::KdTree tree(table, 16);
    for (double p : {1.0, 2.0, 3.0, storage::LpNorm::kInf}) {
      const storage::LpNorm norm(p);
      for (double radius : {0.3, 0.9, 4.0 * static_cast<double>(d)}) {
        std::vector<double> c(d);
        for (auto& v : c) v = rng.Uniform(0, 1);
        const std::vector<Row> want =
            BruteForceFilterRows(table, c.data(), radius, norm);
        std::vector<Row> rows;
        CollectRowsKernel collect(&rows, d);
        tree.BlockVisit(c.data(), radius, norm, &collect, nullptr);
        // Compare ids: Row::operator== fails on NaN features.
        ASSERT_EQ(rows.size(), want.size()) << "d=" << d << " p=" << p;
        const std::vector<Row> got = SortedById(rows);
        for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i].id, want[i].id);

        SumBlockKernel sum;
        storage::SelectionStats stats;
        tree.BlockVisit(c.data(), radius, norm, &sum, &stats);
        EXPECT_EQ(sum.count(), static_cast<int64_t>(want.size()));
        EXPECT_EQ(stats.tuples_matched, static_cast<int64_t>(want.size()));
        EXPECT_TRUE(std::isfinite(sum.sum()));
      }
    }
  }
}

TEST(KdTreeSummaryTest, DegenerateTables) {
  for (double p : {1.0, 2.0, 3.0, storage::LpNorm::kInf}) {
    const storage::LpNorm norm(p);

    // All rows identical: one unsplittable leaf, contained at radius 0.
    storage::Table same(3);
    const double point[3] = {0.3, 0.7, 0.1};
    double want_sum = 0.0, want_sq = 0.0;
    for (int i = 0; i < 200; ++i) {
      const double u = 0.01 * i - 1.0;
      same.AppendUnchecked(point, u);
      want_sum += u;
      want_sq += u * u;
    }
    storage::KdTree same_tree(same, 16);
    EXPECT_EQ(same_tree.num_nodes(), 1);
    CountingKernel counting;
    same_tree.BlockVisit(point, 0.0, norm, &counting, nullptr);
    EXPECT_EQ(counting.summaries, 1);
    EXPECT_EQ(counting.rows, 200);
    EXPECT_NEAR(counting.sum_u2.value(), want_sq, 1e-12 * want_sq);
    EXPECT_NEAR(counting.sum_u.value(), want_sum, 1e-12 * 200.0);
    const double away[3] = {0.9, 0.9, 0.9};
    SumBlockKernel none;
    same_tree.BlockVisit(away, 0.1, norm, &none, nullptr);
    EXPECT_EQ(none.count(), 0);

    // One row.
    storage::Table one(2);
    const double x[2] = {0.25, 0.5};
    one.AppendUnchecked(x, 4.0);
    storage::KdTree one_tree(one, 16);
    SumBlockKernel sum;
    storage::SelectionStats stats;
    one_tree.BlockVisit(x, 0.5, norm, &sum, &stats);
    EXPECT_EQ(sum.count(), 1);
    EXPECT_EQ(sum.sum(), 4.0);
    EXPECT_EQ(stats.tuples_examined, 1);
    const double far[2] = {3.0, 3.0};
    SumBlockKernel miss;
    one_tree.BlockVisit(far, 0.5, norm, &miss, nullptr);
    EXPECT_EQ(miss.count(), 0);

    // Empty.
    storage::Table empty(2);
    storage::KdTree empty_tree(empty, 16);
    CountingKernel nothing;
    storage::SelectionStats empty_stats;
    empty_tree.BlockVisit(x, 10.0, norm, &nothing, &empty_stats);
    EXPECT_EQ(nothing.rows + nothing.summaries, 0);
    EXPECT_EQ(empty_stats.tuples_examined, 0);
    EXPECT_TRUE(empty_tree.MakePartitions(4).empty());
  }
}

// ---------- Branch-free filter agrees with Within, row by row ----------

TEST(BlockFilterTest, MatchesWithinPerRow) {
  util::Rng rng(133);
  for (size_t d : {1u, 2u, 5u, 9u, 13u}) {
    storage::Table table = MakeTable(d, 700, 17 * d);
    for (double p : {1.0, 2.0, 2.5, storage::LpNorm::kInf}) {
      const storage::LpNorm norm(p);
      const storage::BlockFilter filter = storage::SelectBlockFilter(norm, d);
      std::vector<double> c(d);
      for (auto& v : c) v = rng.Uniform(0, 1);
      const double radius = rng.Uniform(0.1, 0.8);

      double scratch[storage::kScanBlockRows];
      int32_t sel[storage::kScanBlockRows];
      const int64_t n = table.num_rows();
      for (int64_t b = 0; b < n; b += storage::kScanBlockRows) {
        const int32_t rows = static_cast<int32_t>(
            std::min<int64_t>(storage::kScanBlockRows, n - b));
        const int32_t count =
            filter.Run(table.x(b), rows, d, c.data(), radius, sel, scratch);
        std::vector<bool> selected(static_cast<size_t>(rows), false);
        for (int32_t k = 0; k < count; ++k) {
          ASSERT_GE(sel[k], 0);
          ASSERT_LT(sel[k], rows);
          if (k > 0) {
            EXPECT_LT(sel[k - 1], sel[k]);  // Ascending lanes.
          }
          selected[static_cast<size_t>(sel[k])] = true;
        }
        for (int32_t lane = 0; lane < rows; ++lane) {
          EXPECT_EQ(selected[static_cast<size_t>(lane)],
                    norm.Within(table.x(b + lane), c.data(), d, radius))
              << "d=" << d << " p=" << p << " row=" << b + lane;
        }
      }
    }
  }
}

// ---------- Engine block kernels: determinism across thread counts ----------

TEST(BlockKernelEngineTest, BitForBitAcrossThreadCountsAndSerial) {
  storage::Table table = MakeTable(3, 12000, 5);
  storage::ScanIndex scan(table);
  storage::KdTree tree(table, 32);

  for (const storage::SpatialIndex* index :
       {static_cast<const storage::SpatialIndex*>(&scan),
        static_cast<const storage::SpatialIndex*>(&tree)}) {
    ParallelOptions inline_par;
    inline_par.target_partitions = 12;
    ExactEngine inline_engine(table, *index, storage::LpNorm::L2(), inline_par);

    const Query q({0.4, 0.6, 0.5}, 0.35);
    const auto want_mean = inline_engine.MeanValue(q);
    const auto want_fit = inline_engine.Regression(q);
    const auto want_ids = inline_engine.Select(q).value();
    ASSERT_TRUE(want_mean.ok());

    for (size_t threads : {1u, 2u, 8u}) {
      util::ThreadPool pool(threads);
      ParallelOptions par;
      par.pool = &pool;
      par.target_partitions = 12;
      ExactEngine engine(table, *index, storage::LpNorm::L2(), par);

      EXPECT_EQ(engine.MeanValue(q)->mean, want_mean->mean) << index->name();
      EXPECT_EQ(engine.MeanValue(q)->count, want_mean->count);
      EXPECT_EQ(engine.Regression(q)->intercept, want_fit->intercept);
      EXPECT_EQ(engine.Regression(q)->slope, want_fit->slope);
      EXPECT_EQ(engine.Select(q).value(), want_ids);
    }

    // An engine without options runs the default plan, here one partition:
    // a different plan shape, so equal within reassociation tolerance, with
    // exact integer counts and the same id order.
    ExactEngine serial(table, *index);
    ASSERT_EQ(serial.PartitionPlan().size(), 1u);
    const auto serial_mean = serial.MeanValue(q);
    ASSERT_TRUE(serial_mean.ok());
    EXPECT_EQ(serial_mean->count, want_mean->count);
    EXPECT_NEAR(serial_mean->mean, want_mean->mean,
                1e-12 * std::max(1.0, std::fabs(want_mean->mean)));
    EXPECT_EQ(serial.Select(q).value(), want_ids);
  }
}

// ---------- Mid-scan ExecControl trip over block kernels ----------

TEST(BlockKernelEngineTest, MidScanTripLeavesConsistentChunkAccounting) {
  storage::Table table = MakeTable(2, 8000, 29);
  storage::ScanIndex scan(table);
  ParallelOptions par;
  par.target_partitions = 8;
  ExactEngine engine(table, scan, storage::LpNorm::L2(), par);

  const Query q({0.5, 0.5}, 10.0);  // All-covering: every chunk has work.

  util::CancellationToken token = util::CancellationToken::Cancellable();
  util::ExecControl control;
  control.cancel = token;
  control.on_chunk_for_testing = [&token](size_t chunk) {
    if (chunk == 3) token.Cancel();
  };

  ExecStats stats;
  const auto r = engine.MeanValue(q, &stats, &control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(stats.chunks_total, 8);
  EXPECT_LT(stats.chunks_completed, stats.chunks_total);
  EXPECT_EQ(stats.chunks_completed, 3);  // Chunks 0..2 ran; 3 tripped.
  // Partial tuple counters reflect exactly the completed chunks' blocks.
  EXPECT_GT(stats.tuples_examined, 0);
  EXPECT_EQ(stats.tuples_examined, stats.tuples_matched);  // θ covers all.

  // Same trip through Select: partial ids are discarded, stats consistent.
  util::CancellationToken token2 = util::CancellationToken::Cancellable();
  util::ExecControl control2;
  control2.cancel = token2;
  control2.on_chunk_for_testing = [&token2](size_t chunk) {
    if (chunk == 2) token2.Cancel();
  };
  ExecStats sel_stats;
  const auto ids = engine.Select(q, &sel_stats, &control2);
  ASSERT_FALSE(ids.ok());
  EXPECT_EQ(ids.status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(sel_stats.chunks_completed, 2);
  EXPECT_EQ(sel_stats.chunks_total, 8);
}

// ---------- KahanSum ----------

TEST(KahanSumTest, CompensatesWhereNaiveSumLoses) {
  // 1e16 + 1.0 is absorbed by a naive double sum; Kahan carries it.
  KahanSum kahan;
  double naive = 0.0;
  kahan.Add(1e16);
  naive += 1e16;
  for (int i = 0; i < 10; ++i) {
    kahan.Add(1.0);
    naive += 1.0;
  }
  kahan.Add(-1e16);
  naive += -1e16;
  EXPECT_EQ(kahan.value(), 10.0);
  EXPECT_NE(naive, 10.0);  // The naive stream lost the units.
}

}  // namespace
}  // namespace query
}  // namespace qreg
