// Tests for the block-at-a-time scan pipeline:
//   - BlockVisit selects exactly the rows of a brute-force LpNorm::Within
//     loop over the Table, for all norms × both access paths (the scan in
//     row order with tuples_examined == n, the k-d tree as the same row
//     set), and a partitioned visit reproduces the whole visit's order and
//     SelectionStats;
//   - the engine's block-kernel answers stay bit-for-bit identical across
//     thread counts and survive a mid-scan ExecControl trip with consistent
//     partial-work accounting;
//   - KahanSum compensates where a naive stream loses precision;
//   - the branch-free filters agree with LpNorm::Within row-by-row.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockRowEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 6, 12),
                       ::testing::Values(1.0, 2.0, 3.0, storage::LpNorm::kInf)));

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
          if (k > 0) EXPECT_LT(sel[k - 1], sel[k]);  // Ascending lanes.
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
    ExactEngine inline_engine(table, *index);
    ParallelOptions inline_par;
    inline_par.target_partitions = 12;
    inline_engine.set_parallel(inline_par);

    const Query q({0.4, 0.6, 0.5}, 0.35);
    const auto want_mean = inline_engine.MeanValue(q);
    const auto want_mom = inline_engine.Moments(q);
    const auto want_fit = inline_engine.Regression(q);
    const auto want_ids = inline_engine.Select(q).value();
    ASSERT_TRUE(want_mean.ok());

    for (size_t threads : {1u, 2u, 8u}) {
      util::ThreadPool pool(threads);
      ExactEngine engine(table, *index);
      ParallelOptions par;
      par.pool = &pool;
      par.target_partitions = 12;
      engine.set_parallel(par);

      EXPECT_EQ(engine.MeanValue(q)->mean, want_mean->mean) << index->name();
      EXPECT_EQ(engine.MeanValue(q)->count, want_mean->count);
      EXPECT_EQ(engine.Moments(q)->second_moment, want_mom->second_moment);
      EXPECT_EQ(engine.Moments(q)->variance, want_mom->variance);
      EXPECT_EQ(engine.Regression(q)->intercept, want_fit->intercept);
      EXPECT_EQ(engine.Regression(q)->slope, want_fit->slope);
      EXPECT_EQ(engine.Select(q).value(), want_ids);
    }

    // The serial whole-scan path (no parallel options) runs one continuous
    // compensated stream instead of the partitioned merge: equal within
    // reassociation tolerance, with exact integer counts.
    ExactEngine serial(table, *index);
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
  ExactEngine engine(table, scan);
  ParallelOptions par;
  par.target_partitions = 8;
  engine.set_parallel(par);

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
