// Tests for the partitioned parallel exact engine:
//   - partition plans are disjoint, exhaustive, and visit-equivalent to a
//     whole BlockVisit on both access paths;
//   - a one-partition plan merged into the zeroed result reproduces the
//     serial scan bit for bit;
//   - parallel Q1/Q2/moments/select answers are bit-for-bit identical
//     across every thread count (including the 0-worker inline mode);
//   - parallel answers agree with the classic one-pass sequential engine
//     up to floating-point reassociation, with exact integer counts;
//   - nested use on an already-busy shared pool completes (no deadlock).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "query/exact_engine.h"
#include "query/scan_kernels.h"
#include "query/workload.h"
#include "storage/kdtree.h"
#include "storage/scan_index.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace qreg {
namespace query {
namespace {

constexpr int64_t kRows = 20000;  // Row count of SharedParallelFixture.

// Fixture and query stream live in test_support.h, shared with
// service_test.cc and lifecycle_test.cc.
using Fixture = testsupport::EngineFixture;

Fixture* SharedFixture() { return testsupport::SharedParallelFixture(); }

std::vector<Query> TestQueries(int64_t n, uint64_t seed) {
  return testsupport::ParallelTestQueries(n, seed);
}

std::vector<const storage::SpatialIndex*> BothIndexes() {
  Fixture* f = SharedFixture();
  return {f->scan.get(), f->kdtree.get()};
}

// ---------- Partition plans ----------

TEST(PartitionPlanTest, CoversAllRowsDisjointly) {
  for (const storage::SpatialIndex* index : BothIndexes()) {
    for (size_t target : {1u, 3u, 8u, 64u}) {
      const auto plan = index->MakePartitions(target);
      ASSERT_GE(plan.size(), 1u) << index->name();
      EXPECT_LE(plan.size(), static_cast<size_t>(kRows));
      // Visiting every partition with an all-covering ball yields each row
      // exactly once.
      const double center[2] = {0.5, 0.5};
      CollectIdsBlockKernel collect;
      storage::SelectionStats stats;
      for (const auto& part : plan) {
        index->BlockVisitPartition(part, center, /*radius=*/100.0,
                                   storage::LpNorm::L2(), &collect, &stats);
      }
      std::vector<int64_t> seen = collect.TakeIds();
      ASSERT_EQ(seen.size(), static_cast<size_t>(kRows))
          << index->name() << " target=" << target;
      std::sort(seen.begin(), seen.end());
      for (int64_t i = 0; i < kRows; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
      EXPECT_EQ(stats.tuples_matched, kRows);
    }
  }
}

TEST(PartitionPlanTest, IsDeterministic) {
  for (const storage::SpatialIndex* index : BothIndexes()) {
    const auto a = index->MakePartitions(16);
    const auto b = index->MakePartitions(16);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].begin, b[i].begin);
      EXPECT_EQ(a[i].end, b[i].end);
      EXPECT_EQ(a[i].node, b[i].node);
    }
  }
}

TEST(PartitionPlanTest, PartitionedVisitMatchesWholeVisit) {
  for (const storage::SpatialIndex* index : BothIndexes()) {
    for (const Query& q : TestQueries(20, 31)) {
      storage::SelectionStats full_stats;
      std::vector<int64_t> full =
          index->RadiusSearch(q.center.data(), q.theta, storage::LpNorm::L2(),
                              &full_stats);

      CollectIdsBlockKernel collect;
      storage::SelectionStats part_stats;
      for (const auto& part : index->MakePartitions(16)) {
        index->BlockVisitPartition(part, q.center.data(), q.theta,
                                   storage::LpNorm::L2(), &collect,
                                   &part_stats);
      }
      EXPECT_EQ(collect.TakeIds(), full) << index->name();  // Order included.
      EXPECT_EQ(part_stats.tuples_examined, full_stats.tuples_examined);
      EXPECT_EQ(part_stats.tuples_matched, full_stats.tuples_matched);
    }
  }
}

// ---------- Bit-for-bit determinism across thread counts ----------

struct AllAnswers {
  std::vector<util::Result<MeanValueResult>> q1;
  std::vector<util::Result<MomentsResult>> moments;
  std::vector<util::Result<linalg::OlsFit>> q2;
  std::vector<std::vector<int64_t>> select;
};

AllAnswers Collect(const ExactEngine& engine, const std::vector<Query>& qs) {
  AllAnswers out;
  for (const Query& q : qs) {
    out.q1.push_back(engine.MeanValue(q));
    out.moments.push_back(engine.Moments(q));
    out.q2.push_back(engine.Regression(q));
    out.select.push_back(engine.Select(q).value());
  }
  return out;
}

void ExpectBitwiseEqual(const AllAnswers& a, const AllAnswers& b) {
  ASSERT_EQ(a.q1.size(), b.q1.size());
  for (size_t i = 0; i < a.q1.size(); ++i) {
    ASSERT_EQ(a.q1[i].ok(), b.q1[i].ok()) << "q1 " << i;
    if (a.q1[i].ok()) {
      EXPECT_EQ(a.q1[i]->mean, b.q1[i]->mean) << "q1 " << i;
      EXPECT_EQ(a.q1[i]->count, b.q1[i]->count) << "q1 " << i;
    }
    ASSERT_EQ(a.moments[i].ok(), b.moments[i].ok()) << "moments " << i;
    if (a.moments[i].ok()) {
      EXPECT_EQ(a.moments[i]->mean, b.moments[i]->mean);
      EXPECT_EQ(a.moments[i]->second_moment, b.moments[i]->second_moment);
      EXPECT_EQ(a.moments[i]->variance, b.moments[i]->variance);
    }
    ASSERT_EQ(a.q2[i].ok(), b.q2[i].ok()) << "q2 " << i;
    if (a.q2[i].ok()) {
      EXPECT_EQ(a.q2[i]->intercept, b.q2[i]->intercept) << "q2 " << i;
      EXPECT_EQ(a.q2[i]->slope, b.q2[i]->slope) << "q2 " << i;
    }
    EXPECT_EQ(a.select[i], b.select[i]) << "select " << i;
  }
}

TEST(ParallelExactTest, BitForBitIdenticalAcrossThreadCounts) {
  Fixture* f = SharedFixture();
  const std::vector<Query> qs = TestQueries(25, 47);

  for (const storage::SpatialIndex* index :
       {static_cast<const storage::SpatialIndex*>(f->scan.get()),
        static_cast<const storage::SpatialIndex*>(f->kdtree.get())}) {
    // Baseline: the partitioned reduction run inline (no pool at all).
    ExactEngine inline_engine(f->dataset->table, *index);
    ParallelOptions inline_par;
    inline_par.target_partitions = 16;
    inline_engine.set_parallel(inline_par);
    const AllAnswers want = Collect(inline_engine, qs);

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      util::ThreadPool pool(threads);
      ExactEngine engine(f->dataset->table, *index);
      ParallelOptions par;
      par.pool = &pool;
      par.target_partitions = 16;
      engine.set_parallel(par);
      ExpectBitwiseEqual(want, Collect(engine, qs));
    }
  }
}

// ---------- Reduce's merge: one partition == the serial scan ----------

TEST(ParallelExactTest, OnePartitionMergeMatchesSerialBitForBit) {
  // A one-partition plan takes the partitioned branch of Reduce (copy
  // of the zeroed state, BlockVisitPartition, merge into the zeroed total)
  // over exactly the rows of the serial BlockVisit, so every answer and
  // tuple counter must agree to the bit.
  Fixture* f = SharedFixture();
  const std::vector<Query> qs = TestQueries(25, 59);
  for (const storage::SpatialIndex* index : BothIndexes()) {
    ExactEngine serial(f->dataset->table, *index);
    ExactEngine one_part(f->dataset->table, *index);
    ParallelOptions par;
    par.target_partitions = 1;
    one_part.set_parallel(par);
    ASSERT_EQ(one_part.PartitionPlan().size(), 1u) << index->name();

    ExpectBitwiseEqual(Collect(serial, qs), Collect(one_part, qs));
    for (const Query& q : qs) {
      ExecStats stats[2][4];  // [serial, one_part] × [Q1, moments, Q2, select]
      const ExactEngine* engines[2] = {&serial, &one_part};
      for (int e = 0; e < 2; ++e) {
        (void)engines[e]->MeanValue(q, &stats[e][0]);
        (void)engines[e]->Moments(q, &stats[e][1]);
        (void)engines[e]->Regression(q, &stats[e][2]);
        (void)engines[e]->Select(q, &stats[e][3]);
      }
      for (int op = 0; op < 4; ++op) {
        EXPECT_EQ(stats[0][op].tuples_examined, stats[1][op].tuples_examined)
            << index->name() << " op " << op;
        EXPECT_EQ(stats[0][op].tuples_matched, stats[1][op].tuples_matched)
            << index->name() << " op " << op;
        EXPECT_EQ(stats[0][op].chunks_total, 0);
        EXPECT_EQ(stats[1][op].chunks_total, 1);
        EXPECT_EQ(stats[1][op].chunks_completed, 1);
      }
    }
  }
}

// ---------- Agreement with the classic sequential engine ----------

TEST(ParallelExactTest, MatchesSequentialEngine) {
  Fixture* f = SharedFixture();
  util::ThreadPool pool(4);

  ExactEngine sequential(f->dataset->table, *f->kdtree);
  ExactEngine parallel(f->dataset->table, *f->kdtree);
  ParallelOptions par;
  par.pool = &pool;
  parallel.set_parallel(par);

  int64_t nonempty = 0;
  for (const Query& q : TestQueries(40, 53)) {
    ExecStats seq_stats, par_stats;
    auto want = sequential.MeanValue(q, &seq_stats);
    auto got = parallel.MeanValue(q, &par_stats);
    ASSERT_EQ(want.ok(), got.ok());
    EXPECT_EQ(seq_stats.tuples_examined, par_stats.tuples_examined);
    EXPECT_EQ(seq_stats.tuples_matched, par_stats.tuples_matched);
    if (!want.ok()) continue;
    ++nonempty;
    EXPECT_EQ(want->count, got->count);  // Integer: exact.
    EXPECT_NEAR(want->mean, got->mean,
                1e-9 * std::max(1.0, std::fabs(want->mean)));

    auto want_fit = sequential.Regression(q);
    auto got_fit = parallel.Regression(q);
    ASSERT_EQ(want_fit.ok(), got_fit.ok());
    if (!want_fit.ok()) continue;
    EXPECT_NEAR(want_fit->intercept, got_fit->intercept,
                1e-8 * std::max(1.0, std::fabs(want_fit->intercept)));
    ASSERT_EQ(want_fit->slope.size(), got_fit->slope.size());
    for (size_t j = 0; j < want_fit->slope.size(); ++j) {
      EXPECT_NEAR(want_fit->slope[j], got_fit->slope[j],
                  1e-8 * std::max(1.0, std::fabs(want_fit->slope[j])));
    }
    // Select: the plan order reproduces the sequential visit order exactly.
    EXPECT_EQ(sequential.Select(q).value(), parallel.Select(q).value());
  }
  EXPECT_GT(nonempty, 10);
}

TEST(ParallelExactTest, EmptySubspaceIsNotFound) {
  Fixture* f = SharedFixture();
  util::ThreadPool pool(2);
  ExactEngine engine(f->dataset->table, *f->kdtree);
  ParallelOptions par;
  par.pool = &pool;
  engine.set_parallel(par);

  const Query far_away({50.0, 50.0}, 0.01);
  EXPECT_EQ(engine.MeanValue(far_away).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(engine.Moments(far_away).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(engine.Regression(far_away).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_TRUE(engine.Select(far_away).value().empty());
}

// ---------- Shared-pool nesting ----------

TEST(ParallelExactTest, NestedOnSharedPoolCompletes) {
  // Queries running *on* the pool they also fan chunks out to: TrySubmit
  // falls back to caller-runs-chunks, so this must terminate and agree with
  // the inline baseline.
  Fixture* f = SharedFixture();
  const std::vector<Query> qs = TestQueries(12, 61);

  ExactEngine inline_engine(f->dataset->table, *f->scan);
  ParallelOptions inline_par;
  inline_par.target_partitions = 8;
  inline_engine.set_parallel(inline_par);

  util::ThreadPool pool(2, /*queue_capacity=*/4);
  ExactEngine engine(f->dataset->table, *f->scan);
  ParallelOptions par;
  par.pool = &pool;
  par.target_partitions = 8;
  engine.set_parallel(par);

  std::vector<double> means(qs.size(), 0.0);
  util::BlockingCounter done(static_cast<int64_t>(qs.size()));
  for (size_t i = 0; i < qs.size(); ++i) {
    pool.Submit([&engine, &qs, &means, &done, i] {
      auto r = engine.MeanValue(qs[i]);
      means[i] = r.ok() ? r->mean : std::nan("");
      done.DecrementCount();
    });
  }
  done.Wait();
  for (size_t i = 0; i < qs.size(); ++i) {
    auto want = inline_engine.MeanValue(qs[i]);
    if (want.ok()) {
      EXPECT_EQ(means[i], want->mean) << i;  // Bit-for-bit, even nested.
    } else {
      EXPECT_TRUE(std::isnan(means[i])) << i;
    }
  }
}

}  // namespace
}  // namespace query
}  // namespace qreg
