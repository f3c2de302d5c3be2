// Tests for the partitioned parallel exact engine:
//   - partition plans are disjoint, exhaustive, and visit-equivalent to a
//     whole BlockVisit on both access paths;
//   - a one-partition plan merged into the zeroed result reproduces one
//     kernel fed straight by BlockVisit, bit for bit;
//   - Q1/Q2/select answers are bit-for-bit identical across every
//     thread count (including the 0-worker inline mode), with or without
//     an ExecControl to honor;
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
#include "util/cancellation.h"
#include "util/run_chunks.h"
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
      CollectIdsBlockKernel whole;
      storage::SelectionStats full_stats;
      index->BlockVisit(q.center.data(), q.theta, storage::LpNorm::L2(),
                        &whole, &full_stats);
      const std::vector<int64_t> full = whole.TakeIds();

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
  std::vector<util::Result<linalg::OlsFit>> q2;
  std::vector<std::vector<int64_t>> select;
};

AllAnswers Collect(const ExactEngine& engine, const std::vector<Query>& qs,
                   const util::ExecControl* control = nullptr) {
  AllAnswers out;
  for (const Query& q : qs) {
    out.q1.push_back(engine.MeanValue(q, nullptr, control));
    out.q2.push_back(engine.Regression(q, nullptr, control));
    out.select.push_back(engine.Select(q, nullptr, control).value());
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
    ParallelOptions inline_par;
    inline_par.target_partitions = 16;
    ExactEngine inline_engine(f->dataset->table, *index,
                              storage::LpNorm::L2(), inline_par);
    const AllAnswers want = Collect(inline_engine, qs);

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      util::ThreadPool pool(threads);
      ParallelOptions par;
      par.pool = &pool;
      par.target_partitions = 16;
      ExactEngine engine(f->dataset->table, *index, storage::LpNorm::L2(), par);
      ExpectBitwiseEqual(want, Collect(engine, qs));
    }
  }
}

// ---------- One answer per query ----------

TEST(ParallelExactTest, SameBitsWithoutControlWithFarDeadlineAndWithPool) {
  // Reduce has one path: neither a lifecycle control to honor nor a pool to
  // fan out on may change an answer's bits. The fixture's default plan has
  // several partitions, so a second (one-pass) path would show.
  Fixture* f = SharedFixture();
  const std::vector<Query> qs = TestQueries(40, 67);
  util::ThreadPool pool(3);
  util::ExecControl far;
  far.deadline = util::Deadline::AfterMillis(3600 * 1000);
  ASSERT_TRUE(far.active());
  for (const storage::SpatialIndex* index : BothIndexes()) {
    ExactEngine plain(f->dataset->table, *index);
    ASSERT_GE(plain.PartitionPlan().size(), 2u) << index->name();
    ParallelOptions par;
    par.pool = &pool;
    ExactEngine pooled(f->dataset->table, *index, storage::LpNorm::L2(), par);

    const AllAnswers want = Collect(plain, qs);
    ExpectBitwiseEqual(want, Collect(plain, qs, &far));
    ExpectBitwiseEqual(want, Collect(pooled, qs));
  }
}

// ---------- Reduce's merge: one partition == the serial scan ----------

TEST(ParallelExactTest, OnePartitionMergeMatchesSerialBitForBit) {
  // A one-partition plan copies the zeroed state, visits the one partition
  // and merges the partial into the zeroed total. That must reproduce, to
  // the bit, one kernel fed straight by BlockVisit: a merge into zero is
  // exact.
  Fixture* f = SharedFixture();
  const size_t d = f->dataset->table.dimension();
  const storage::LpNorm norm = storage::LpNorm::L2();
  for (const storage::SpatialIndex* index : BothIndexes()) {
    ParallelOptions par;
    par.target_partitions = 1;
    ExactEngine one_part(f->dataset->table, *index, storage::LpNorm::L2(), par);
    ASSERT_EQ(one_part.PartitionPlan().size(), 1u) << index->name();

    for (const Query& q : TestQueries(25, 59)) {
      SumBlockKernel sum;
      GramBlockKernel gram(d);
      CollectIdsBlockKernel ids;
      storage::SelectionStats sel[3];  // [Q1, Q2, select]
      index->BlockVisit(q.center.data(), q.theta, norm, &sum, &sel[0]);
      index->BlockVisit(q.center.data(), q.theta, norm, &gram, &sel[1]);
      index->BlockVisit(q.center.data(), q.theta, norm, &ids, &sel[2]);

      ExecStats stats[3];
      auto mean = one_part.MeanValue(q, &stats[0]);
      ASSERT_EQ(mean.ok(), sum.count() > 0);
      if (mean.ok()) {
        EXPECT_EQ(mean->mean, sum.sum() / static_cast<double>(sum.count()));
        EXPECT_EQ(mean->count, sum.count());
      }
      auto fit = one_part.Regression(q, &stats[1]);
      if (gram.acc().count() == 0) {
        EXPECT_EQ(fit.status().code(), util::StatusCode::kNotFound);
      } else {
        auto want = gram.acc().Solve();
        ASSERT_EQ(fit.ok(), want.ok());
        if (fit.ok()) {
          EXPECT_EQ(fit->intercept, want->intercept);
          EXPECT_EQ(fit->slope, want->slope);
        }
      }
      EXPECT_EQ(one_part.Select(q, &stats[2]).value(), ids.TakeIds());

      for (int op = 0; op < 3; ++op) {
        EXPECT_EQ(stats[op].tuples_examined, sel[op].tuples_examined)
            << index->name() << " op " << op;
        EXPECT_EQ(stats[op].tuples_matched, sel[op].tuples_matched)
            << index->name() << " op " << op;
        EXPECT_EQ(stats[op].chunks_total, 1);
        EXPECT_EQ(stats[op].chunks_completed, 1);
      }
    }
  }
}

// ---------- A pool never changes an answer ----------

TEST(ParallelExactTest, MatchesSequentialEngine) {
  Fixture* f = SharedFixture();
  util::ThreadPool pool(4);

  ExactEngine sequential(f->dataset->table, *f->kdtree);
  ParallelOptions par;
  par.pool = &pool;
  ExactEngine parallel(f->dataset->table, *f->kdtree,
                       storage::LpNorm::L2(), par);

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
    EXPECT_EQ(want->count, got->count);
    EXPECT_EQ(want->mean, got->mean);

    auto want_fit = sequential.Regression(q);
    auto got_fit = parallel.Regression(q);
    ASSERT_EQ(want_fit.ok(), got_fit.ok());
    if (!want_fit.ok()) continue;
    EXPECT_EQ(want_fit->intercept, got_fit->intercept);
    EXPECT_EQ(want_fit->slope, got_fit->slope);
    // Select: the plan order reproduces the sequential visit order exactly.
    EXPECT_EQ(sequential.Select(q).value(), parallel.Select(q).value());
  }
  EXPECT_GT(nonempty, 10);
}

TEST(ParallelExactTest, EmptySubspaceIsNotFound) {
  Fixture* f = SharedFixture();
  util::ThreadPool pool(2);
  ParallelOptions par;
  par.pool = &pool;
  ExactEngine engine(f->dataset->table, *f->kdtree, storage::LpNorm::L2(), par);

  const Query far_away({50.0, 50.0}, 0.01);
  EXPECT_EQ(engine.MeanValue(far_away).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(engine.Regression(far_away).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_TRUE(engine.Select(far_away).value().empty());
}

// ---------- Shared-pool nesting ----------

TEST(ParallelExactTest, NestedOnSharedPoolCompletes) {
  // Queries fanned out by RunChunks on the pool their scans also fan chunks
  // out to: TrySubmit falls back to caller-runs-chunks, so this must
  // terminate and agree with the inline baseline.
  Fixture* f = SharedFixture();
  const std::vector<Query> qs = TestQueries(12, 61);

  ParallelOptions inline_par;
  inline_par.target_partitions = 8;
  ExactEngine inline_engine(f->dataset->table, *f->scan,
                            storage::LpNorm::L2(), inline_par);

  util::ThreadPool pool(2, /*queue_capacity=*/4);
  ParallelOptions par;
  par.pool = &pool;
  par.target_partitions = 8;
  ExactEngine engine(f->dataset->table, *f->scan, storage::LpNorm::L2(), par);

  std::vector<double> means(qs.size(), 0.0);
  util::RunChunks(
      &pool, qs.size(),
      [&](size_t i) {
        auto r = engine.MeanValue(qs[i]);
        means[i] = r.ok() ? r->mean : std::nan("");
      },
      nullptr);
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
