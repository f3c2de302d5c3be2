// Deterministic fault-injection tests for the request lifecycle (deadlines,
// cancellation, graceful degradation) and drift-driven retraining:
//
//   - an already-expired deadline returns kDeadlineExceeded without visiting
//     any partition; a mid-scan trip aborts within one chunk-claim with
//     partial-work accounting (FakeClock + blocking gates, no sleeps);
//   - the router degrades exact → model answer (used_fallback) under
//     deadline pressure, prefers the δ-cache over both, and fails with the
//     typed status when no fallback exists; cancellation never degrades;
//   - MaybeRetrain probes drift after an injected distribution shift, swaps
//     the model generation, and generation-tagged cache keys stop every
//     pre-retrain answer from being served;
//   - core/drift.cc edge cases: empty probe window, probe RMSE exactly on
//     the threshold, repeated probes after a retrain reset.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/drift.h"
#include "core/llm_model.h"
#include "core/trainer.h"
#include "query/exact_engine.h"
#include "query/workload.h"
#include "service/model_catalog.h"
#include "service/query_router.h"
#include "storage/scan_index.h"
#include "storage/table.h"
#include "test_support.h"
#include "util/cancellation.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace qreg {
namespace {

using service::AnswerSource;
using service::CatalogOptions;
using service::ModelCatalog;
using service::QueryRouter;
using service::Request;
using service::RouterConfig;
using service::RoutePolicy;
using testsupport::EngineFixture;
using testsupport::FakeClock;
using testsupport::Gate;

// ---------- CancellationToken / Deadline / ExecControl ----------

TEST(LifecycleControlTest, DefaultTokenIsNeverCancelled) {
  util::CancellationToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_FALSE(token.cancelled());
  token.Cancel();  // No-op, not a crash.
  EXPECT_FALSE(token.cancelled());
}

TEST(LifecycleControlTest, CopiesShareCancellationState) {
  util::CancellationToken token = util::CancellationToken::Cancellable();
  util::CancellationToken copy = token;
  EXPECT_TRUE(copy.cancellable());
  EXPECT_FALSE(copy.cancelled());
  token.Cancel();
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(token.cancelled());
}

TEST(LifecycleControlTest, DeadlineExpiresOnInjectedClock) {
  FakeClock clock(1000);
  util::Deadline none;
  EXPECT_TRUE(none.infinite());
  EXPECT_FALSE(none.expired());

  util::Deadline d = util::Deadline::AfterNanos(500, &clock);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
  clock.AdvanceNanos(499);
  EXPECT_FALSE(d.expired());
  clock.AdvanceNanos(1);
  EXPECT_TRUE(d.expired());
}

TEST(LifecycleControlTest, CheckPrefersCancellationOverDeadline) {
  FakeClock clock(100);
  util::ExecControl ctl;
  EXPECT_FALSE(ctl.active());
  ctl.deadline = util::Deadline::AtNanos(50, &clock);  // Already expired.
  ctl.cancel = util::CancellationToken::Cancellable();
  EXPECT_TRUE(ctl.active());
  EXPECT_EQ(ctl.Check().code(), util::StatusCode::kDeadlineExceeded);
  ctl.cancel.Cancel();
  EXPECT_EQ(ctl.Check().code(), util::StatusCode::kCancelled);
}

TEST(LifecycleControlTest, NewStatusCodesRoundTrip) {
  util::Status d = util::Status::DeadlineExceeded("late");
  EXPECT_EQ(d.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.ToString(), "Deadline exceeded: late");
  util::Status c = util::Status::Cancelled("stop");
  EXPECT_EQ(c.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(c.ToString(), "Cancelled: stop");
}

// ---------- Engine-level lifecycle: the partitioned scan ----------

// A scan-index engine over the shared 20000-row dataset, partitioned into 8
// inline chunks (no pool) so chunk order is deterministic: 0, 1, 2, ...
std::unique_ptr<query::ExactEngine> PartitionedScanEngine(size_t partitions = 8) {
  EngineFixture* f = testsupport::SharedParallelFixture();
  query::ParallelOptions par;
  par.target_partitions = partitions;
  return std::make_unique<query::ExactEngine>(
      f->dataset->table, *f->scan, storage::LpNorm::L2(), par);
}

// A ball covering the whole table: every partition has rows to visit.
query::Query CoveringQuery() { return query::Query({0.5, 0.5}, 100.0); }

TEST(LifecycleEngineTest, ExpiredDeadlineReturnsWithoutVisitingAnyPartition) {
  auto engine = PartitionedScanEngine();
  FakeClock clock(100);
  std::atomic<int64_t> chunks_seen{0};
  util::ExecControl ctl;
  ctl.deadline = util::Deadline::AtNanos(50, &clock);  // Expired at admission.
  ctl.on_chunk_for_testing = [&chunks_seen](size_t) { ++chunks_seen; };

  query::ExecStats stats;
  auto mean = engine->MeanValue(CoveringQuery(), &stats, &ctl);
  EXPECT_EQ(mean.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(chunks_seen.load(), 0);  // No partition was even claimed.
  EXPECT_EQ(stats.tuples_examined, 0);
  EXPECT_EQ(stats.chunks_completed, 0);

  EXPECT_EQ(engine->Regression(CoveringQuery(), nullptr, &ctl).status().code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(chunks_seen.load(), 0);
}

TEST(LifecycleEngineTest, DeadlineTripMidScanKeepsPartialWork) {
  auto engine = PartitionedScanEngine(/*partitions=*/8);
  FakeClock clock(0);
  util::ExecControl ctl;
  ctl.deadline = util::Deadline::AtNanos(1000, &clock);
  // The fault injection: the clock jumps past the deadline just before the
  // third chunk's lifecycle check. No sleeps, no timing dependence.
  ctl.on_chunk_for_testing = [&clock](size_t chunk) {
    if (chunk == 2) clock.SetNanos(2000);
  };

  query::ExecStats stats;
  auto mean = engine->MeanValue(CoveringQuery(), &stats, &ctl);
  EXPECT_EQ(mean.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stats.chunks_completed, 2);  // Chunks 0 and 1 ran; 2 aborted.
  EXPECT_EQ(stats.chunks_total, 8);
  // Partial-work accounting: exactly the first two partitions were scanned.
  EXPECT_GT(stats.tuples_examined, 0);
  EXPECT_LT(stats.tuples_examined, 20000);
}

TEST(LifecycleEngineTest, CancellationFromAnotherThreadStopsWithinOneChunk) {
  auto engine = PartitionedScanEngine(/*partitions=*/8);
  util::CancellationToken token = util::CancellationToken::Cancellable();
  Gate scan_reached_second_chunk;
  Gate token_tripped;

  util::ExecControl ctl;
  ctl.cancel = token;
  ctl.on_chunk_for_testing = [&](size_t chunk) {
    if (chunk == 1) {
      // Hand control to the canceller and block until the token has
      // *actually* tripped — the subsequent Check() must observe it.
      scan_reached_second_chunk.Open();
      token_tripped.Wait();
    }
  };

  std::thread canceller([&] {
    scan_reached_second_chunk.Wait();
    token.Cancel();
    token_tripped.Open();
  });

  query::ExecStats stats;
  auto mean = engine->MeanValue(CoveringQuery(), &stats, &ctl);
  canceller.join();

  EXPECT_EQ(mean.status().code(), util::StatusCode::kCancelled);
  // Within one chunk-claim of the trip: chunk 0 completed before the trip,
  // and not a single chunk body ran after it.
  EXPECT_EQ(stats.chunks_completed, 1);
  EXPECT_EQ(stats.chunks_total, 8);
}

TEST(LifecycleEngineTest, PooledScanDrainsWithoutExecutingAfterTrip) {
  // Pool workers and the caller all claim chunks concurrently; the hook
  // trips the token at every claim, so no chunk body may execute and the
  // scan must still terminate (claimed-and-skipped fast drain).
  EngineFixture* f = testsupport::SharedParallelFixture();
  util::ThreadPool pool(4);
  query::ParallelOptions par;
  par.pool = &pool;
  par.target_partitions = 16;
  query::ExactEngine engine(f->dataset->table, *f->scan,
                            storage::LpNorm::L2(), par);

  util::CancellationToken token = util::CancellationToken::Cancellable();
  util::ExecControl ctl;
  ctl.cancel = token;
  ctl.on_chunk_for_testing = [&token](size_t) { token.Cancel(); };

  query::ExecStats stats;
  auto mean = engine.MeanValue(CoveringQuery(), &stats, &ctl);
  EXPECT_EQ(mean.status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(stats.chunks_completed, 0);
  EXPECT_EQ(stats.tuples_examined, 0);
}

TEST(LifecycleEngineTest, BenignControlKeepsAnswersBitForBit) {
  auto engine = PartitionedScanEngine(/*partitions=*/16);
  FakeClock clock(0);
  util::ExecControl ctl;
  ctl.deadline = util::Deadline::AtNanos(1LL << 60, &clock);  // Never trips.
  ctl.cancel = util::CancellationToken::Cancellable();        // Never tripped.
  ASSERT_TRUE(ctl.active());

  for (const query::Query& q : testsupport::ParallelTestQueries(15, 91)) {
    auto plain = engine->MeanValue(q);
    auto guarded = engine->MeanValue(q, nullptr, &ctl);
    ASSERT_EQ(plain.ok(), guarded.ok());
    if (plain.ok()) {
      EXPECT_EQ(plain->mean, guarded->mean);
      EXPECT_EQ(plain->count, guarded->count);
    }
    auto plain_fit = engine->Regression(q);
    auto guarded_fit = engine->Regression(q, nullptr, &ctl);
    ASSERT_EQ(plain_fit.ok(), guarded_fit.ok());
    if (plain_fit.ok()) {
      EXPECT_EQ(plain_fit->intercept, guarded_fit->intercept);
      EXPECT_EQ(plain_fit->slope, guarded_fit->slope);
    }
  }
}

// ---------- Select: the last unbounded engine entry point ----------

TEST(LifecycleEngineTest, SelectExpiredDeadlineReturnsWithoutVisiting) {
  auto engine = PartitionedScanEngine();
  FakeClock clock(100);
  std::atomic<int64_t> chunks_seen{0};
  util::ExecControl ctl;
  ctl.deadline = util::Deadline::AtNanos(50, &clock);  // Expired at admission.
  ctl.on_chunk_for_testing = [&chunks_seen](size_t) { ++chunks_seen; };

  query::ExecStats stats;
  auto ids = engine->Select(CoveringQuery(), &stats, &ctl);
  EXPECT_EQ(ids.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(chunks_seen.load(), 0);
  EXPECT_EQ(stats.tuples_examined, 0);
  EXPECT_EQ(stats.chunks_completed, 0);
}

TEST(LifecycleEngineTest, SelectCancellationFromAnotherThreadTripsWithinOneChunk) {
  // Regression for the parallel Select that used to pass /*control=*/nullptr
  // into RunChunks: a selection scan must trip within one chunk-claim of a
  // cross-thread cancel, exactly like the aggregation scans.
  auto engine = PartitionedScanEngine(/*partitions=*/8);
  util::CancellationToken token = util::CancellationToken::Cancellable();
  Gate scan_reached_second_chunk;
  Gate token_tripped;

  util::ExecControl ctl;
  ctl.cancel = token;
  ctl.on_chunk_for_testing = [&](size_t chunk) {
    if (chunk == 1) {
      scan_reached_second_chunk.Open();
      token_tripped.Wait();
    }
  };

  std::thread canceller([&] {
    scan_reached_second_chunk.Wait();
    token.Cancel();
    token_tripped.Open();
  });

  query::ExecStats stats;
  auto ids = engine->Select(CoveringQuery(), &stats, &ctl);
  canceller.join();

  EXPECT_EQ(ids.status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(stats.chunks_completed, 1);  // Chunk 0 ran; chunk 1 aborted.
  EXPECT_EQ(stats.chunks_total, 8);
}

TEST(LifecycleEngineTest, SelectBenignControlKeepsIdsBitForBit) {
  auto engine = PartitionedScanEngine(/*partitions=*/16);
  util::ExecControl ctl;
  ctl.cancel = util::CancellationToken::Cancellable();  // Never tripped.
  ASSERT_TRUE(ctl.active());
  for (const query::Query& q : testsupport::ParallelTestQueries(10, 97)) {
    auto plain = engine->Select(q);
    auto guarded = engine->Select(q, nullptr, &ctl);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(guarded.ok());
    EXPECT_EQ(plain.value(), guarded.value());  // Order included.
  }
}

// ---------- Router-level lifecycle: degrade-to-model vs shed ----------

TEST(LifecycleRouterTest, CancelledRequestReturnsCancelledAndNeverDegrades) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kHybrid;
  cfg.enable_cache = false;
  QueryRouter router(testsupport::SharedCatalog(), cfg);

  Request r = Request::Q1("r1", query::Query({0.5, 0.5}, 0.12));
  r.cancel = util::CancellationToken::Cancellable();
  r.cancel.Cancel();
  auto got = router.Execute(r);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kCancelled);

  service::ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.degraded, 0);
}

TEST(LifecycleRouterTest, DeadlinePressureDegradesExactToModelAnswer) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kHybrid;
  cfg.enable_cache = false;
  QueryRouter router(testsupport::SharedCatalog(), cfg);

  // Far outside the trained region: hybrid routing picks the exact engine.
  // The deadline is live at admission and trips mid-scan (the chunk hook
  // jumps the clock), so the router degrades to the model's answer.
  FakeClock clock(0);
  Request r = Request::Q1("r1", query::Query({1.5, 1.5}, 1.0));
  r.deadline = util::Deadline::AtNanos(1000, &clock);
  r.on_chunk_for_testing = [&clock](size_t) { clock.SetNanos(2000); };

  auto got = router.Execute(r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->source, AnswerSource::kModel);
  EXPECT_TRUE(got->used_fallback);
  // The killed exact attempt's partial accounting rides on the degraded
  // answer instead of vanishing: the scan was planned but cut short.
  EXPECT_GT(got->exec.chunks_total, 0);
  EXPECT_LT(got->exec.chunks_completed, got->exec.chunks_total);

  service::ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.degraded, 1);
  EXPECT_EQ(stats.deadline_exceeded, 0);  // Degraded, not failed.
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.model_answers, 1);
}

TEST(LifecycleRouterTest, ExactAnswerBitsDoNotDependOnTheDeadline) {
  // With the cache off, an exact-routed request runs the same partitioned
  // scan whether or not it carries a deadline to honor, so the answer's
  // bits match. The dataset's default plan has several partitions.
  EngineFixture* f = testsupport::SharedParallelFixture();
  ASSERT_GE(f->engine->PartitionPlan().size(), 2u);
  ModelCatalog catalog;
  ASSERT_TRUE(catalog
                  .Register("big", &f->dataset->table, f->kdtree.get(),
                            testsupport::DefaultCatalogOptions())
                  .ok());
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;
  cfg.enable_cache = false;
  QueryRouter router(&catalog, cfg);

  for (const query::Query& q : testsupport::ParallelTestQueries(30, 83)) {
    for (const Request& plain : {Request::Q1("big", q), Request::Q2("big", q)}) {
      Request timed = plain;
      timed.deadline = util::Deadline::AfterMillis(3600 * 1000);
      auto want = router.Execute(plain);
      auto got = router.Execute(timed);
      ASSERT_EQ(want.ok(), got.ok());
      if (!want.ok()) continue;
      ASSERT_EQ(want->source, AnswerSource::kExact);
      ASSERT_EQ(got->source, AnswerSource::kExact);
      EXPECT_EQ(want->mean, got->mean);
      ASSERT_EQ(want->pieces.size(), got->pieces.size());
      for (size_t i = 0; i < want->pieces.size(); ++i) {
        EXPECT_EQ(want->pieces[i].intercept, got->pieces[i].intercept);
        EXPECT_EQ(want->pieces[i].slope, got->pieces[i].slope);
      }
    }
  }
}

TEST(LifecycleRouterTest, ExactOnlyDeadlineShedsWithTypedStatus) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;  // No model to degrade to.
  cfg.enable_cache = false;
  QueryRouter router(testsupport::SharedCatalog(), cfg);

  FakeClock clock(1000);
  Request r = Request::Q1("r1", query::Query({0.5, 0.5}, 0.12));
  r.deadline = util::Deadline::AtNanos(500, &clock);

  auto got = router.Execute(r);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);

  service::ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.degraded, 0);
  EXPECT_EQ(stats.errors, 1);
}

TEST(LifecycleRouterTest, LiveDeadlineStillGetsCachedAnswer) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;
  cfg.enable_cache = true;
  cfg.cache.delta_min = 1.0;  // Exact repeats only: deterministic hits.
  QueryRouter router(testsupport::SharedCatalog(), cfg);

  // Warm the cache without any deadline.
  Request warm = Request::Q1("r1", query::Query({0.5, 0.5}, 0.12));
  auto first = router.Execute(warm);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->source, AnswerSource::kExact);

  // Same query with budget remaining: the δ-cache answers before the exact
  // engine is ever consulted.
  FakeClock clock(0);
  Request repeat = warm;
  repeat.deadline = util::Deadline::AtNanos(1000, &clock);
  auto cached = router.Execute(repeat);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->source, AnswerSource::kCache);
  EXPECT_FALSE(cached->used_fallback);
  EXPECT_EQ(cached->mean, first->mean);
}

TEST(LifecycleRouterTest, ExpiredDeadlineRejectedBeforeCacheLookup) {
  // A cache hit must not mask kDeadlineExceeded: an already-expired request
  // is rejected at admission, before the δ-cache is consulted, so its
  // outcome never depends on what other queries happened to cache.
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;
  cfg.enable_cache = true;
  cfg.cache.delta_min = 1.0;
  QueryRouter router(testsupport::SharedCatalog(), cfg);

  Request warm = Request::Q1("r1", query::Query({0.5, 0.5}, 0.12));
  ASSERT_TRUE(router.Execute(warm).ok());

  FakeClock clock(1000);
  Request repeat = warm;  // Identical query: the cache has it.
  repeat.deadline = util::Deadline::AtNanos(500, &clock);  // Expired.
  auto got = router.Execute(repeat);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(router.CacheStats().hits, 0);  // Lookup never happened.

  service::ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.degraded, 0);  // Admission rejection, not degrade.
}

TEST(LifecycleRouterTest, CancelledRequestOnBusyPoolStaysCancelled) {
  // The outcome of a cancelled request must not depend on pool load: with
  // the router's lone worker busy and the answer in the δ-cache, a batch
  // still returns kCancelled like a single Execute would.
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;  // Only exact answers are cached.
  cfg.enable_cache = true;
  cfg.cache.delta_min = 1.0;
  cfg.num_threads = 1;
  QueryRouter router(testsupport::SharedCatalog(), cfg);

  // Warm the cache inline, then occupy the lone worker (gate handshake, no
  // sleeps).
  Request warm = Request::Q1("r1", query::Query({0.5, 0.5}, 0.1));
  ASSERT_TRUE(router.Execute(warm).ok());
  ASSERT_EQ(router.CacheStats().inserts, 1);
  Gate worker_started, release_worker;
  util::ThreadPool* pool = router.pool_for_testing();
  pool->Submit([&] {
    worker_started.Open();
    release_worker.Wait();
  });
  worker_started.Wait();

  Request cancelled_repeat = warm;  // Identical query: the cache has it.
  cancelled_repeat.cancel = util::CancellationToken::Cancellable();
  cancelled_repeat.cancel.Cancel();
  // Two slots, so the batch offers the busy worker a helper task (a single
  // slot runs inline without touching the pool).
  auto results = router.ExecuteBatch({cancelled_repeat, cancelled_repeat});
  release_worker.Open();

  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kCancelled);
  }
  service::ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.cancelled, 2);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(router.CacheStats().hits, 0);  // Lookup never happened.
}

TEST(LifecycleRouterTest, ExpiredDeadlineOnBusyPoolStaysTypedReject) {
  // Mirror of the cancelled-on-busy-pool invariant: an already-expired
  // request must not be answered from the δ-cache just because the pool
  // was busy.
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;  // Only exact answers are cached.
  cfg.enable_cache = true;
  cfg.cache.delta_min = 1.0;
  cfg.num_threads = 1;
  QueryRouter router(testsupport::SharedCatalog(), cfg);

  Request warm = Request::Q1("r1", query::Query({0.5, 0.5}, 0.1));
  ASSERT_TRUE(router.Execute(warm).ok());
  ASSERT_EQ(router.CacheStats().inserts, 1);
  Gate worker_started, release_worker;
  util::ThreadPool* pool = router.pool_for_testing();
  pool->Submit([&] {
    worker_started.Open();
    release_worker.Wait();
  });
  worker_started.Wait();

  FakeClock clock(1000);
  Request expired_repeat = warm;  // Identical query: the cache has it.
  expired_repeat.deadline = util::Deadline::AtNanos(500, &clock);
  auto results = router.ExecuteBatch({expired_repeat, expired_repeat});
  release_worker.Open();

  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  }
  service::ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 2);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(router.CacheStats().hits, 0);  // Lookup never happened.
}

TEST(LifecycleRouterTest, ErrorPathCarriesPartialExecStats) {
  // A kDeadlineExceeded reply no longer discards the work the engine did:
  // the typed ExecError carries the partial chunk accounting.
  EngineFixture* f = testsupport::SharedParallelFixture();
  service::ModelCatalog catalog;
  ASSERT_TRUE(catalog
                  .Register("scan", &f->dataset->table, f->scan.get(),
                            testsupport::DefaultCatalogOptions())
                  .ok());
  // The catalog's default plan: 20000 rows / 8192 per partition = 2
  // partitions, run inline in deterministic chunk order 0, 1.

  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;  // No model: the error is terminal.
  cfg.enable_cache = false;
  QueryRouter router(&catalog, cfg);

  FakeClock clock(0);
  Request r = Request::Q1("scan", query::Query({0.5, 0.5}, 100.0));
  r.deadline = util::Deadline::AtNanos(1000, &clock);
  r.on_chunk_for_testing = [&clock](size_t chunk) {
    if (chunk == 1) clock.SetNanos(2000);  // Trip before the second chunk.
  };

  auto got = router.Execute(r);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);
  const query::ExecStats& err = got.error().partial;
  EXPECT_EQ(err.chunks_completed, 1);  // Chunk 0 ran; 1 aborted.
  EXPECT_EQ(err.chunks_total, 2);
  EXPECT_GT(err.tuples_examined, 0);  // The partial scan work, preserved.
  EXPECT_GT(err.nanos, 0);            // Total serving latency.

  service::ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
}

// ---------- Drift-driven retraining & generation-tagged cache ----------

// A 1-d relation u = level + 0.5·x + ε over a ScanIndex. The scan path
// reads the table per query, so appending a shifted regime later is a real,
// deterministic distribution-shift injection visible to the exact engine.
struct DriftFixture {
  storage::Table table{1};
  std::unique_ptr<storage::ScanIndex> index;
  ModelCatalog catalog;

  explicit DriftFixture(int64_t drift_interval = 1 << 20) {
    util::Rng rng(11);
    for (int i = 0; i < 4000; ++i) {
      const double x = rng.Uniform();
      ExpectOk(table.Append({x}, 1.0 + 0.5 * x + rng.Gaussian(0.0, 0.02)));
    }
    index = std::make_unique<storage::ScanIndex>(table);

    CatalogOptions opts = CatalogOptions::ForCube(
        /*d=*/1, /*lo=*/0.0, /*hi=*/1.0, /*theta_mean=*/0.1,
        /*theta_stddev=*/0.03, /*a=*/0.15, /*max_pairs=*/2000, /*seed=*/13);
    // Thresholds sized for determinism: steady-state probe RMSE on this
    // relation is well under the 0.3 floor, while the +3.0 level shift
    // drives it past 1.0 — no flaky middle ground.
    opts.drift.enabled = true;
    opts.drift.config.probe_queries = 60;
    opts.drift.config.degradation_factor = 4.0;
    opts.drift.config.absolute_threshold = 0.3;
    opts.drift.report_interval = drift_interval;
    opts.drift.retrain_max_pairs = 4000;
    ExpectOk(catalog.Register("ds", &table, index.get(), opts));
  }

  // The injected shift: a second regime at level 4.0 (same count as the
  // original), deterministic contents.
  void ShiftDistribution() {
    util::Rng rng(17);
    for (int i = 0; i < 4000; ++i) {
      const double x = rng.Uniform();
      ExpectOk(table.Append({x}, 4.0 + 0.5 * x + rng.Gaussian(0.0, 0.02)));
    }
  }

 private:
  static void ExpectOk(const util::Status& s) { EXPECT_TRUE(s.ok()) << s; }
};

TEST(DriftRetrainTest, SteadyDataProbesQuietAndKeepsGeneration) {
  DriftFixture fx;
  ASSERT_TRUE(fx.catalog.TrainAll().ok());
  auto before = fx.catalog.Get("ds");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->generation, 1);

  auto out = fx.catalog.MaybeRetrain("ds");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->probed);
  EXPECT_FALSE(out->drift.drifted);
  EXPECT_FALSE(out->retrained);
  EXPECT_EQ(out->generation, 1);

  auto after = fx.catalog.Get("ds");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->generation, 1);
  EXPECT_EQ(after->model.get(), before->model.get());  // Same frozen model.
}

// Regression for the drift-state publication fix: `monitor`/`probe_gen` are
// assigned under drift_mu before `trained` is published. Until TrainAll has
// published a model, the maintenance surface (ReportObservation,
// MaybeRetrain) must stay inert — typed refusals, no torn drift state — and
// must light up the moment the publication lands.
TEST(DriftRetrainTest, MaintenanceApisAreInertDuringInFlightTraining) {
  storage::Table table{1};
  util::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.Uniform();
    ASSERT_TRUE(
        table.Append({x}, 1.0 + 0.5 * x + rng.Gaussian(0.0, 0.02)).ok());
  }
  storage::ScanIndex index(table);

  ModelCatalog catalog;
  CatalogOptions opts = CatalogOptions::ForCube(
      /*d=*/1, /*lo=*/0.0, /*hi=*/1.0, /*theta_mean=*/0.1,
      /*theta_stddev=*/0.03, /*a=*/0.15, /*max_pairs=*/1000, /*seed=*/13);
  opts.drift.enabled = true;
  opts.drift.config.probe_queries = 20;
  opts.drift.config.absolute_threshold = 0.3;
  opts.drift.report_interval = 1;  // Every observation is a boundary.
  ASSERT_TRUE(catalog.Register("ds", &table, &index, opts).ok());

  // Before TrainAll: no model, hence no drift monitor, hence every
  // maintenance entry point refuses.
  EXPECT_FALSE(catalog.ReportObservation("ds"));
  auto early = catalog.MaybeRetrain("ds");
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), util::StatusCode::kFailedPrecondition);

  ASSERT_TRUE(catalog.TrainAll().ok());

  // Publication happened; the same calls now see live drift state.
  auto snap = catalog.Get("ds");
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap->drift_enabled);
  EXPECT_EQ(snap->generation, 1);
  EXPECT_TRUE(catalog.ReportObservation("ds"));
  auto out = catalog.MaybeRetrain("ds");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->probed);
  EXPECT_FALSE(out->drift.drifted);  // Steady data: probe quiet, no swap.
  EXPECT_FALSE(out->retrained);
  EXPECT_EQ(out->generation, 1);
}

TEST(DriftRetrainTest, InjectedShiftSwapsGenerationAndInvalidatesCache) {
  DriftFixture fx;
  ASSERT_TRUE(fx.catalog.TrainAll().ok());
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;  // Only exact answers are cached.
  cfg.enable_cache = true;
  cfg.cache.delta_min = 1.0;
  QueryRouter router(&fx.catalog, cfg);

  // Serve and cache an exact answer under generation 1.
  Request r = Request::Q1("ds", query::Query({0.5}, 0.1));
  auto first = router.Execute(r);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->source, AnswerSource::kExact);
  auto second = router.Execute(r);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->source, AnswerSource::kCache);
  EXPECT_EQ(second->mean, first->mean);

  // Inject the shift and force a maintenance pass.
  fx.ShiftDistribution();
  auto out = router.MaybeRetrain("ds");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->probed);
  EXPECT_TRUE(out->drift.drifted);
  EXPECT_GT(out->drift.rmse, out->drift.baseline_rmse);
  EXPECT_TRUE(out->retrained);
  EXPECT_EQ(out->generation, 2);
  EXPECT_GT(out->report.pairs_used, 0);
  EXPECT_EQ(router.Stats().retrains, 1);

  auto snap = fx.catalog.Get("ds");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->generation, 2);

  // The generation-1 cached answer must not be served: new generation, new
  // cache key, and the old group was dropped outright.
  EXPECT_EQ(router.CacheStats().hits, 1);  // Only the pre-retrain hit.
  auto third = router.Execute(r);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->source, AnswerSource::kExact);  // Cache miss on gen 2.
  EXPECT_EQ(router.CacheStats().hits, 1);
  // The fresh scan sees the shifted regime: its answer moved.
  EXPECT_GT(std::fabs(third->mean - first->mean), 0.1);

  // Probing again right after the retrain is quiet (baseline was reset).
  auto again = router.MaybeRetrain("ds");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->probed);
  EXPECT_FALSE(again->retrained);
  EXPECT_EQ(again->generation, 2);
}

TEST(DriftRetrainTest, ReportObservationFiresEveryInterval) {
  DriftFixture fx(/*drift_interval=*/3);
  // Untrained: observations never schedule probes.
  EXPECT_FALSE(fx.catalog.ReportObservation("ds"));
  ASSERT_TRUE(fx.catalog.TrainAll().ok());
  std::vector<bool> due;
  for (int i = 0; i < 6; ++i) due.push_back(fx.catalog.ReportObservation("ds"));
  EXPECT_EQ(due, std::vector<bool>({false, false, true, false, false, true}));
  EXPECT_FALSE(fx.catalog.ReportObservation("unknown"));
}

// report_interval = 1 and a synchronous pool: every served answer runs the
// maintenance pass inline — fully deterministic end-to-end, whether the model
// or the exact engine answered.
void ExpectRouterAutoProbeRetrainsInline(RoutePolicy policy) {
  DriftFixture fx(/*drift_interval=*/1);
  ASSERT_TRUE(fx.catalog.TrainAll().ok());
  RouterConfig cfg;
  cfg.policy = policy;
  cfg.enable_cache = false;
  cfg.num_threads = 0;
  QueryRouter router(&fx.catalog, cfg);
  const AnswerSource source = policy == RoutePolicy::kModelOnly
                                  ? AnswerSource::kModel
                                  : AnswerSource::kExact;

  // An in-region query, so the model-only router answers it too.
  Request r = Request::Q1("ds", query::Query({0.5}, 0.1));
  auto trained_snap = fx.catalog.Get("ds");
  ASSERT_TRUE(trained_snap.ok());
  ASSERT_NE(trained_snap->model, nullptr);
  ASSERT_LE(trained_snap->model->NearestPrototypeDistance(r.q),
            cfg.rho_scale * trained_snap->vigilance);

  // Steady data: every query is an interval boundary (interval = 1) and
  // each probe is quiet, so the generation stays put.
  for (int i = 0; i < 3; ++i) {
    auto got = router.Execute(r);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->source, source);
  }
  EXPECT_EQ(router.Stats().retrains, 0);
  auto steady = fx.catalog.Get("ds");
  ASSERT_TRUE(steady.ok());
  EXPECT_EQ(steady->generation, 1);

  // Shifted: the inline probe confirms drift and publishes generation 2.
  fx.ShiftDistribution();
  auto got = router.Execute(r);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(router.Stats().retrains, 1);
  auto snap = fx.catalog.Get("ds");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->generation, 2);
}

TEST(DriftRetrainTest, RouterAutoProbeRetrainsInlineOnSyncPool) {
  ExpectRouterAutoProbeRetrainsInline(RoutePolicy::kModelOnly);
}

TEST(DriftRetrainTest, RouterPipesExactResidualsIntoProbeGating) {
  // An exact-only router serves ground truth; each answer still counts
  // toward the interval, so the same inline probe confirms the shift.
  ExpectRouterAutoProbeRetrainsInline(RoutePolicy::kExactOnly);
}

TEST(DriftRetrainTest, MaybeRetrainErrorsAreTyped) {
  DriftFixture fx;
  EXPECT_EQ(fx.catalog.MaybeRetrain("unknown").status().code(),
            util::StatusCode::kNotFound);
  // Registered but untrained.
  EXPECT_EQ(fx.catalog.MaybeRetrain("ds").status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(DriftRetrainTest, DriftDisabledDatasetRefusesMaintenance) {
  EngineFixture* f = testsupport::SharedServiceFixture();
  ModelCatalog catalog;
  ASSERT_TRUE(catalog
                  .Register("plain", &f->dataset->table, f->kdtree.get(),
                            testsupport::DefaultCatalogOptions())
                  .ok());
  ASSERT_TRUE(catalog.TrainAll().ok());
  EXPECT_FALSE(catalog.ReportObservation("plain"));
  EXPECT_EQ(catalog.MaybeRetrain("plain").status().code(),
            util::StatusCode::kFailedPrecondition);
}

// ---------- core/drift.cc edge cases ----------

// A tiny 1-d relation and a one-prototype model: enough for the monitor to
// measure something without a full training run.
struct DriftEdgeFixture {
  storage::Table table{1};
  std::unique_ptr<storage::ScanIndex> index;
  std::unique_ptr<query::ExactEngine> engine;
  core::LlmModel model{core::LlmConfig::ForDimension(1, 0.3)};

  DriftEdgeFixture() {
    util::Rng rng(23);
    for (int i = 0; i < 2000; ++i) {
      const double x = rng.Uniform();
      EXPECT_TRUE(table.Append({x}, 2.0 * x + rng.Gaussian(0.0, 0.05)).ok());
    }
    index = std::make_unique<storage::ScanIndex>(table);
    engine = std::make_unique<query::ExactEngine>(table, *index);
    EXPECT_TRUE(model.Observe(query::Query({0.5}, 0.1), 1.0).ok());
  }

  query::WorkloadGenerator Gen(uint64_t seed) const {
    return query::WorkloadGenerator(
        query::WorkloadConfig::Cube(1, 0.1, 0.9, 0.1, 0.02, seed));
  }
};

TEST(DriftEdgeTest, EmptyProbeWindowIsInvalidArgument) {
  DriftEdgeFixture fx;
  core::DriftConfig cfg;
  cfg.probe_queries = 0;  // Empty probe window.
  core::DriftMonitor monitor(cfg);
  auto gen = fx.Gen(31);
  EXPECT_EQ(monitor.Calibrate(fx.model, *fx.engine, &gen).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(monitor.calibrated());
}

TEST(DriftEdgeTest, FailedRecalibrationClearsPreviousBaseline) {
  // A monitor whose recalibration fails must not keep probing against the
  // old model's baseline (the probe-retrain thrash scenario): the failed
  // Calibrate clears the state and Probe refuses until it is repaired.
  DriftEdgeFixture fx;
  core::DriftConfig cfg;
  cfg.probe_queries = 5;
  core::DriftMonitor monitor(cfg);
  auto good_gen = fx.Gen(61);
  ASSERT_TRUE(monitor.Calibrate(fx.model, *fx.engine, &good_gen).ok());
  EXPECT_TRUE(monitor.calibrated());

  // Every probe ball misses the data entirely: calibration cannot measure.
  query::WorkloadGenerator empty_gen(
      query::WorkloadConfig::Cube(1, 10.0, 11.0, 0.01, 0.001, 67));
  EXPECT_EQ(monitor.Calibrate(fx.model, *fx.engine, &empty_gen).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(monitor.calibrated());
  EXPECT_EQ(monitor.Probe(fx.model, *fx.engine, &good_gen).status().code(),
            util::StatusCode::kFailedPrecondition);

  // Repairing the baseline re-enables probing.
  ASSERT_TRUE(monitor.Calibrate(fx.model, *fx.engine, &good_gen).ok());
  EXPECT_TRUE(monitor.Probe(fx.model, *fx.engine, &good_gen).ok());
}

TEST(DriftEdgeTest, RmseExactlyOnThresholdIsSteadyState) {
  // degradation_factor = 1 and an identical probe stream reproduce the
  // calibration RMSE bit-for-bit: rmse == threshold must NOT be drift.
  DriftEdgeFixture fx;
  core::DriftConfig cfg;
  cfg.probe_queries = 40;
  cfg.degradation_factor = 1.0;
  cfg.absolute_threshold = 0.0;
  core::DriftMonitor monitor(cfg);
  auto calibrate_gen = fx.Gen(37);
  ASSERT_TRUE(monitor.Calibrate(fx.model, *fx.engine, &calibrate_gen).ok());
  ASSERT_GT(monitor.baseline_rmse(), 0.0);

  auto probe_gen = fx.Gen(37);  // Same seed: the identical query stream.
  auto report = monitor.Probe(fx.model, *fx.engine, &probe_gen);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->rmse, report->baseline_rmse);  // Bit-for-bit equal.
  EXPECT_FALSE(report->drifted);
}

TEST(DriftEdgeTest, RepeatedProbesAfterRetrainResetStayQuiet) {
  DriftEdgeFixture fx;
  core::DriftConfig cfg;
  cfg.probe_queries = 50;
  cfg.degradation_factor = 3.0;
  cfg.absolute_threshold = 0.3;
  core::DriftMonitor monitor(cfg);
  auto gen = fx.Gen(41);
  // Train the one-prototype model properly first so the baseline is sane.
  core::TrainerConfig tc;
  tc.max_pairs = 1500;
  tc.min_pairs = 300;
  core::Trainer trainer(*fx.engine, tc);
  auto train_gen = fx.Gen(43);
  ASSERT_TRUE(trainer.Train(&train_gen, &fx.model).ok());
  ASSERT_TRUE(monitor.Calibrate(fx.model, *fx.engine, &gen).ok());
  const double old_baseline = monitor.baseline_rmse();

  // Shift the relation, confirm drift, retrain, recalibrate.
  util::Rng rng(47);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.Uniform();
    ASSERT_TRUE(fx.table.Append({x}, 6.0 + 2.0 * x).ok());
  }
  auto drifted = monitor.Probe(fx.model, *fx.engine, &gen);
  ASSERT_TRUE(drifted.ok());
  EXPECT_TRUE(drifted->drifted);

  auto retrain_gen = fx.Gen(53);
  auto report = monitor.Retrain(&fx.model, *fx.engine, &retrain_gen, 4000);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(monitor.Calibrate(fx.model, *fx.engine, &gen).ok());
  EXPECT_NE(monitor.baseline_rmse(), old_baseline);

  // Repeated probes against the reset baseline stay quiet.
  for (int i = 0; i < 3; ++i) {
    auto quiet = monitor.Probe(fx.model, *fx.engine, &gen);
    ASSERT_TRUE(quiet.ok()) << quiet.status();
    EXPECT_FALSE(quiet->drifted)
        << "probe " << i << ": rmse=" << quiet->rmse
        << " baseline=" << quiet->baseline_rmse;
  }
}

}  // namespace
}  // namespace qreg
