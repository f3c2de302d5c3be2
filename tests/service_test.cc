// Tests for the service layer: thread pool, model catalog (set-up training
// + warm start), δ-overlap answer cache (admission, LRU, accuracy bound), and
// the query router (policy agreement with the standalone engines, batch
// parallelism determinism).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "core/trainer.h"
#include "eval/metrics.h"
#include "query/workload.h"
#include "service/answer_cache.h"
#include "service/model_catalog.h"
#include "service/query_router.h"
#include "service/service_stats.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qreg {
namespace service {
namespace {

// Fixtures, catalog recipe and workload builders live in test_support.h,
// shared with parallel_exact_test.cc and lifecycle_test.cc.
using testsupport::DefaultCatalogOptions;
using testsupport::MixedWorkload;
using testsupport::RandomQueries;
using testsupport::SharedCatalog;
using TestData = testsupport::EngineFixture;

TestData* SharedData() { return testsupport::SharedServiceFixture(); }

CatalogOptions TestOptions() { return DefaultCatalogOptions(); }

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  util::ThreadPool pool(4, /*queue_capacity=*/16);
  std::atomic<int> count{0};
  util::BlockingCounter done(1000);
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count, &done] {
      count.fetch_add(1, std::memory_order_relaxed);
      done.DecrementCount();
    });
  }
  done.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  std::thread::id task_thread;
  pool.Submit([&task_thread] { task_thread = std::this_thread::get_id(); });
  EXPECT_EQ(task_thread, std::this_thread::get_id());
}

TEST(ThreadPoolTest, TrySubmitAppliesBackpressure) {
  util::ThreadPool pool(1, /*queue_capacity=*/1);
  std::mutex gate;
  gate.lock();
  pool.Submit([&gate] { gate.lock(); gate.unlock(); });  // Blocks the worker.
  // Wait until the worker has dequeued the blocker.
  while (pool.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pool.TrySubmit([] {}));   // Fills the 1-slot queue.
  EXPECT_FALSE(pool.TrySubmit([] {}));  // Queue full -> rejected.
  gate.unlock();
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    util::ThreadPool pool(2, 64);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // Destructor joins after draining.
  EXPECT_EQ(count.load(), 50);
}

// ---------- ModelCatalog ----------

TEST(ModelCatalogTest, RegistrationValidation) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  EXPECT_TRUE(
      catalog.Register("a", &d->dataset->table, d->kdtree.get(), TestOptions()).ok());
  // Duplicate name.
  auto dup = catalog.Register("a", &d->dataset->table, d->kdtree.get(), TestOptions());
  EXPECT_EQ(dup.code(), util::StatusCode::kAlreadyExists);
  // Dimension mismatch between workload and table.
  CatalogOptions bad = CatalogOptions::ForCube(3, 0.0, 1.0, 0.1, 0.02);
  auto mismatch = catalog.Register("b", &d->dataset->table, d->kdtree.get(), bad);
  EXPECT_EQ(mismatch.code(), util::StatusCode::kInvalidArgument);
  // Unknown dataset.
  EXPECT_EQ(catalog.Get("nope").status().code(), util::StatusCode::kNotFound);
  EXPECT_TRUE(catalog.Contains("a"));
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(ModelCatalogTest, TrainAllTrainsEachDatasetExactlyOnce) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  ASSERT_TRUE(
      catalog.Register("ds", &d->dataset->table, d->kdtree.get(), TestOptions()).ok());

  // Before training: snapshot has no model.
  auto before = catalog.Get("ds");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->model, nullptr);

  ASSERT_TRUE(catalog.TrainAll().ok());
  auto first = catalog.Get("ds");
  ASSERT_TRUE(first.ok());
  ASSERT_NE(first->model, nullptr);
  EXPECT_GT(first->model->num_prototypes(), 0);
  EXPECT_TRUE(first->model->frozen());
  EXPECT_GT(first->report.pairs_used, 0);
  EXPECT_GT(first->vigilance, 0.0);

  ASSERT_TRUE(catalog.TrainAll().ok());  // Nothing left to train.
  auto second = catalog.Get("ds");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->model.get(), second->model.get());  // Same trained model.
}

TEST(ModelCatalogTest, GetRacingTrainAllSeesOneModel) {
  // Readers racing a TrainAll never block on it: each sees no model or the
  // one published model, and every reader ends on the same pointer.
  TestData* d = SharedData();
  ModelCatalog catalog;
  CatalogOptions opts = TestOptions();
  opts.trainer.max_pairs = 600;  // Keep the race window short.
  ASSERT_TRUE(
      catalog.Register("ds", &d->dataset->table, d->kdtree.get(), opts).ok());

  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const core::LlmModel>> models(kThreads);
  std::atomic<bool> trained{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&catalog, &models, &trained] {
    EXPECT_TRUE(catalog.TrainAll().ok());
    trained.store(true);
    auto snap = catalog.Get("ds");
    ASSERT_TRUE(snap.ok());
    models[0] = snap->model;
  });
  for (int i = 1; i < kThreads; ++i) {
    threads.emplace_back([&catalog, &models, &trained, i] {
      for (;;) {
        // A Get after observing `trained` must see the published model.
        const bool done = trained.load();
        auto snap = catalog.Get("ds");
        ASSERT_TRUE(snap.ok());
        models[static_cast<size_t>(i)] = snap->model;
        if (snap->model != nullptr || done) break;
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_NE(models[0], nullptr);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(models[0].get(), models[static_cast<size_t>(i)].get());
  }
}

TEST(ModelCatalogTest, ConcurrentTrainAllYieldsOneModel) {
  // Two set-up calls race: TrainAll calls are serialized, so each dataset
  // trains once, and each call returns only once every dataset is trained.
  TestData* d = SharedData();
  ModelCatalog catalog;
  CatalogOptions opts = TestOptions();
  opts.trainer.max_pairs = 600;
  for (const char* name : {"a", "b"}) {
    ASSERT_TRUE(
        catalog.Register(name, &d->dataset->table, d->kdtree.get(), opts).ok());
  }
  std::shared_ptr<const core::LlmModel> models[2][2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&catalog, &models, t] {
      EXPECT_TRUE(catalog.TrainAll().ok());
      auto a = catalog.Get("a");
      auto b = catalog.Get("b");
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      models[t][0] = a->model;
      models[t][1] = b->model;
    });
  }
  for (auto& t : threads) t.join();
  for (int k = 0; k < 2; ++k) {
    ASSERT_NE(models[0][k], nullptr);
    EXPECT_EQ(models[0][k].get(), models[1][k].get());
  }
  EXPECT_NE(models[0][0].get(), models[0][1].get());
}

TEST(ModelCatalogTest, TrainAllTrainsDatasetsRegisteredLater) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  CatalogOptions opts = TestOptions();
  opts.trainer.max_pairs = 600;
  ASSERT_TRUE(
      catalog.Register("a", &d->dataset->table, d->kdtree.get(), opts).ok());
  ASSERT_TRUE(catalog.TrainAll().ok());
  auto a = catalog.Get("a");
  ASSERT_TRUE(a.ok());
  ASSERT_NE(a->model, nullptr);

  ASSERT_TRUE(
      catalog.Register("b", &d->dataset->table, d->kdtree.get(), opts).ok());
  // Serving "b" before the next TrainAll answers exactly and trains nothing.
  QueryRouter router(&catalog, RouterConfig());
  auto got = router.Execute(Request::Q1("b", query::Query({0.5, 0.5}, 0.12)));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->source, AnswerSource::kExact);
  auto untrained = catalog.Get("b");
  ASSERT_TRUE(untrained.ok());
  EXPECT_EQ(untrained->model, nullptr);
  EXPECT_EQ(untrained->generation, 0);

  ASSERT_TRUE(catalog.TrainAll().ok());
  auto b = catalog.Get("b");
  ASSERT_TRUE(b.ok());
  ASSERT_NE(b->model, nullptr);
  EXPECT_EQ(b->generation, 1);
  auto a_again = catalog.Get("a");
  ASSERT_TRUE(a_again.ok());
  EXPECT_EQ(a_again->model.get(), a->model.get());  // Not retrained.
  EXPECT_EQ(a_again->generation, 1);
}

TEST(ModelCatalogTest, TrainAllMatchesSerialTrainerByteForByte) {
  // TrainAll runs the training scans on every core; a serial
  // core::Trainer::Train runs them on the calling thread. Both must build
  // the same model.
  TestData* d = SharedData();
  CatalogOptions opts = TestOptions();
  opts.trainer.max_pairs = 1500;  // Several lookahead windows.
  ModelCatalog eager;
  ASSERT_TRUE(eager.Register("ds", &d->dataset->table, d->kdtree.get(), opts).ok());
  ASSERT_TRUE(eager.TrainAll().ok());
  auto a = eager.Get("ds");
  ASSERT_TRUE(a.ok());
  ASSERT_NE(a->model, nullptr);

  core::LlmModel serial(opts.llm);
  query::WorkloadGenerator workload(opts.workload);
  auto b = core::Trainer(*a->engine, opts.trainer).Train(&workload, &serial);
  ASSERT_TRUE(b.ok()) << b.status();
  if (!serial.frozen()) serial.Freeze();  // As the catalog publishes it.
  std::ostringstream bytes_a;
  std::ostringstream bytes_b;
  ASSERT_TRUE(core::ModelSerializer::Save(*a->model, &bytes_a).ok());
  ASSERT_TRUE(core::ModelSerializer::Save(serial, &bytes_b).ok());
  EXPECT_EQ(bytes_a.str(), bytes_b.str());
  EXPECT_EQ(a->report.pairs_used, b->pairs_used);
  EXPECT_EQ(a->report.pairs_skipped, b->pairs_skipped);
  EXPECT_EQ(a->report.converged, b->converged);
}

TEST(ModelCatalogTest, WarmStartSkipsTrainingAndMatchesPredictions) {
  TestData* d = SharedData();
  const std::string path = testing::TempDir() + "/qreg_warm_start_model.txt";
  std::remove(path.c_str());

  CatalogOptions opts = TestOptions();
  opts.warm_start_path = path;

  ModelCatalog cold;
  ASSERT_TRUE(cold.Register("ds", &d->dataset->table, d->kdtree.get(), opts).ok());
  ASSERT_TRUE(cold.TrainAll().ok());
  auto trained = cold.Get("ds");
  ASSERT_TRUE(trained.ok());
  EXPECT_FALSE(trained->warm_started);
  EXPECT_GT(trained->report.pairs_used, 0);

  ModelCatalog warm;
  ASSERT_TRUE(warm.Register("ds", &d->dataset->table, d->kdtree.get(), opts).ok());
  ASSERT_TRUE(warm.TrainAll().ok());
  auto loaded = warm.Get("ds");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->warm_started);
  EXPECT_EQ(loaded->report.pairs_used, 0);
  ASSERT_NE(loaded->model, nullptr);
  EXPECT_EQ(loaded->model->num_prototypes(), trained->model->num_prototypes());

  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(2, 0.1, 0.9, 0.12, 0.02, 11));
  for (int i = 0; i < 20; ++i) {
    query::Query q = gen.Next();
    auto a = trained->model->PredictMean(q);
    auto b = loaded->model->PredictMean(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(*a, *b);
  }
  std::remove(path.c_str());
}

// ---------- AnswerCache ----------

TEST(AnswerCacheTest, ExactRepeatAlwaysHits) {
  AnswerCacheConfig cfg;
  cfg.delta_min = 1.0;  // Only identical balls admissible.
  AnswerCache cache(cfg);
  CachedAnswer a;
  a.q = query::Query({0.5, 0.5}, 0.1);
  a.mean = 42.0;
  cache.Insert("ds/Q1", a);

  CachedAnswer out;
  EXPECT_TRUE(cache.Lookup("ds/Q1", query::Query({0.5, 0.5}, 0.1), &out));
  EXPECT_DOUBLE_EQ(out.mean, 42.0);
  EXPECT_DOUBLE_EQ(out.delta, 1.0);
  // Same query, different shard: miss.
  EXPECT_FALSE(cache.Lookup("ds/Q2", query::Query({0.5, 0.5}, 0.1), nullptr));
}

TEST(AnswerCacheTest, DeltaAdmissionThreshold) {
  // δ(q, q') = 1 - max(||x - x'||, |θ - θ'|) / (θ + θ')   (Eq. 9).
  // With θ = θ' = 1: center offset e gives δ = 1 - e/2.
  AnswerCacheConfig cfg;
  cfg.delta_min = 0.9;
  AnswerCache cache(cfg);
  CachedAnswer a;
  a.q = query::Query({0.0, 0.0}, 1.0);
  a.mean = 7.0;
  cache.Insert("ds/Q1", a);

  CachedAnswer out;
  // e = 0.1 -> δ = 0.95 ≥ 0.9: hit.
  ASSERT_TRUE(cache.Lookup("ds/Q1", query::Query({0.1, 0.0}, 1.0), &out));
  EXPECT_NEAR(out.delta, 0.95, 1e-12);
  // e = 0.3 -> δ = 0.85 < 0.9: miss despite overlapping.
  EXPECT_FALSE(cache.Lookup("ds/Q1", query::Query({0.3, 0.0}, 1.0), nullptr));
  // Disjoint balls: miss regardless of δ_min.
  EXPECT_FALSE(cache.Lookup("ds/Q1", query::Query({5.0, 0.0}, 1.0), nullptr));

  AnswerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
}

TEST(AnswerCacheTest, PrefersHighestOverlapEntry) {
  AnswerCacheConfig cfg;
  cfg.delta_min = 0.5;
  AnswerCache cache(cfg);
  CachedAnswer far;
  far.q = query::Query({0.4, 0.0}, 1.0);  // δ vs probe = 0.8
  far.mean = 1.0;
  CachedAnswer near;
  near.q = query::Query({0.1, 0.0}, 1.0);  // δ vs probe = 0.95
  near.mean = 2.0;
  cache.Insert("s", far);
  cache.Insert("s", near);

  CachedAnswer out;
  ASSERT_TRUE(cache.Lookup("s", query::Query({0.0, 0.0}, 1.0), &out));
  EXPECT_DOUBLE_EQ(out.mean, 2.0);
  EXPECT_NEAR(out.delta, 0.95, 1e-12);
}

TEST(AnswerCacheTest, LruEvictionAtCapacity) {
  AnswerCacheConfig cfg;
  cfg.capacity_per_shard = 2;
  cfg.delta_min = 1.0;
  AnswerCache cache(cfg);
  for (int i = 0; i < 3; ++i) {
    CachedAnswer a;
    a.q = query::Query({static_cast<double>(i), 0.0}, 0.1);
    a.mean = i;
    cache.Insert("s", a);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  // Entry 0 (least recently used) was evicted; 1 and 2 remain.
  EXPECT_FALSE(cache.Lookup("s", query::Query({0.0, 0.0}, 0.1), nullptr));
  EXPECT_TRUE(cache.Lookup("s", query::Query({1.0, 0.0}, 0.1), nullptr));
  EXPECT_TRUE(cache.Lookup("s", query::Query({2.0, 0.0}, 0.1), nullptr));
}

TEST(AnswerCacheTest, LookupTouchesLruOrder) {
  AnswerCacheConfig cfg;
  cfg.capacity_per_shard = 2;
  cfg.delta_min = 1.0;
  AnswerCache cache(cfg);
  CachedAnswer a;
  a.q = query::Query({0.0, 0.0}, 0.1);
  cache.Insert("s", a);
  CachedAnswer b;
  b.q = query::Query({1.0, 0.0}, 0.1);
  cache.Insert("s", b);
  // Touch a, then insert c: b (now LRU) should be evicted, a retained.
  ASSERT_TRUE(cache.Lookup("s", a.q, nullptr));
  CachedAnswer c;
  c.q = query::Query({2.0, 0.0}, 0.1);
  cache.Insert("s", c);
  EXPECT_TRUE(cache.Lookup("s", a.q, nullptr));
  EXPECT_FALSE(cache.Lookup("s", b.q, nullptr));
}

// ---------- AnswerCache: grid δ-lookup equivalence ----------
// (Random query stream comes from testsupport::RandomQueries.)

TEST(AnswerCacheGridTest, GridLookupMatchesLinearProbeAdmissions) {
  // The satellite contract: the spatial-grid δ-lookup admits exactly the
  // entries the linear probe admits, with the same best-δ choice.
  AnswerCacheConfig linear_cfg;
  linear_cfg.delta_min = 0.85;
  linear_cfg.capacity_per_shard = 4096;  // No evictions: pure probe test.
  linear_cfg.enable_grid = false;
  AnswerCacheConfig grid_cfg = linear_cfg;
  grid_cfg.enable_grid = true;
  AnswerCache linear(linear_cfg), grid(grid_cfg);

  for (const query::Query& q : RandomQueries(500, 83)) {
    CachedAnswer ins;
    ins.q = q;
    ins.mean = q.center[0] + 10.0 * q.center[1];
    linear.Insert("g", ins);
    grid.Insert("g", ins);
  }
  int64_t hits = 0;
  for (const query::Query& probe : RandomQueries(800, 97)) {
    CachedAnswer want, got;
    const bool hit_linear = linear.Lookup("g", probe, &want);
    const bool hit_grid = grid.Lookup("g", probe, &got);
    ASSERT_EQ(hit_linear, hit_grid) << probe.ToString();
    if (hit_linear) {
      ++hits;
      EXPECT_EQ(want.mean, got.mean) << probe.ToString();
      EXPECT_EQ(want.delta, got.delta) << probe.ToString();
    }
  }
  EXPECT_GT(hits, 20) << "probe workload produced too few hits to be meaningful";
  // The big group (500 entries) must actually exercise the grid path.
  EXPECT_GT(grid.stats().grid_probes, 0);
  EXPECT_EQ(linear.stats().grid_probes, 0);
}

TEST(AnswerCacheGridTest, EvictionKeepsGridConsistent) {
  AnswerCacheConfig cfg;
  cfg.delta_min = 1.0;  // Exact repeats only: hits pinpoint single entries.
  cfg.capacity_per_shard = 8;
  cfg.enable_grid = true;
  AnswerCache cache(cfg);
  const std::vector<query::Query> qs = RandomQueries(64, 131);
  for (const auto& q : qs) {
    CachedAnswer ins;
    ins.q = q;
    cache.Insert("g", ins);
  }
  EXPECT_EQ(cache.size(), 8u);
  // The 8 most recent remain findable; evicted ones must not resurface
  // through stale grid references.
  for (size_t i = 0; i < qs.size(); ++i) {
    const bool expect_hit = i + 8 >= qs.size();
    EXPECT_EQ(cache.Lookup("g", qs[i], nullptr), expect_hit) << i;
  }
}

TEST(AnswerCacheGridTest, EvictedOutlierThetaDoesNotPinProbeRadius) {
  AnswerCacheConfig cfg;
  cfg.delta_min = 0.9;
  cfg.capacity_per_shard = 16;
  cfg.enable_grid = true;
  AnswerCache cache(cfg);

  // A normal first insert fixes a small cell edge; a huge-θ outlier then
  // inflates θ_max so every probe's cell fan-out exceeds max_grid_cells.
  CachedAnswer normal0;
  normal0.q = query::Query({0.5, 0.5}, 0.1);
  cache.Insert("g", normal0);
  CachedAnswer outlier;
  outlier.q = query::Query({0.5, 0.5}, 50.0);
  cache.Insert("g", outlier);
  // 16 more inserts evict both of them (LRU from the back).
  for (int i = 0; i < 16; ++i) {
    CachedAnswer a;
    a.q = query::Query({0.1 + 0.04 * i, 0.5}, 0.1);
    cache.Insert("g", a);
  }
  EXPECT_EQ(cache.size(), 16u);
  // With θ_max re-derived after the outlier's eviction, lookups take the
  // grid path again instead of falling back to the linear probe forever.
  CachedAnswer out;
  ASSERT_TRUE(cache.Lookup("g", query::Query({0.3, 0.5}, 0.1), &out));
  EXPECT_GT(cache.stats().grid_probes, 0);
}

TEST(AnswerCacheGridTest, ChurnAtCapacityMatchesLinearProbe) {
  // Grid edits under eviction and replacement: a full group churned by
  // jittered hot-spot traffic (d = 2, θ ≈ 0.1) must answer every lookup
  // exactly as the linear probe does, step for step.
  AnswerCacheConfig linear_cfg;
  linear_cfg.delta_min = 0.93;
  linear_cfg.capacity_per_shard = 256;
  linear_cfg.enable_grid = false;
  AnswerCacheConfig grid_cfg = linear_cfg;
  grid_cfg.enable_grid = true;
  AnswerCache linear(linear_cfg), grid(grid_cfg);

  // Far more hot spots than capacity, so the group evicts throughout.
  util::Rng rng(149);
  std::vector<query::Query> spots;
  for (int i = 0; i < 2048; ++i) {
    spots.push_back(query::Query({rng.Uniform(0.05, 0.95), rng.Uniform(0.05, 0.95)},
                                 rng.Uniform(0.09, 0.11)));
  }
  std::vector<query::Query> seen;
  int64_t insert_calls = 0;
  for (int step = 0; step < 6000; ++step) {
    // ~5% exact repeats, re-inserted with a fresh answer: replacements.
    const bool repeat = !seen.empty() && rng.Uniform(0.0, 1.0) < 0.05;
    query::Query q;
    if (repeat) {
      q = seen[rng.UniformInt(seen.size())];
    } else {
      const query::Query& h = spots[rng.UniformInt(spots.size())];
      q = query::Query({h.center[0] + rng.Gaussian(0.0, 0.01),
                        h.center[1] + rng.Gaussian(0.0, 0.01)},
                       h.theta * (1.0 + rng.Gaussian(0.0, 0.02)));
      seen.push_back(q);
    }
    CachedAnswer want, got;
    const bool hit_linear = linear.Lookup("g", q, &want);
    const bool hit_grid = grid.Lookup("g", q, &got);
    ASSERT_EQ(hit_linear, hit_grid) << "step " << step;
    if (hit_linear) {
      ASSERT_EQ(want.mean, got.mean) << "step " << step;
      ASSERT_EQ(want.delta, got.delta) << "step " << step;
    }
    if (!hit_linear || repeat) {
      CachedAnswer ins;
      ins.q = q;
      ins.mean = static_cast<double>(step);
      linear.Insert("g", ins);
      grid.Insert("g", ins);
      ++insert_calls;
    }
    ASSERT_EQ(linear.size(), grid.size()) << "step " << step;
  }
  const AnswerCacheStats sl = linear.stats(), sg = grid.stats();
  EXPECT_EQ(sl.hits, sg.hits);
  EXPECT_EQ(sl.misses, sg.misses);
  EXPECT_EQ(sl.inserts, sg.inserts);
  EXPECT_EQ(sl.evictions, sg.evictions);
  // The run really took the grid path, evicted and replaced.
  EXPECT_GT(sg.grid_probes, 0);
  EXPECT_GT(sg.evictions, 0);
  EXPECT_LT(sg.inserts, insert_calls);
  EXPECT_GT(sg.hits, 0);
}

TEST(AnswerCacheGridTest, DeltaTiesGoToTheNewestInsertOnBothPaths) {
  // Two cached balls at the same distance from the probe tie on δ = 0.75;
  // the newer insert must win whatever order the probe visits them in.
  for (const bool enable_grid : {true, false}) {
    SCOPED_TRACE(enable_grid ? "grid" : "linear");
    AnswerCacheConfig cfg;
    cfg.delta_min = 0.7;
    cfg.enable_grid = enable_grid;
    AnswerCache cache(cfg);
    CachedAnswer older;
    older.q = query::Query({0.4375, 0.5}, 0.125);
    older.mean = 1.0;
    cache.Insert("g", older);
    CachedAnswer newer;
    newer.q = query::Query({0.5625, 0.5}, 0.125);
    newer.mean = 2.0;
    cache.Insert("g", newer);
    // Far-away fillers make the group large enough for the grid path.
    for (int i = 0; i < 40; ++i) {
      CachedAnswer filler;
      filler.q = query::Query({5.0 + i, 5.0}, 0.125);
      cache.Insert("g", filler);
    }
    CachedAnswer out;
    ASSERT_TRUE(cache.Lookup("g", query::Query({0.5, 0.5}, 0.125), &out));
    EXPECT_EQ(out.delta, 0.75);
    EXPECT_EQ(out.mean, 2.0);
    EXPECT_EQ(cache.stats().grid_probes, enable_grid ? 1 : 0);
  }
}

// ---------- AnswerCache vs a brute-force reference model ----------

// The cache's contract, written as plainly as possible: a vector of entries,
// exact LRU by ticket, max-δ admission over the whole group (ties go to the
// newest insert), and replace-on-duplicate. Tickets are drawn in the same
// places as the cache draws them (every insert, every hit), so the LRU
// victim is the same entry.
class ReferenceCache {
 public:
  ReferenceCache(size_t capacity, double delta_min)
      : capacity_(capacity), delta_min_(delta_min) {}

  bool Lookup(const std::string& group, const query::Query& q, CachedAnswer* out) {
    ++stats_.lookups;
    std::vector<Item>& items = groups_[group];
    Item* best = nullptr;
    double best_delta = 0.0;
    for (auto it = items.rbegin(); it != items.rend(); ++it) {  // Newest first.
      if (!query::Overlaps(q, it->answer.q)) continue;
      const double delta = it->answer.q == q ? 1.0 : query::DegreeOfOverlap(q, it->answer.q);
      if (delta >= delta_min_ && delta > best_delta) {
        best = &*it;
        best_delta = delta;
      }
    }
    if (best == nullptr) {
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    best->last_used = ticket_++;
    *out = best->answer;
    out->delta = best_delta;
    return true;
  }

  void Insert(const std::string& group, const CachedAnswer& answer) {
    std::vector<Item>& items = groups_[group];
    const uint64_t stamp = ticket_++;
    auto dup = std::find_if(items.begin(), items.end(),
                            [&](const Item& e) { return e.answer.q == answer.q; });
    const bool replaced = dup != items.end();
    if (replaced) items.erase(dup);
    items.push_back(Item{answer, stamp});
    if (replaced) return;
    ++stats_.inserts;
    if (items.size() > capacity_) {
      items.erase(std::min_element(items.begin(), items.end(),
                                   [](const Item& a, const Item& b) {
                                     return a.last_used < b.last_used;
                                   }));
      ++stats_.evictions;
    }
  }

  size_t EraseGroupsWithPrefix(const std::string& prefix) {
    size_t erased = 0;
    for (auto& [group, items] : groups_) {
      if (group.compare(0, prefix.size(), prefix) != 0) continue;
      erased += items.size();
      items.clear();
    }
    return erased;
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& kv : groups_) n += kv.second.size();
    return n;
  }
  const AnswerCacheStats& stats() const { return stats_; }

 private:
  struct Item {
    CachedAnswer answer;
    uint64_t last_used;  // Insert ticket, then the ticket of the last hit.
  };
  const size_t capacity_;
  const double delta_min_;
  std::map<std::string, std::vector<Item>> groups_;  // Oldest insert first.
  uint64_t ticket_ = 1;
  AnswerCacheStats stats_;
};

// Replays one seeded stream of lookups, inserts (with exact-repeat
// replacements) and prefix erases against the cache, grid on and off, and
// against the reference, and requires the same outcome at every step.
TEST(AnswerCacheReferenceTest, MatchesBruteForceModelStepForStep) {
  for (const bool enable_grid : {true, false}) {
    SCOPED_TRACE(enable_grid ? "grid" : "linear");
    AnswerCacheConfig cfg;
    cfg.capacity_per_shard = 256;
    cfg.delta_min = 0.93;
    cfg.enable_grid = enable_grid;
    AnswerCache cache(cfg);
    ReferenceCache ref(cfg.capacity_per_shard, cfg.delta_min);

    util::Rng rng(4231);
    const std::vector<std::string> groups = {"ds/g0/Q1", "ds/g0/Q2", "ds/g1/Q1"};
    // More hot spots than capacity, so every group evicts throughout.
    std::vector<query::Query> spots;
    for (int i = 0; i < 1500; ++i) {
      spots.push_back(query::Query({rng.Uniform(0.05, 0.95), rng.Uniform(0.05, 0.95)},
                                   rng.Uniform(0.09, 0.11)));
    }
    std::vector<query::Query> seen;
    int64_t replacements = 0;
    for (int step = 0; step < 24000; ++step) {
      if (step % 2500 == 2499) {
        const std::string prefix = step % 5000 == 4999 ? "ds/g1/" : "ds/g0/";
        ASSERT_EQ(cache.EraseGroupsWithPrefix(prefix), ref.EraseGroupsWithPrefix(prefix))
            << "step " << step;
        continue;
      }
      const std::string& group = groups[rng.UniformInt(groups.size())];
      const bool repeat = !seen.empty() && rng.Uniform(0.0, 1.0) < 0.05;
      query::Query q;
      if (repeat) {
        q = seen[rng.UniformInt(seen.size())];
      } else {
        const query::Query& h = spots[rng.UniformInt(spots.size())];
        q = query::Query({h.center[0] + rng.Gaussian(0.0, 0.01),
                          h.center[1] + rng.Gaussian(0.0, 0.01)},
                         h.theta * (1.0 + rng.Gaussian(0.0, 0.02)));
        seen.push_back(q);
      }
      CachedAnswer got, want;
      const bool hit = cache.Lookup(group, q, &got);
      ASSERT_EQ(hit, ref.Lookup(group, q, &want)) << "step " << step;
      if (hit) {
        ASSERT_EQ(got.mean, want.mean) << "step " << step;
        ASSERT_EQ(got.delta, want.delta) << "step " << step;
        ASSERT_TRUE(query::Overlaps(q, got.q)) << "step " << step;
        ASSERT_GE(got.delta, cfg.delta_min) << "step " << step;
      }
      if (!hit || repeat) {
        CachedAnswer ins;
        ins.q = q;
        ins.mean = static_cast<double>(step);
        if (repeat) ++replacements;
        cache.Insert(group, ins);
        ref.Insert(group, ins);
      }
      ASSERT_EQ(cache.size(), ref.size()) << "step " << step;
    }
    const AnswerCacheStats got = cache.stats();
    const AnswerCacheStats& want = ref.stats();
    EXPECT_EQ(got.lookups, want.lookups);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.inserts, want.inserts);
    EXPECT_EQ(got.evictions, want.evictions);
    // The probe-path split is the cache's own business; the reference
    // cannot predict it, only that a grid-less cache never takes the grid.
    EXPECT_LE(got.grid_probes + got.linear_probes, got.lookups);
    if (enable_grid) {
      EXPECT_GT(got.grid_probes, 0);
    } else {
      EXPECT_EQ(got.grid_probes, 0);
    }
    // The stream really exercised every path.
    EXPECT_GT(want.hits, 0);
    EXPECT_GT(want.evictions, 0);
    EXPECT_GT(replacements, 0);
  }
}

// ---------- AnswerCache: shared reads under concurrent writes ----------

// Readers hammer Lookup (under the shared reader lock) while a writer
// interleaves Insert and EraseGroupsWithPrefix. Every hit
// must return an internally consistent entry — the payload invariant ties
// mean, pieces and the query center together, so a torn read would trip it
// — and the monotone counters must stay exact. Run under TSan by the CI
// concurrency job (suite name matches its ^AnswerCache filter).
TEST(AnswerCacheConcurrencyTest, LookupsNeverTornDuringInsertAndErase) {
  AnswerCacheConfig cfg;
  cfg.delta_min = 0.95;
  cfg.capacity_per_shard = 64;
  AnswerCache cache(cfg);

  // Payload invariant: mean encodes the center, pieces' size and intercept
  // re-encode the mean.
  auto make_answer = [](double cx, int pieces) {
    CachedAnswer a;
    a.q = query::Query({cx, 0.5}, 0.1);
    a.mean = cx * 1000.0 + pieces;
    a.pieces.resize(static_cast<size_t>(pieces));
    for (auto& piece : a.pieces) piece.intercept = a.mean;
    return a;
  };
  auto check_consistent = [](const CachedAnswer& a) {
    const double want_mean =
        a.q.center[0] * 1000.0 + static_cast<double>(a.pieces.size());
    if (a.mean != want_mean) return false;
    for (const auto& piece : a.pieces) {
      if (piece.intercept != a.mean) return false;
    }
    return true;
  };

  // Seed both groups so readers have hits from the start.
  for (int i = 0; i < 32; ++i) {
    cache.Insert("ds/g0/Q1", make_answer(0.01 * i, 1 + (i % 4)));
    cache.Insert("ds/g0/Q2", make_answer(0.01 * i, 1 + (i % 4)));
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reader_hits{0};
  std::atomic<int64_t> reader_lookups{0};
  std::atomic<bool> torn{false};
  std::atomic<int> running{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&cache, &stop, &reader_hits, &reader_lookups, &torn,
                          &running, &check_consistent, r] {
      util::Rng rng(static_cast<uint64_t>(1000 + r));
      bool first = true;
      while (!stop.load(std::memory_order_acquire)) {
        const std::string group = (r % 2 == 0) ? "ds/g0/Q1" : "ds/g0/Q2";
        const query::Query probe({0.01 * rng.UniformInt(32), 0.5}, 0.1);
        CachedAnswer out;
        reader_lookups.fetch_add(1, std::memory_order_relaxed);
        if (cache.Lookup(group, probe, &out)) {
          reader_hits.fetch_add(1, std::memory_order_relaxed);
          if (!check_consistent(out)) torn.store(true, std::memory_order_release);
        }
        if (first) running.fetch_add(1, std::memory_order_release);
        first = false;
      }
    });
  }
  // The writer finishes its rounds in a few milliseconds, so it starts only
  // once every reader is looping: on a loaded host the readers could
  // otherwise be scheduled after it is done and race nothing.
  while (running.load(std::memory_order_acquire) < 4) std::this_thread::yield();

  // Writer: replacement inserts, fresh inserts (forcing evictions), and
  // periodic prefix erases racing the readers.
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 32; ++i) {
      cache.Insert("ds/g0/Q1", make_answer(0.01 * i, 1 + ((i + round) % 4)));
    }
    for (int i = 0; i < 80; ++i) {
      cache.Insert("ds/g0/Q2", make_answer(0.01 * (i % 40) + round * 1e-4,
                                           1 + ((i + round) % 3)));
    }
    if (round % 10 == 9) {
      cache.EraseGroupsWithPrefix("ds/g0/Q2");
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(torn.load()) << "a lookup observed a torn cache entry";
  EXPECT_GT(reader_hits.load(), 0);

  // Counters are exact: every lookup is classified as exactly one hit or
  // miss, with no drops under the concurrent interleaving.
  const AnswerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_GE(stats.lookups, reader_lookups.load());
  EXPECT_EQ(stats.hits, reader_hits.load());
  // The readers walked grid cells (raw Entry pointers) between the
  // writer's evictions and replacements, not only the linear probe.
  EXPECT_GT(stats.grid_probes, 0);
}

// ---------- ModelCatalog sharding ----------

TEST(ModelCatalogShardingTest, ManyDatasetsAcrossShards) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) names.push_back("ds" + std::to_string(i));
  for (const std::string& n : names) {
    ASSERT_TRUE(
        catalog.Register(n, &d->dataset->table, d->kdtree.get(), TestOptions()).ok());
  }
  EXPECT_EQ(catalog.size(), names.size());
  std::vector<std::string> sorted_names = names;
  std::sort(sorted_names.begin(), sorted_names.end());
  EXPECT_EQ(catalog.Names(), sorted_names);  // Sorted, shard layout invisible.
  for (const std::string& n : names) EXPECT_TRUE(catalog.Contains(n));
  EXPECT_FALSE(catalog.Contains("ds12"));
  // Get without training works across shards.
  for (const std::string& n : names) {
    auto snap = catalog.Get(n);
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(snap->model, nullptr);
    EXPECT_NE(snap->engine, nullptr);
  }
}

// ---------- QueryRouter: agreement with standalone layers ----------

TEST(QueryRouterTest, ExactPolicyMatchesExactEngineBitForBit) {
  TestData* d = SharedData();
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;
  cfg.enable_cache = false;
  QueryRouter router(SharedCatalog(), cfg);

  for (const Request& r : MixedWorkload(60, 21)) {
    auto got = router.Execute(r);
    if (r.kind == QueryKind::kQ1MeanValue) {
      auto want = d->engine->MeanValue(r.q);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) continue;  // Empty subspace propagates as NotFound.
      EXPECT_EQ(got->source, AnswerSource::kExact);
      EXPECT_EQ(got->mean, want->mean);  // Bit-for-bit.
    } else {
      auto want = d->engine->Regression(r.q);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) continue;
      ASSERT_EQ(got->pieces.size(), 1u);
      EXPECT_EQ(got->pieces[0].intercept, want->intercept);
      EXPECT_EQ(got->pieces[0].slope, want->slope);
    }
  }
}

TEST(QueryRouterTest, ModelPolicyMatchesLlmModelBitForBit) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kModelOnly;
  cfg.enable_cache = false;
  QueryRouter router(SharedCatalog(), cfg);
  auto snap = SharedCatalog()->Get("r1");  // Trained at set-up.
  ASSERT_TRUE(snap.ok());

  for (const Request& r : MixedWorkload(60, 22)) {
    auto got = router.Execute(r);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->source, AnswerSource::kModel);
    if (r.kind == QueryKind::kQ1MeanValue) {
      auto want = snap->model->PredictMean(r.q);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got->mean, *want);  // Bit-for-bit.
    } else {
      auto want = snap->model->RegressionQuery(r.q);
      ASSERT_TRUE(want.ok());
      ASSERT_EQ(got->pieces.size(), want->size());
      for (size_t i = 0; i < want->size(); ++i) {
        EXPECT_EQ(got->pieces[i].intercept, (*want)[i].intercept);
        EXPECT_EQ(got->pieces[i].slope, (*want)[i].slope);
        EXPECT_EQ(got->pieces[i].weight, (*want)[i].weight);
        EXPECT_EQ(got->pieces[i].prototype_id, (*want)[i].prototype_id);
      }
    }
  }
}

TEST(QueryRouterTest, ExactOnlyPolicyNeverTriggersTraining) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  ASSERT_TRUE(
      catalog.Register("ds", &d->dataset->table, d->kdtree.get(), TestOptions()).ok());
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;
  cfg.enable_cache = false;
  QueryRouter router(&catalog, cfg);

  auto got = router.Execute(Request::Q1("ds", query::Query({0.5, 0.5}, 0.12)));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->source, AnswerSource::kExact);
  // The catalog was never asked to train.
  auto snap = catalog.Get("ds");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->model, nullptr);
}

TEST(QueryRouterTest, UntrainedDatasetIsAnsweredExactlyAndStaysUntrained) {
  // Serving never trains: a registered dataset TrainAll has not reached
  // has no model, so the hybrid policy answers every query exactly.
  TestData* d = SharedData();
  ModelCatalog catalog;
  ASSERT_TRUE(
      catalog.Register("ds", &d->dataset->table, d->kdtree.get(), TestOptions()).ok());
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kHybrid;
  cfg.enable_cache = false;
  QueryRouter router(&catalog, cfg);

  int64_t answered = 0;
  for (const Request& r : MixedWorkload(40, 23, 0.1, 0.9, "ds")) {
    auto got = router.Execute(r);
    if (r.kind == QueryKind::kQ1MeanValue) {
      auto want = d->engine->MeanValue(r.q);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) continue;  // Empty subspace propagates as NotFound.
      EXPECT_EQ(got->source, AnswerSource::kExact);
      EXPECT_EQ(got->mean, want->mean);  // Bit-for-bit.
    } else {
      auto want = d->engine->Regression(r.q);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) continue;
      EXPECT_EQ(got->source, AnswerSource::kExact);
      ASSERT_EQ(got->pieces.size(), 1u);
      EXPECT_EQ(got->pieces[0].intercept, want->intercept);
      EXPECT_EQ(got->pieces[0].slope, want->slope);
    }
    ++answered;
  }
  EXPECT_GT(answered, 0);
  EXPECT_EQ(router.Stats().exact_fallbacks, answered);
  auto snap = catalog.Get("ds");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->model, nullptr);
  EXPECT_EQ(snap->generation, 0);
}

TEST(QueryRouterTest, ModelOnlyRefusesUntrainedDatasetUntilTrainAll) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  ASSERT_TRUE(
      catalog.Register("ds", &d->dataset->table, d->kdtree.get(), TestOptions()).ok());
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kModelOnly;
  cfg.enable_cache = false;
  QueryRouter router(&catalog, cfg);
  const Request r = Request::Q1("ds", query::Query({0.5, 0.5}, 0.12));

  auto refused = router.Execute(r);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);
  auto untrained = catalog.Get("ds");
  ASSERT_TRUE(untrained.ok());
  EXPECT_EQ(untrained->model, nullptr);

  ASSERT_TRUE(catalog.TrainAll().ok());
  auto got = router.Execute(r);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->source, AnswerSource::kModel);
}

TEST(QueryRouterTest, WrongDimensionQueryIsRejected) {
  QueryRouter router(SharedCatalog(), RouterConfig());
  auto got = router.Execute(
      Request::Q1("r1", query::Query({0.5, 0.5, 0.5}, 0.1)));  // 3-d vs 2-d.
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(router.Stats().errors, 1);
}

TEST(QueryRouterTest, NonFiniteCenterOrBadThetaIsRejected) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;
  QueryRouter router(SharedCatalog(), cfg);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<query::Query> bad = {
      query::Query({nan, 0.5}, 0.1), query::Query({0.5, 0.5}, 0.0),
      query::Query({0.5, 0.5}, -0.1), query::Query({0.5, 0.5}, nan)};
  for (const query::Query& q : bad) {
    for (const Request& r : {Request::Q1("r1", q), Request::Q2("r1", q)}) {
      auto got = router.Execute(r);
      ASSERT_FALSE(got.ok()) << q.ToString();
      EXPECT_EQ(got.status().code(), util::StatusCode::kInvalidArgument)
          << q.ToString();
    }
  }
  EXPECT_EQ(router.Stats().errors, static_cast<int64_t>(2 * bad.size()));
  EXPECT_TRUE(router.Execute(Request::Q1("r1", query::Query({0.5, 0.5}, 0.1))).ok());
}

TEST(QueryRouterTest, HybridRoutesByTrainedRegion) {
  TestData* d = SharedData();
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kHybrid;
  cfg.enable_cache = false;
  QueryRouter router(SharedCatalog(), cfg);

  // Inside the trained region: answered by the model.
  auto in = router.Execute(Request::Q1("r1", query::Query({0.5, 0.5}, 0.12)));
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->source, AnswerSource::kModel);

  // Far outside [0,1]^2 but with a ball that still reaches data: the
  // vigilance test fails and the router falls back to the exact engine.
  query::Query far({1.5, 1.5}, 1.0);
  auto out = router.Execute(Request::Q1("r1", far));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->source, AnswerSource::kExact);
  EXPECT_EQ(out->mean, d->engine->MeanValue(far)->mean);

  ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.total_queries, 2);
  EXPECT_EQ(stats.model_answers, 1);
  EXPECT_EQ(stats.exact_fallbacks, 1);
}

TEST(QueryRouterTest, CacheHitOnRepeatedQuery) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;  // The cache serves the exact path.
  cfg.enable_cache = true;
  cfg.cache.delta_min = 0.95;
  QueryRouter router(SharedCatalog(), cfg);

  Request r = Request::Q1("r1", query::Query({0.4, 0.6}, 0.1));
  auto first = router.Execute(r);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->source, AnswerSource::kExact);
  auto second = router.Execute(r);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->source, AnswerSource::kCache);
  EXPECT_EQ(second->mean, first->mean);
  EXPECT_DOUBLE_EQ(second->cache_delta, 1.0);

  AnswerCacheStats cache_stats = router.CacheStats();
  EXPECT_EQ(cache_stats.hits, 1);
  EXPECT_EQ(router.Stats().cache_hits, 1);
}

TEST(QueryRouterTest, ModelRoutedRequestsNeverTouchTheCache) {
  // A model answer costs about what a lookup does, so the δ-cache sits on
  // the exact branch only: a model-routed request never probes or inserts,
  // and its answer is bit-for-bit the cache-off router's.
  const auto expect_same = [](const ExecResult& got, const ExecResult& want,
                              size_t i) {
    ASSERT_EQ(got.ok(), want.ok()) << "request " << i;
    if (!got.ok()) return;
    EXPECT_EQ(got->source, AnswerSource::kModel) << "request " << i;
    EXPECT_EQ(got->mean, want->mean) << "request " << i;
    ASSERT_EQ(got->pieces.size(), want->pieces.size()) << "request " << i;
    for (size_t p = 0; p < got->pieces.size(); ++p) {
      EXPECT_EQ(got->pieces[p].intercept, want->pieces[p].intercept);
      EXPECT_EQ(got->pieces[p].slope, want->pieces[p].slope);
      EXPECT_EQ(got->pieces[p].weight, want->pieces[p].weight);
    }
  };
  RouterConfig on;
  on.enable_cache = true;
  on.cache.delta_min = 0.5;  // Generous: a probe would hit often.
  RouterConfig off = on;
  off.enable_cache = false;

  // Hybrid, in-region stream (each request twice, so a repeat would hit).
  QueryRouter hybrid_off(SharedCatalog(), off);
  std::vector<Request> in_region;
  for (const Request& r : MixedWorkload(120, 23)) {
    auto got = hybrid_off.Execute(r);
    if (got.ok() && got->source == AnswerSource::kModel) {
      in_region.push_back(r);
      in_region.push_back(r);
    }
  }
  ASSERT_GT(in_region.size(), 100u);
  QueryRouter hybrid_on(SharedCatalog(), on);
  for (size_t i = 0; i < in_region.size(); ++i) {
    expect_same(hybrid_on.Execute(in_region[i]),
                hybrid_off.Execute(in_region[i]), i);
  }
  EXPECT_EQ(hybrid_on.CacheStats().lookups, 0);
  EXPECT_EQ(hybrid_on.CacheStats().inserts, 0);

  // kModelOnly: every request, in region or not, is model-routed.
  on.policy = off.policy = RoutePolicy::kModelOnly;
  QueryRouter model_on(SharedCatalog(), on);
  QueryRouter model_off(SharedCatalog(), off);
  std::vector<Request> stream = MixedWorkload(60, 24, -0.5, 1.5);
  stream.insert(stream.end(), stream.begin(), stream.end());
  for (size_t i = 0; i < stream.size(); ++i) {
    expect_same(model_on.Execute(stream[i]), model_off.Execute(stream[i]), i);
  }
  EXPECT_EQ(model_on.CacheStats().lookups, 0);
  EXPECT_EQ(model_on.CacheStats().inserts, 0);

  // Walk θ up from an in-region query to the first one the vigilance test
  // rejects: neighbours on either side of the boundary δ-overlap strongly.
  query::Query q_in({0.5, 0.5}, 0.12);
  query::Query q_out = q_in;
  for (;;) {
    q_out.theta += 0.01;
    ASSERT_LT(q_out.theta, 2.0) << "no out-of-region θ at this center";
    auto got = hybrid_off.Execute(Request::Q1("r1", q_out));
    ASSERT_TRUE(got.ok()) << got.status();
    if (got->source == AnswerSource::kExact) break;
    q_in = q_out;
  }
  ASSERT_GE(query::DegreeOfOverlap(q_in, q_out), on.cache.delta_min);

  on.policy = RoutePolicy::kHybrid;
  QueryRouter router(SharedCatalog(), on);
  auto exact = router.Execute(Request::Q1("r1", q_out));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->source, AnswerSource::kExact);
  auto repeat = router.Execute(Request::Q1("r1", q_out));  // Out of region.
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->source, AnswerSource::kCache);
  EXPECT_EQ(repeat->mean, exact->mean);
  auto near = router.Execute(Request::Q1("r1", q_in));  // In region.
  ASSERT_TRUE(near.ok());
  EXPECT_EQ(near->source, AnswerSource::kModel);
  EXPECT_EQ(near->mean, hybrid_off.Execute(Request::Q1("r1", q_in))->mean);
  EXPECT_EQ(router.CacheStats().lookups, 2);
  EXPECT_EQ(router.CacheStats().inserts, 1);
}

// ---------- Overload shedding (graceful degradation) ----------

TEST(OverloadSheddingTest, SaturatedBatchShedsToCacheOrRejects) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;  // Only exact answers are cached.
  cfg.enable_cache = true;
  cfg.cache.delta_min = 1.0;  // Only exact repeats hit: deterministic.
  cfg.num_threads = 1;
  cfg.queue_capacity = 1;
  QueryRouter router(SharedCatalog(), cfg);

  // Warm the cache inline (single Execute never touches the pool).
  Request warm = Request::Q1("r1", query::Query({0.5, 0.5}, 0.1));
  ASSERT_TRUE(router.Execute(warm).ok());

  // Saturate: gate the lone worker, then fill the 1-slot queue.
  std::mutex gate;
  gate.lock();
  util::ThreadPool* pool = router.pool_for_testing();
  pool->Submit([&gate] { gate.lock(); gate.unlock(); });
  while (pool->queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pool->TrySubmit([] {}));

  // Every batch slot now fails TrySubmit: the cached query is served from
  // the δ-cache, the cold one is rejected with the typed status.
  Request cold = Request::Q1("r1", query::Query({0.2, 0.8}, 0.1));
  auto results = router.ExecuteBatch({warm, cold});
  gate.unlock();

  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0]->source, AnswerSource::kCache);
  EXPECT_EQ(results[0]->mean, router.Execute(warm)->mean);
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), util::StatusCode::kResourceExhausted);
  // The shed status is the contract the wire client's retry layer keys on:
  // overload is transient, so a backoff-and-retry is the right response —
  // unlike a bad query or an expired deadline, which must never be retried.
  EXPECT_TRUE(util::IsRetryable(results[1].status().code()));
  EXPECT_FALSE(util::IsRetryable(util::StatusCode::kInvalidArgument));
  EXPECT_FALSE(util::IsRetryable(util::StatusCode::kDeadlineExceeded));

  ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.shed, 2);
  EXPECT_EQ(stats.errors, 1);
}

TEST(OverloadSheddingTest, ModelOnlyShedRequestsAreRejectedWithoutAProbe) {
  // Only exact answers are cached, so a kModelOnly router's cache never
  // fills: a shed request there is always rejected, and never probes.
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kModelOnly;
  cfg.enable_cache = true;
  cfg.cache.delta_min = 1.0;
  cfg.num_threads = 1;
  cfg.queue_capacity = 1;
  QueryRouter router(SharedCatalog(), cfg);

  Request warm = Request::Q1("r1", query::Query({0.5, 0.5}, 0.1));
  ASSERT_TRUE(router.Execute(warm).ok());

  std::mutex gate;
  gate.lock();
  util::ThreadPool* pool = router.pool_for_testing();
  pool->Submit([&gate] { gate.lock(); gate.unlock(); });
  while (pool->queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pool->TrySubmit([] {}));

  auto results = router.ExecuteBatch({warm, warm});
  gate.unlock();

  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kResourceExhausted);
  }
  ServiceSnapshot stats = router.Stats();
  EXPECT_EQ(stats.shed, 2);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(router.CacheStats().lookups, 0);
  EXPECT_EQ(router.CacheStats().inserts, 0);
}

TEST(OverloadSheddingTest, UnsaturatedBatchNeverSheds) {
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kModelOnly;
  cfg.enable_cache = false;
  cfg.num_threads = 2;
  cfg.queue_capacity = 256;
  QueryRouter router(SharedCatalog(), cfg);

  auto results = router.ExecuteBatch(MixedWorkload(100, 41));
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  EXPECT_EQ(router.Stats().shed, 0);
}

// ---------- Router exact scans == a pooled standalone engine ----------

TEST(QueryRouterTest, ExactParallelismMatchesStandaloneEngine) {
  TestData* d = SharedData();
  ModelCatalog catalog;
  ASSERT_TRUE(
      catalog.Register("ds", &d->dataset->table, d->kdtree.get(), TestOptions()).ok());
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;
  cfg.enable_cache = false;
  QueryRouter router(&catalog, cfg);

  // The catalog's engines run their partitions inline; this one fans the
  // same data-driven plan out on 4 workers.
  util::ThreadPool pool(4);
  query::ParallelOptions par;
  par.pool = &pool;
  const query::ExactEngine pooled(d->dataset->table, *d->kdtree,
                                  storage::LpNorm::L2(), par);

  int64_t answered = 0;
  for (const Request& r : MixedWorkload(40, 67)) {
    Request req = r;
    req.dataset = "ds";
    auto got = router.Execute(req);
    if (req.kind == QueryKind::kQ1MeanValue) {
      auto want = pooled.MeanValue(req.q);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) continue;
      ++answered;
      EXPECT_EQ(got->source, AnswerSource::kExact);
      // Same partition plan, same plan-order merge: the pool never changes
      // an answer's bits.
      EXPECT_EQ(got->mean, want->mean);
    } else {
      auto want = pooled.Regression(req.q);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) continue;
      ++answered;
      ASSERT_EQ(got->pieces.size(), 1u);
      EXPECT_EQ(got->pieces[0].intercept, want->intercept);
      EXPECT_EQ(got->pieces[0].slope, want->slope);
    }
  }
  EXPECT_GT(answered, 20);
}

// ---------- Concurrency: batched == sequential, bit for bit ----------

TEST(QueryRouterTest, ParallelBatchMatchesSequentialBitForBit) {
  RouterConfig seq_cfg;
  seq_cfg.policy = RoutePolicy::kHybrid;
  seq_cfg.enable_cache = false;  // Cache admission is order-dependent.
  seq_cfg.num_threads = 0;
  QueryRouter sequential(SharedCatalog(), seq_cfg);

  const std::vector<Request> batch = MixedWorkload(200, 31, 0.05, 0.95);
  RouterConfig par_cfg = seq_cfg;
  par_cfg.num_threads = 4;
  // Room for the whole batch: every request must really execute for the
  // bit-for-bit comparison (shedding is covered by OverloadShedding tests).
  par_cfg.queue_capacity = batch.size();
  QueryRouter parallel(SharedCatalog(), par_cfg);

  std::vector<ExecResult> want;
  want.reserve(batch.size());
  for (const Request& r : batch) want.push_back(sequential.Execute(r));
  const std::vector<ExecResult> got = parallel.ExecuteBatch(batch);

  ASSERT_EQ(got.size(), want.size());
  int64_t q1 = 0, q2 = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ok(), want[i].ok()) << "request " << i;
    if (!got[i].ok()) {
      EXPECT_EQ(got[i].status().code(), want[i].status().code());
      continue;
    }
    EXPECT_EQ(got[i]->source, want[i]->source) << "request " << i;
    if (batch[i].kind == QueryKind::kQ1MeanValue) {
      ++q1;
      EXPECT_EQ(got[i]->mean, want[i]->mean) << "request " << i;
    } else {
      ++q2;
      ASSERT_EQ(got[i]->pieces.size(), want[i]->pieces.size()) << "request " << i;
      for (size_t p = 0; p < got[i]->pieces.size(); ++p) {
        EXPECT_EQ(got[i]->pieces[p].intercept, want[i]->pieces[p].intercept);
        EXPECT_EQ(got[i]->pieces[p].slope, want[i]->pieces[p].slope);
        EXPECT_EQ(got[i]->pieces[p].weight, want[i]->pieces[p].weight);
      }
    }
  }
  EXPECT_GT(q1, 0);
  EXPECT_GT(q2, 0);
  EXPECT_EQ(parallel.Stats().total_queries, static_cast<int64_t>(batch.size()));
  EXPECT_EQ(parallel.Stats().shed, 0);
}

// ---------- Cache accuracy: δ-admission respects the error bound ----------

TEST(AnswerCacheAccuracyTest, DeltaAdmissionKeepsFvuWithinBound) {
  // Serve a clustered workload with exact execution + caching. Every answer
  // the cache substitutes (δ ≥ δ_min) is compared against the true exact
  // answer for *that* query; the FVU of the substituted answers must stay
  // within the configured bound.
  constexpr double kDeltaMin = 0.95;
  constexpr double kFvuBound = 0.05;

  TestData* d = SharedData();
  RouterConfig cfg;
  cfg.policy = RoutePolicy::kExactOnly;  // Isolate cache-induced error.
  cfg.enable_cache = true;
  cfg.cache.delta_min = kDeltaMin;
  cfg.cache.capacity_per_shard = 2048;
  QueryRouter router(SharedCatalog(), cfg);

  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(2, 0.40, 0.60, 0.12, 0.01, 17));
  eval::FvuAccumulator fvu;
  int64_t hits = 0;
  for (int i = 0; i < 600; ++i) {
    query::Query q = gen.Next();
    auto got = router.Execute(Request::Q1("r1", q));
    if (!got.ok()) continue;
    if (got->source != AnswerSource::kCache) continue;
    ++hits;
    EXPECT_GE(got->cache_delta, kDeltaMin);
    auto exact = d->engine->MeanValue(q);
    ASSERT_TRUE(exact.ok());
    fvu.Add(exact->mean, got->mean);
  }
  ASSERT_GT(hits, 10) << "clustered workload produced too few cache hits";
  EXPECT_LE(fvu.Fvu(), kFvuBound)
      << "δ-admitted answers drifted beyond the accuracy bound; hits=" << hits;
}

// ---------- ServiceStats ----------

TEST(ServiceStatsTest, SnapshotAggregatesCounters) {
  ServiceStats stats(/*latency_window=*/8);
  for (int i = 0; i < 10; ++i) {
    QueryOutcome o;
    o.latency_nanos = 1000000;
    o.ok = true;
    o.cache_hit = i % 2 == 0;
    o.used_exact = i % 2 == 1;
    stats.Record(o);
  }
  ServiceSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.total_queries, 10);
  EXPECT_EQ(s.cache_hits, 5);
  EXPECT_EQ(s.exact_fallbacks, 5);
  EXPECT_EQ(s.errors, 0);
  EXPECT_DOUBLE_EQ(s.CacheHitRate(), 0.5);
  EXPECT_DOUBLE_EQ(s.ExactFallbackRate(), 0.5);
  EXPECT_NEAR(s.p50_ms, 1.0, 1e-9);
  EXPECT_GT(s.qps, 0.0);

  stats.Reset();
  EXPECT_EQ(stats.Snapshot().total_queries, 0);
}

TEST(ServiceStatsTest, LifecycleCountersRoundTripThroughSnapshot) {
  ServiceStats stats;

  QueryOutcome deadline;
  deadline.ok = false;
  deadline.deadline_exceeded = true;
  stats.Record(deadline);

  QueryOutcome cancelled;
  cancelled.ok = false;
  cancelled.cancelled = true;
  stats.Record(cancelled);

  QueryOutcome degraded;  // Model fallback under deadline pressure: still ok.
  degraded.ok = true;
  degraded.degraded = true;
  stats.Record(degraded);

  stats.RecordRetrain();
  stats.RecordRetrain();

  ServiceSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.total_queries, 3);
  EXPECT_EQ(s.errors, 2);
  EXPECT_EQ(s.deadline_exceeded, 1);
  EXPECT_EQ(s.cancelled, 1);
  EXPECT_EQ(s.degraded, 1);
  EXPECT_EQ(s.model_answers, 1);  // The degraded answer came from the model.
  EXPECT_EQ(s.retrains, 2);

  stats.Reset();
  ServiceSnapshot zero = stats.Snapshot();
  EXPECT_EQ(zero.deadline_exceeded, 0);
  EXPECT_EQ(zero.cancelled, 0);
  EXPECT_EQ(zero.degraded, 0);
  EXPECT_EQ(zero.retrains, 0);
}

}  // namespace
}  // namespace service
}  // namespace qreg
