// Shared test infrastructure for the service/query/lifecycle suites:
// dataset + engine fixtures (built once per process), catalog recipes,
// workload builders, a FakeClock for deterministic deadline tests, and
// blocking-gate helpers so concurrency tests synchronize on events instead
// of sleeps.

#ifndef QREG_TESTS_TEST_SUPPORT_H_
#define QREG_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "query/exact_engine.h"
#include "query/workload.h"
#include "service/model_catalog.h"
#include "service/query_router.h"
#include "storage/kdtree.h"
#include "storage/scan_index.h"
#include "util/clock.h"
#include "util/rng.h"

namespace qreg {
namespace testsupport {

// ---------- Deterministic time ----------

/// A manually-advanced util::Clock. Deadline tests inject it so expiry is a
/// test action (AdvanceNanos) rather than elapsed wall time.
class FakeClock : public util::Clock {
 public:
  explicit FakeClock(int64_t now_nanos = 0) : now_(now_nanos) {}

  int64_t NowNanos() const override {
    return now_.load(std::memory_order_acquire);
  }
  void AdvanceNanos(int64_t delta) {
    now_.fetch_add(delta, std::memory_order_acq_rel);
  }
  void SetNanos(int64_t now_nanos) {
    now_.store(now_nanos, std::memory_order_release);
  }

 private:
  std::atomic<int64_t> now_;
};

// ---------- Blocking gates ----------

/// One-shot gate: Wait() blocks until some thread calls Open(). The
/// deterministic replacement for sleep-and-hope synchronization.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

  /// Waits at most `timeout`; true if the gate opened in time.
  bool WaitFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return open_; });
  }

  bool opened() const {
    std::lock_guard<std::mutex> lock(mu_);
    return open_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// ---------- Dataset + engine fixtures ----------

/// A generated dataset with both access paths and a kd-tree-backed engine.
struct EngineFixture {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<storage::KdTree> kdtree;
  std::unique_ptr<storage::ScanIndex> scan;
  std::unique_ptr<query::ExactEngine> engine;  // kd-tree access path.

  storage::Table& table() { return dataset->table; }
};

inline std::unique_ptr<EngineFixture> MakeEngineFixture(size_t d, int64_t rows,
                                                        uint64_t seed) {
  auto f = std::make_unique<EngineFixture>();
  auto ds = data::MakeR1(d, rows, seed);
  EXPECT_TRUE(ds.ok());
  f->dataset = std::make_unique<data::Dataset>(std::move(ds).value());
  f->kdtree = std::make_unique<storage::KdTree>(f->dataset->table);
  f->scan = std::make_unique<storage::ScanIndex>(f->dataset->table);
  f->engine =
      std::make_unique<query::ExactEngine>(f->dataset->table, *f->kdtree);
  return f;
}

/// The service suites' shared dataset: R1, d=2, 6000 rows, seed 3. Built
/// once per process; never mutate it.
inline EngineFixture* SharedServiceFixture() {
  static EngineFixture* f =
      MakeEngineFixture(/*d=*/2, /*rows=*/6000, /*seed=*/3).release();
  return f;
}

/// The parallel-exact suites' shared dataset: R1, d=2, 20000 rows, seed 19.
/// Big enough that 16-partition plans have real work per chunk.
inline EngineFixture* SharedParallelFixture() {
  static EngineFixture* f =
      MakeEngineFixture(/*d=*/2, /*rows=*/20000, /*seed=*/19).release();
  return f;
}

// ---------- Catalog recipes ----------

/// The service suites' standard training recipe for SharedServiceFixture.
inline service::CatalogOptions DefaultCatalogOptions() {
  return service::CatalogOptions::ForCube(
      /*d=*/2, /*lo=*/0.0, /*hi=*/1.0, /*theta_mean=*/0.12,
      /*theta_stddev=*/0.02, /*a=*/0.15, /*max_pairs=*/2500, /*seed=*/7);
}

/// A catalog with SharedServiceFixture registered as "r1" and trained once
/// per process.
inline service::ModelCatalog* SharedCatalog() {
  static service::ModelCatalog* catalog = [] {
    auto* c = new service::ModelCatalog();
    EngineFixture* f = SharedServiceFixture();
    EXPECT_TRUE(c->Register("r1", &f->dataset->table, f->kdtree.get(),
                            DefaultCatalogOptions())
                    .ok());
    EXPECT_TRUE(c->TrainAll().ok());
    return c;
  }();
  return catalog;
}

// ---------- Workload builders ----------

/// Alternating Q1/Q2 requests against `dataset`, centers uniform in
/// [lo, hi]^2 with the service suites' radius distribution.
inline std::vector<service::Request> MixedWorkload(int64_t n, uint64_t seed,
                                                   double lo = 0.1,
                                                   double hi = 0.9,
                                                   std::string dataset = "r1") {
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(2, lo, hi, 0.12, 0.02, seed));
  std::vector<service::Request> reqs;
  reqs.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    query::Query q = gen.Next();
    reqs.push_back(i % 2 == 0 ? service::Request::Q1(dataset, std::move(q))
                              : service::Request::Q2(dataset, std::move(q)));
  }
  return reqs;
}

/// Uncorrelated random 2-d queries over [0,1]^2, θ in [0.05, 0.2] — the
/// cache-equivalence suites' probe stream.
inline std::vector<query::Query> RandomQueries(int64_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<query::Query> qs;
  qs.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    qs.emplace_back(
        std::vector<double>{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)},
        rng.Uniform(0.05, 0.2));
  }
  return qs;
}

/// The parallel-exact suites' query stream over SharedParallelFixture.
inline std::vector<query::Query> ParallelTestQueries(int64_t n, uint64_t seed) {
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(2, 0.05, 0.95, 0.15, 0.05, seed));
  return gen.Generate(n);
}

}  // namespace testsupport
}  // namespace qreg

#endif  // QREG_TESTS_TEST_SUPPORT_H_
