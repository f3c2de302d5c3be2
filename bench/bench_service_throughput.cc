// Service-layer throughput: batched QPS vs running-thread count, the
// δ-overlap semantic cache's hit rate / speedup vs δ_min on a clustered
// workload, and the cache's cost or gain on exact- vs model-routed traffic. This is the serving-side complement of the paper's Figure 12
// scalability experiment: instead of scaling the *data*, we scale the
// *query traffic* against a fixed dataset.
//
// Extra environment knobs (on top of bench_common's):
//   QREG_SERVICE_QUERIES   batch size per measurement (default 2000)

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "query/workload.h"
#include "service/model_catalog.h"
#include "service/query_router.h"
#include "util/env.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace qreg {
namespace bench {
namespace {

std::vector<service::Request> MakeRequests(const std::string& dataset,
                                           query::WorkloadConfig wl, int64_t n) {
  query::WorkloadGenerator gen(wl);
  std::vector<service::Request> reqs;
  reqs.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    query::Query q = gen.Next();
    reqs.push_back(i % 2 == 0 ? service::Request::Q1(dataset, std::move(q))
                              : service::Request::Q2(dataset, std::move(q)));
  }
  return reqs;
}

double MeasureQps(service::QueryRouter* router,
                  const std::vector<service::Request>& batch) {
  util::Stopwatch watch;
  const auto results = router->ExecuteBatch(batch);
  const double secs = watch.ElapsedSeconds();
  return secs > 0.0 ? static_cast<double>(batch.size()) / secs : 0.0;
}

int Run() {
  const BenchEnv env = BenchEnv::FromEnv();
  const int64_t queries =
      util::GetEnvInt64("QREG_SERVICE_QUERIES", std::max<int64_t>(2000, env.test_queries));
  PrintHeader("bench_service_throughput",
              "service layer: QPS vs threads, cache hit rate vs delta_min", env);

  DataBundle bundle = MakeR1Bundle(/*d=*/2, env.rows_r1, env.seed);
  const DatasetProfile& p = bundle.profile;

  service::ModelCatalog catalog;
  service::CatalogOptions opts = service::CatalogOptions::ForCube(
      2, p.center_lo, p.center_hi, p.theta_mean, p.theta_stddev,
      /*a=*/0.1, /*max_pairs=*/env.train_cap, env.seed + 1);
  auto reg = catalog.Register("r1", &bundle.table(), bundle.kdtree.get(), opts);
  if (!reg.ok()) {
    std::cerr << "register: " << reg << "\n";
    return 1;
  }
  util::Stopwatch train_watch;
  auto trained = catalog.TrainAll();
  if (!trained.ok()) {
    std::cerr << "train: " << trained << "\n";
    return 1;
  }
  auto snap = catalog.Get("r1");
  std::cout << "trained model: K=" << snap->model->num_prototypes()
            << " prototypes in " << util::Format("%.2f", train_watch.ElapsedSeconds())
            << " s\n\n";

  // --- Series A: QPS vs running threads (cache off) ---------------------
  // "exact" runs every query through the DBMS engine (heavy, embarrassingly
  // parallel); "hybrid" answers in-region queries from the model. A batch
  // runs on the calling thread plus the router's helper workers, so the
  // "threads" column counts both; the 1-thread row is the synchronous
  // baseline.
  const std::vector<service::Request> uniform = MakeRequests(
      "r1", query::WorkloadConfig::Cube(2, p.center_lo, p.center_hi,
                                        p.theta_mean, p.theta_stddev,
                                        env.seed + 2),
      queries);

  util::TablePrinter scaling(
      {"threads", "exact_qps", "exact_speedup", "hybrid_qps", "hybrid_speedup",
       "hybrid_p99_ms", "exact_fallback_rate"});
  double exact_base = 0.0, hybrid_base = 0.0;
  for (size_t workers : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
    service::RouterConfig exact_cfg;
    exact_cfg.policy = service::RoutePolicy::kExactOnly;
    exact_cfg.enable_cache = false;
    exact_cfg.num_threads = workers;
    service::QueryRouter exact_router(&catalog, exact_cfg);
    const double exact_qps = MeasureQps(&exact_router, uniform);

    service::RouterConfig hybrid_cfg;
    hybrid_cfg.policy = service::RoutePolicy::kHybrid;
    hybrid_cfg.enable_cache = false;
    hybrid_cfg.num_threads = workers;
    service::QueryRouter hybrid_router(&catalog, hybrid_cfg);
    const double hybrid_qps = MeasureQps(&hybrid_router, uniform);
    const service::ServiceSnapshot s = hybrid_router.Stats();

    if (workers == 0) {
      exact_base = exact_qps;
      hybrid_base = hybrid_qps;
    }
    scaling.AddRow({util::Format("%zu", workers + 1),
                    util::Format("%.0f", exact_qps),
                    util::Format("%.2fx", exact_base > 0 ? exact_qps / exact_base : 0.0),
                    util::Format("%.0f", hybrid_qps),
                    util::Format("%.2fx", hybrid_base > 0 ? hybrid_qps / hybrid_base : 0.0),
                    util::Format("%.3f", s.p99_ms),
                    util::Format("%.3f", s.ExactFallbackRate())});
  }
  EmitTable("bench_service_throughput", "qps_vs_threads", scaling, env);

  // --- Series B: semantic cache vs delta_min on a clustered workload ----
  // Small σθ and a tight center cluster make consecutive queries overlap
  // heavily, the regime where δ-admission pays off. The cache serves only
  // exact-routed requests, and this cluster lies inside the trained region,
  // so both routers run kExactOnly (under kHybrid the model answers it and
  // every hit rate below would read 0).
  const double span = p.center_hi - p.center_lo;
  const std::vector<service::Request> clustered = MakeRequests(
      "r1", query::WorkloadConfig::Cube(2, p.center_lo + 0.45 * span,
                                        p.center_lo + 0.55 * span, p.theta_mean,
                                        0.1 * p.theta_stddev, env.seed + 3),
      queries);

  util::TablePrinter cache_table(
      {"delta_min", "hit_rate", "qps", "speedup_vs_nocache", "evictions"});
  service::RouterConfig nocache_cfg;
  nocache_cfg.policy = service::RoutePolicy::kExactOnly;
  nocache_cfg.enable_cache = false;
  nocache_cfg.num_threads = 2;
  service::QueryRouter nocache_router(&catalog, nocache_cfg);
  const double nocache_qps = MeasureQps(&nocache_router, clustered);
  cache_table.AddRow({"off", "0.000", util::Format("%.0f", nocache_qps), "1.00x", "0"});

  double hit_rate_at_0_9 = 0.0;
  for (double delta_min : {0.99, 0.95, 0.9, 0.8, 0.7, 0.5}) {
    service::RouterConfig cfg;
    cfg.policy = service::RoutePolicy::kExactOnly;
    cfg.enable_cache = true;
    cfg.cache.delta_min = delta_min;
    cfg.cache.capacity_per_shard = 4096;
    cfg.num_threads = 2;
    service::QueryRouter router(&catalog, cfg);
    const double qps = MeasureQps(&router, clustered);
    const service::AnswerCacheStats cs = router.CacheStats();
    if (delta_min == 0.9) hit_rate_at_0_9 = cs.HitRate();
    cache_table.AddRow({util::Format("%.2f", delta_min),
                        util::Format("%.3f", cs.HitRate()),
                        util::Format("%.0f", qps),
                        util::Format("%.2fx", nocache_qps > 0 ? qps / nocache_qps : 0.0),
                        util::Format("%lld", static_cast<long long>(cs.evictions))});
  }
  EmitTable("bench_service_throughput", "cache_vs_delta_min", cache_table, env);
  // Gate: a routing change that starves the cache of this exact-routed,
  // heavily overlapping traffic is a bug, not a measurement.
  if (hit_rate_at_0_9 <= 0.0) {
    std::cerr << "FAIL: cache hit rate at delta_min 0.9 is 0 on clustered "
                 "exact-routed traffic\n";
    return 1;
  }

  // --- Series C: what the cache buys on each route ----------------------
  // Two hot spots. Wide balls centered just past the trained cube (θ two σ
  // above the mean) fail the vigilance test, so a hybrid router answers
  // them exactly: the traffic the cache is kept for. The narrow in-region
  // cluster of series B is answered by the model, which a cache-on router
  // must serve at the cache-off cost. kExactOnly on the wide spot isolates the route test's
  // cost on a hit (hybrid minus exact-only). Synchronous routers, median of
  // three fresh-router runs, so the µs/request column is one core's cost.
  const std::vector<service::Request> wide = MakeRequests(
      "r1", query::WorkloadConfig::Cube(2, p.center_hi, p.center_hi + 0.1 * span,
                                        p.theta_mean + 2.0 * p.theta_stddev,
                                        0.1 * p.theta_stddev, env.seed + 4),
      queries);
  struct RouteCase {
    const char* traffic;
    const std::vector<service::Request>* batch;
    service::RoutePolicy policy;
    bool cache;
  };
  const RouteCase route_cases[] = {
      {"wide (exact-routed)", &wide, service::RoutePolicy::kHybrid, false},
      {"wide (exact-routed)", &wide, service::RoutePolicy::kHybrid, true},
      {"wide (exact-routed)", &wide, service::RoutePolicy::kExactOnly, false},
      {"wide (exact-routed)", &wide, service::RoutePolicy::kExactOnly, true},
      {"narrow (model-routed)", &clustered, service::RoutePolicy::kHybrid, false},
      {"narrow (model-routed)", &clustered, service::RoutePolicy::kHybrid, true},
  };
  util::TablePrinter route_table({"traffic", "policy", "cache", "us_per_request",
                                  "hit_rate", "scan_share", "lookups"});
  int64_t model_routed_lookups = 0;
  for (const RouteCase& c : route_cases) {
    std::vector<double> us;
    service::ServiceSnapshot s;
    service::AnswerCacheStats cs;
    for (int rep = 0; rep < 3; ++rep) {
      service::RouterConfig cfg;
      cfg.policy = c.policy;
      cfg.enable_cache = c.cache;
      cfg.cache.delta_min = 0.9;
      cfg.cache.capacity_per_shard = 4096;
      cfg.num_threads = 0;
      service::QueryRouter router(&catalog, cfg);
      const double qps = MeasureQps(&router, *c.batch);
      us.push_back(qps > 0.0 ? 1e6 / qps : 0.0);
      s = router.Stats();
      cs = router.CacheStats();
    }
    std::sort(us.begin(), us.end());
    if (c.batch == &clustered) model_routed_lookups += cs.lookups;
    route_table.AddRow(
        {c.traffic,
         c.policy == service::RoutePolicy::kHybrid ? "hybrid" : "exact_only",
         c.cache ? "on" : "off", util::Format("%.2f", us[1]),
         util::Format("%.3f", cs.HitRate()),
         util::Format("%.3f", s.ExactFallbackRate()),
         util::Format("%lld", static_cast<long long>(cs.lookups))});
  }
  EmitTable("bench_service_throughput", "cache_vs_route", route_table, env);
  if (model_routed_lookups != 0) {
    std::cerr << "FAIL: model-routed traffic probed the cache "
              << model_routed_lookups << " times\n";
    return 1;
  }

  // --- Final service snapshot (operator view) ---------------------------
  service::RouterConfig final_cfg;
  final_cfg.policy = service::RoutePolicy::kHybrid;
  final_cfg.enable_cache = true;
  final_cfg.cache.delta_min = 0.9;
  final_cfg.num_threads = 2;
  std::vector<service::Request> mixed = clustered;
  mixed.insert(mixed.end(), wide.begin(), wide.end());
  service::QueryRouter final_router(&catalog, final_cfg);
  (void)final_router.ExecuteBatch(mixed);
  std::cout << "\nservice snapshot (hybrid, delta_min=0.9, narrow + wide "
               "hot spots):\n";
  const service::ServiceSnapshot final_snap = final_router.Stats();
  final_snap.PrintTo(std::cout);

  // Lifecycle/freshness counters as their own record so the bench-smoke
  // artifacts track them per commit (all zero on this deadline-free
  // workload; the table exists so new counters never break JSON consumers).
  util::TablePrinter lifecycle(
      {"shed", "deadline_exceeded", "cancelled", "degraded", "retrains"});
  lifecycle.AddRow(
      {util::Format("%lld", static_cast<long long>(final_snap.shed)),
       util::Format("%lld", static_cast<long long>(final_snap.deadline_exceeded)),
       util::Format("%lld", static_cast<long long>(final_snap.cancelled)),
       util::Format("%lld", static_cast<long long>(final_snap.degraded)),
       util::Format("%lld", static_cast<long long>(final_snap.retrains))});
  EmitTable("bench_service_throughput", "lifecycle_counters", lifecycle, env);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main() { return qreg::bench::Run(); }
