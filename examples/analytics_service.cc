// The in-process analytics service in action: register datasets in a model
// catalog, stand up a concurrent query router with a δ-overlap semantic
// cache, and serve Q1/Q2 traffic with per-service metrics.
//
// The 5-line service API:
//
//   service::ModelCatalog catalog;
//   catalog.Register("sensors", &table, &index, service::CatalogOptions::ForCube(2, 0, 1, 0.1, 0.05));
//   service::QueryRouter router(&catalog);
//   auto answer = router.Execute(service::Request::Q1("sensors", {{0.4, 0.6}, 0.15}));
//   router.Stats().PrintTo(std::cout);
//
// Build & run:  ./build/examples/analytics_service
//
// The same service over the wire (DESIGN.md §12):
//
//   ./build/examples/analytics_service --serve 7077 --loops=4
//   ./build/examples/analytics_service --connect 127.0.0.1:7077
//
// --serve stands the catalog up behind the framed-binary TCP front-end
// (net::Server on epoll; --loops=N spreads connections across N event loops
// via SO_REUSEPORT accept sharding) and drains on Ctrl-C; --connect issues
// one Q1 and one pipelined Q2 batch through net::Client, plus an
// already-expired deadline budget to show the typed rejection path.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "data/generator.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "query/workload.h"
#include "service/model_catalog.h"
#include "service/query_router.h"
#include "storage/kdtree.h"

using namespace qreg;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

/// --serve <port> [--loops=N]: the demo catalog behind the wire front-end.
int Serve(uint16_t port, size_t loops) {
  auto sensors = data::MakeR1(/*d=*/2, /*n=*/50000, /*seed=*/1);
  if (!sensors.ok()) {
    std::fprintf(stderr, "dataset generation failed\n");
    return 1;
  }
  storage::KdTree sensors_index(sensors->table);
  service::ModelCatalog catalog;
  auto reg = catalog.Register(
      "sensors", &sensors->table, &sensors_index,
      service::CatalogOptions::ForCube(2, 0.0, 1.0, 0.1, 0.05, /*a=*/0.1,
                                       /*max_pairs=*/15000, /*seed=*/7));
  if (!reg.ok()) {
    std::fprintf(stderr, "register failed: %s\n", reg.ToString().c_str());
    return 1;
  }
  std::printf("training 'sensors'...\n");
  auto trained = catalog.TrainAll();
  if (!trained.ok()) {
    std::fprintf(stderr, "train failed: %s\n", trained.ToString().c_str());
    return 1;
  }

  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kHybrid;
  cfg.cache.delta_min = 0.9;
  cfg.num_threads = 2;
  service::QueryRouter router(&catalog, cfg);

  net::ServerConfig server_cfg;
  server_cfg.port = port;
  server_cfg.bind_address = "127.0.0.1";
  server_cfg.event_loops = loops;
  net::Server server(&router, server_cfg);
  const util::Result<net::Endpoint> endpoint = server.Start();
  if (!endpoint.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 endpoint.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "serving 'sensors' on %s with %zu event loop(s)  "
      "(Ctrl-C drains and exits)\n",
      endpoint->ToString().c_str(), server.num_loops());

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("\ndraining...\n");
  server.Shutdown();
  std::printf("final service metrics:\n");
  const service::ServiceSnapshot snap = router.Stats();
  snap.PrintTo(std::cout);
  // Where each request ran: model-routed requests are answered on their
  // event loop; exact scans, cache hits and typed failures go to the
  // executor pool.
  std::printf("requests answered on the event loops: %lld, dispatched to "
              "executors: %lld\n",
              static_cast<long long>(snap.net.answered_on_loop),
              static_cast<long long>(snap.net.dispatched_to_executors));
  return 0;
}

/// --connect <host>:<port>: one Q1, one pipelined Q2 batch, one typed error.
int ConnectTo(const std::string& host, uint16_t port) {
  net::Client client;
  const util::Status connected = client.Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", connected.ToString().c_str());
    return 1;
  }

  auto q1 = client.Execute(
      net::WireRequest::Q1("sensors", query::Query({0.4, 0.6}, 0.15)));
  if (!q1.ok()) {
    std::fprintf(stderr, "Q1 failed: %s\n", q1.status().ToString().c_str());
    return 1;
  }
  std::printf("sensors Q1: mean = %.4f  [%s, %lld us server-side]\n", q1->mean,
              q1->source == service::AnswerSource::kModel ? "model" : "exact",
              static_cast<long long>(q1->exec.nanos / 1000));

  // A pipelined Q2 batch: every frame goes out before the first answer is
  // read; the server coalesces what it finds in flight into one
  // ExecuteBatch. Answers come back positionally aligned.
  std::vector<net::WireRequest> batch;
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(2, 0.3, 0.7, 0.12, 0.02, /*seed=*/5));
  for (int i = 0; i < 8; ++i) {
    batch.push_back(net::WireRequest::Q2("sensors", gen.Next()));
  }
  const auto answers = client.ExecuteBatch(batch);
  std::printf("pipelined Q2 batch:\n");
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i].ok()) {
      std::printf("  [%zu] %zu local linear model(s)\n", i,
                  answers[i]->pieces.size());
    } else {
      std::printf("  [%zu] %s\n", i,
                  answers[i].status().ToString().c_str());
    }
  }

  // Deadline budgets ride the wire: this one is expired on arrival and is
  // rejected at admission with the typed status — the connection survives.
  net::WireRequest expired =
      net::WireRequest::Q1("sensors", query::Query({0.4, 0.6}, 0.15));
  expired.deadline_budget_nanos = 1;
  auto rejected = client.Execute(expired);
  std::printf("expired 1ns budget: %s\n",
              rejected.ok() ? "unexpectedly ok"
                            : rejected.status().ToString().c_str());
  return 0;
}

int Demo();

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--serve") == 0) {
    long port = 7077;
    long loops = 1;
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--loops=", 8) == 0) {
        loops = std::strtol(argv[i] + 8, nullptr, 10);
      } else {
        port = std::strtol(argv[i], nullptr, 10);
      }
    }
    if (loops < 1) loops = 1;
    return Serve(static_cast<uint16_t>(port), static_cast<size_t>(loops));
  }
  if (argc >= 3 && std::strcmp(argv[1], "--connect") == 0) {
    std::string target = argv[2];
    const size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "usage: %s --connect <host>:<port>\n", argv[0]);
      return 2;
    }
    const std::string host = target.substr(0, colon);
    const long port = std::strtol(target.c_str() + colon + 1, nullptr, 10);
    return ConnectTo(host, static_cast<uint16_t>(port));
  }
  if (argc >= 2) {
    std::fprintf(
        stderr,
        "usage: %s [--serve [port] [--loops=N] | --connect <host>:<port>]\n",
        argv[0]);
    return 2;
  }
  return Demo();
}

namespace {

int Demo() {
  // Two relations with different shapes, served from one catalog.
  auto sensors = data::MakeR1(/*d=*/2, /*n=*/50000, /*seed=*/1);
  auto rosen = data::MakeR2(/*d=*/3, /*n=*/50000, /*seed=*/2);
  if (!sensors.ok() || !rosen.ok()) {
    std::fprintf(stderr, "dataset generation failed\n");
    return 1;
  }
  storage::KdTree sensors_index(sensors->table);
  storage::KdTree rosen_index(rosen->table);

  service::ModelCatalog catalog;
  auto s1 = catalog.Register(
      "sensors", &sensors->table, &sensors_index,
      service::CatalogOptions::ForCube(2, 0.0, 1.0, 0.1, 0.05, /*a=*/0.1,
                                       /*max_pairs=*/15000, /*seed=*/7));
  auto s2 = catalog.Register(
      "rosenbrock", &rosen->table, &rosen_index,
      service::CatalogOptions::ForCube(3, -10.0, 10.0, 2.0, 0.4, /*a=*/0.1,
                                       /*max_pairs=*/15000, /*seed=*/8));
  if (!s1.ok() || !s2.ok()) {
    std::fprintf(stderr, "register failed: %s / %s\n", s1.ToString().c_str(),
                 s2.ToString().c_str());
    return 1;
  }
  // Set-up: train both models before serving. Requests never train; a
  // dataset without a model would be answered exactly.
  auto trained = catalog.TrainAll();
  if (!trained.ok()) {
    std::fprintf(stderr, "train failed: %s\n", trained.ToString().c_str());
    return 1;
  }

  // A hybrid router: in-region queries answered by the model, out-of-region
  // by the exact engine; overlapping repeats of exact-routed queries served
  // from the δ-cache.
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kHybrid;
  cfg.cache.delta_min = 0.9;
  cfg.num_threads = 4;
  service::QueryRouter router(&catalog, cfg);

  // Single queries against both datasets.
  auto q1 = router.Execute(
      service::Request::Q1("sensors", query::Query({0.4, 0.6}, 0.15)));
  if (q1.ok()) {
    std::printf("sensors    Q1: mean = %.4f  [%s]\n", q1->mean,
                q1->source == service::AnswerSource::kModel ? "model" : "exact");
  }
  auto q2 = router.Execute(
      service::Request::Q2("rosenbrock", query::Query({1.0, -2.0, 3.0}, 2.5)));
  if (q2.ok()) {
    std::printf("rosenbrock Q2: %zu local linear model(s)\n", q2->pieces.size());
    for (const core::LocalLinearModel& m : q2->pieces) {
      std::printf("               u ~ %.3f + %.3f x1 + %.3f x2 + %.3f x3  (w %.2f)\n",
                  m.intercept, m.slope[0], m.slope[1], m.slope[2], m.weight);
    }
  }

  // A burst of clustered traffic, executed in parallel on the pool. The
  // in-region cluster is answered by the model, which costs about what a
  // cache lookup does, so it never touches the cache. The cluster past the
  // trained region is routed to the exact engine, where the tight cluster
  // makes δ-overlap cache hits frequent: a hit replaces a scan.
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(2, 0.45, 0.55, 0.1, 0.01, /*seed=*/21));
  query::WorkloadGenerator far_gen(
      query::WorkloadConfig::Cube(2, 1.35, 1.45, 1.0, 0.01, /*seed=*/22));
  std::vector<service::Request> burst;
  for (int i = 0; i < 2200; ++i) {
    query::WorkloadGenerator& g = i < 2000 ? gen : far_gen;
    burst.push_back(i % 2 == 0 ? service::Request::Q1("sensors", g.Next())
                               : service::Request::Q2("sensors", g.Next()));
  }
  auto answers = router.ExecuteBatch(burst);
  int64_t ok = 0;
  for (const auto& a : answers) ok += a.ok() ? 1 : 0;
  std::printf("\nburst: %lld/%zu answered\n", static_cast<long long>(ok),
              answers.size());

  // Request lifecycle: a deadline bounds the exact scan, and a request
  // that is already expired is rejected at admission with the typed status
  // (a cache hit never masks it), and the partial work the service did
  // anyway rides inside the typed ExecError.
  service::Request bounded =
      service::Request::Q1("sensors", query::Query({1.4, 1.4}, 1.0));
  bounded.deadline = util::Deadline::AfterNanos(0);  // Already expired.
  auto bounded_answer = router.Execute(bounded);
  if (!bounded_answer.ok()) {
    const query::ExecStats& partial = bounded_answer.error().partial;
    std::printf("\ndeadline-bounded Q1: %s (partial work: %lld/%lld chunks, "
                "%lld tuples)\n",
                bounded_answer.status().ToString().c_str(),
                static_cast<long long>(partial.chunks_completed),
                static_cast<long long>(partial.chunks_total),
                static_cast<long long>(partial.tuples_examined));
  }

  // With budget remaining, a mid-scan expiry on an out-of-region query
  // degrades to the model's microsecond answer (flagged used_fallback)
  // instead of burning cores on the rest of the scan.
  service::Request tight =
      service::Request::Q1("sensors", query::Query({1.4, 1.4}, 1.0));
  tight.deadline = util::Deadline::AfterMillis(2);
  auto degraded = router.Execute(tight);
  if (degraded.ok()) {
    std::printf("deadline-bounded Q1: mean = %.4f  [%s%s]\n", degraded->mean,
                degraded->source == service::AnswerSource::kModel ? "model"
                                                                  : "exact",
                degraded->used_fallback ? ", deadline fallback" : "");
  }

  std::printf("\nservice metrics:\n");
  router.Stats().PrintTo(std::cout);
  std::printf("\ncache: hit rate %.3f over %lld lookups\n",
              router.CacheStats().HitRate(),
              static_cast<long long>(router.CacheStats().lookups));
  return 0;
}

}  // namespace
