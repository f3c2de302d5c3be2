// Open-loop load curve for the net::Server front-end (DESIGN.md §12), swept
// across the server's event-loop ladder.
//
// For each loop count L ∈ {1, 2, 4} ({1, 2} under --smoke) the bench starts
// a fresh epoll server with `event_loops = L`, sweeps the *same* absolute
// offered-QPS ladder against it, and records per rung: achieved QPS, p50/p99
// latency measured from the *scheduled* send time (coordinated-omission-
// free), shed rate (typed kResourceExhausted frames), client-observed
// connection drops (must stay zero at every loop count — overload is
// expressed as frames, never resets), and the connection-lifecycle close
// counters (idle / read-timeout / backpressure) as snapshot deltas around
// the rung. The saturation knee is the highest
// rung whose achieved/offered ratio stays ≥ 0.9; because the ladder is
// shared, knee(L) is directly comparable across loop counts and
// knee(L)/knee(1) is the measured event-loop scaling.
//
// The workload is the model-only routing profile (RoutePolicy::kModelOnly):
// model answers are microseconds of router work, served on the event loop
// itself (QueryRouter::TryExecuteInline), so the single-loop knee
// is frame-pumping-bound — exactly the regime the multi-loop front-end
// exists for. The ladder is calibrated once from a closed-loop run against a
// 1-loop server, with rungs placed as fixed fractions of that capacity so
// the knee and the shed rung land on every machine; absolute rates can be
// forced with QREG_LOAD_RATES.
//
// Extra environment knobs (on top of bench_common's):
//   QREG_LOAD_SECONDS   seconds per rung (default 2)
//   QREG_LOAD_CONNS     client connections per event loop (default 2; a run
//                       at L loops uses L× this many connections, since one
//                       connection lands on exactly one loop)
//   QREG_LOAD_RATES     comma-separated absolute QPS ladder (overrides the
//                       capacity-relative fractions)
//   QREG_LOAD_LOOPS     comma-separated loop ladder (overrides {1,2,4})
//
// Output: one EmitTable file per table under bench/out/:
//   bench_load_curve_rungs_l<L>.json       one record per rung at L loops
//   bench_load_curve_knees.json            one record per loop count: conns,
//                                          knee, pre-knee p99 ratio and the
//                                          net counters
//   bench_load_curve_loop_attribution.json one record per (loop count, loop)
//   bench_load_curve_inprocess.json        in-process QPS/p50/p99, the wire
//                                          capacity and the knee scaling
//
// `--smoke` shrinks everything (tiny dataset, short rungs) and exits
// non-zero unless every curve is non-empty with a strictly monotone
// offered-QPS axis, zero drops anywhere, zero backpressure evictions at any
// rung at or below the knee (pre-saturation, the write caps must never fire
// on a reader that keeps up), and — on multi-core hosts — knee(2) ≥
// knee(1): the CI gate for the multi-loop front-end.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "query/workload.h"
#include "service/model_catalog.h"
#include "service/query_router.h"
#include "util/env.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace qreg {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<net::WireRequest> MakeWireWorkload(query::WorkloadConfig wl,
                                               int64_t n) {
  query::WorkloadGenerator gen(wl);
  std::vector<net::WireRequest> reqs;
  reqs.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    query::Query q = gen.Next();
    reqs.push_back(i % 2 == 0 ? net::WireRequest::Q1("r1", std::move(q))
                              : net::WireRequest::Q2("r1", std::move(q)));
  }
  return reqs;
}

std::vector<service::Request> ToInProcess(
    const std::vector<net::WireRequest>& wire) {
  std::vector<service::Request> reqs;
  reqs.reserve(wire.size());
  for (const net::WireRequest& w : wire) {
    reqs.push_back(w.kind == service::QueryKind::kQ1MeanValue
                       ? service::Request::Q1(w.dataset, w.q)
                       : service::Request::Q2(w.dataset, w.q));
  }
  return reqs;
}

struct RungResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Server-side p99 over the same answers, from the exec.nanos each answer
  /// frame carries — measured exactly like the in-process router p99, so the
  /// two are directly comparable (the e2e percentiles above add transport
  /// and queueing on top).
  double service_p99_ms = 0.0;
  double shed_rate = 0.0;
  int64_t sent = 0;
  int64_t answered = 0;
  int64_t shed = 0;
  int64_t errors = 0;  ///< Typed non-shed failures. These are workload
                       ///< semantics, not transport defects — e.g. ~0.2% of
                       ///< random θ balls are empty subspaces (kNotFound),
                       ///< in-process and over the wire alike.
  int64_t drops = 0;   ///< Client-observed transport failures (must be 0).
  // Connection-lifecycle closes attributed to this rung (snapshot deltas
  // around the rung). The smoke gate requires backpressure_closed == 0 at
  // every rung at or below the knee: pre-saturation, well-behaved readers
  // must never be evicted by the write caps.
  int64_t idle_closed = 0;
  int64_t read_timeout_closed = 0;
  int64_t backpressure_closed = 0;
};

/// One full sweep against a server running `loops` event loops.
struct LoopRun {
  size_t loops = 1;
  int conns = 0;
  double knee_qps = 0.0;
  std::vector<RungResult> curve;
  service::ServiceSnapshot snap;
};

/// One connection's share of a rung: a sender thread paces requests onto the
/// socket at scheduled instants, a reader thread stamps latency from those
/// scheduled instants (open-loop: a slow server cannot slow the offered rate,
/// so queueing delay shows up in the percentiles instead of being hidden).
struct ConnStats {
  std::vector<double> latencies_ms;
  std::vector<double> service_ms;  // exec.nanos from each OK answer.
  int64_t sent = 0, answered = 0, shed = 0, errors = 0, drops = 0;
};

void RunConnection(uint16_t port, const std::vector<net::WireRequest>& pool,
                   double rate_qps, int64_t count, uint64_t id_offset,
                   ConnStats* out) {
  net::Client client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    out->drops += count;
    return;
  }

  std::vector<Clock::time_point> scheduled(static_cast<size_t>(count));
  const Clock::time_point start = Clock::now();
  const double nanos_per = 1e9 / rate_qps;
  for (int64_t i = 0; i < count; ++i) {
    scheduled[static_cast<size_t>(i)] =
        start + std::chrono::nanoseconds(
                    static_cast<int64_t>(static_cast<double>(i) * nanos_per));
  }

  std::thread reader([&] {
    int64_t seen = 0;
    while (seen < count) {
      uint64_t id = 0;
      auto response = client.ReadResponse(&id);
      const bool transport_dead =
          !response.ok() &&
          response.status().code() == util::StatusCode::kIoError;
      if (transport_dead) {
        out->drops += count - seen;
        return;
      }
      if (id < id_offset + 1 || id > id_offset + static_cast<uint64_t>(count)) {
        continue;
      }
      const size_t slot = static_cast<size_t>(id - id_offset - 1);
      const double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - scheduled[slot])
                            .count();
      ++seen;
      if (response.ok()) {
        ++out->answered;
        out->latencies_ms.push_back(ms);
        out->service_ms.push_back(static_cast<double>(response->exec.nanos) /
                                  1e6);
      } else if (response.status().code() ==
                 util::StatusCode::kResourceExhausted) {
        ++out->shed;
      } else {
        ++out->errors;
      }
    }
  });

  for (int64_t i = 0; i < count; ++i) {
    std::this_thread::sleep_until(scheduled[static_cast<size_t>(i)]);
    const net::WireRequest& request = pool[static_cast<size_t>(i) % pool.size()];
    if (!client.SendRequest(request, id_offset + static_cast<uint64_t>(i) + 1)
             .ok()) {
      out->drops += count - i;
      break;
    }
    ++out->sent;
  }
  reader.join();
}

RungResult RunRung(uint16_t port, const std::vector<net::WireRequest>& pool,
                   double offered_qps, double seconds, int conns) {
  const int64_t total =
      std::max<int64_t>(conns, static_cast<int64_t>(offered_qps * seconds));
  std::vector<ConnStats> stats(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  const util::Stopwatch watch;
  uint64_t id_offset = 0;
  for (int c = 0; c < conns; ++c) {
    const int64_t share = total / conns + (c < total % conns ? 1 : 0);
    threads.emplace_back(RunConnection, port, std::cref(pool),
                         offered_qps / conns, share, id_offset,
                         &stats[static_cast<size_t>(c)]);
    id_offset += static_cast<uint64_t>(share);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = watch.ElapsedSeconds();

  RungResult r;
  r.offered_qps = offered_qps;
  std::vector<double> all, service;
  for (const ConnStats& s : stats) {
    r.sent += s.sent;
    r.answered += s.answered;
    r.shed += s.shed;
    r.errors += s.errors;
    r.drops += s.drops;
    all.insert(all.end(), s.latencies_ms.begin(), s.latencies_ms.end());
    service.insert(service.end(), s.service_ms.begin(), s.service_ms.end());
  }
  r.achieved_qps = elapsed > 0.0 ? static_cast<double>(r.answered) / elapsed : 0.0;
  r.p50_ms = Percentile(all, 0.50);
  r.p99_ms = Percentile(all, 0.99);
  r.service_p99_ms = Percentile(service, 0.99);
  const int64_t responded = r.answered + r.shed + r.errors;
  r.shed_rate =
      responded > 0 ? static_cast<double>(r.shed) / static_cast<double>(responded)
                    : 0.0;
  return r;
}

/// Best (lowest) pre-knee service-p99 ratio vs the in-process run. This is
/// the acceptance-facing number; it is CPU-topology sensitive (on a
/// single-core host the event loop preempts the executors and inflates it).
double PrekneeServiceP99Ratio(const LoopRun& run, double inproc_p99_ms) {
  double ratio = 0.0;
  for (const RungResult& r : run.curve) {
    if (r.offered_qps <= run.knee_qps && r.service_p99_ms > 0.0 &&
        inproc_p99_ms > 0.0) {
      const double rr = r.service_p99_ms / inproc_p99_ms;
      if (ratio == 0.0 || rr < ratio) ratio = rr;
    }
  }
  return ratio;
}

/// `head` followed by one column per NetActivity counter.
std::vector<std::string> WithNetColumns(std::vector<std::string> head) {
  for (const char* c :
       {"connections_accepted", "connections_closed", "frames_decoded",
        "protocol_errors", "bytes_in", "bytes_out", "idle_closed",
        "read_timeout_closed", "backpressure_closed", "answered_on_loop",
        "dispatched_to_executors"}) {
    head.push_back(c);
  }
  return head;
}

/// `row` followed by `net`'s counters, in WithNetColumns order.
std::vector<std::string> WithNetCells(std::vector<std::string> row,
                                      const service::NetActivity& net) {
  for (int64_t v :
       {net.connections_accepted, net.connections_closed, net.frames_decoded,
        net.protocol_errors, net.bytes_in, net.bytes_out, net.idle_closed,
        net.read_timeout_closed, net.backpressure_closed, net.answered_on_loop,
        net.dispatched_to_executors}) {
    row.push_back(util::Format("%lld", static_cast<long long>(v)));
  }
  return row;
}

int Run(bool smoke) {
  BenchEnv env = BenchEnv::FromEnv();
  if (smoke) {
    env.rows_r1 = std::min<int64_t>(env.rows_r1, 20000);
    env.train_cap = std::min<int64_t>(env.train_cap, 3000);
  }
  const double seconds =
      util::GetEnvDouble("QREG_LOAD_SECONDS", smoke ? 0.4 : 2.0);
  const int conns_per_loop =
      static_cast<int>(util::GetEnvInt64("QREG_LOAD_CONNS", 2));
  PrintHeader("bench_load_curve",
              "net front-end: open-loop offered-QPS sweep across the "
              "event-loop ladder",
              env);

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
  auto trained = catalog.TrainAll();
  if (!trained.ok()) {
    std::cerr << "train: " << trained << "\n";
    return 1;
  }

  // The serving config: model-only routing (microseconds per answer, so the
  // knee is frame-pumping-bound — the regime the loop ladder measures), no
  // cache so every request pays its real routing cost.
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kModelOnly;
  cfg.enable_cache = false;
  cfg.num_threads = 2;
  service::QueryRouter router(&catalog, cfg);

  const query::WorkloadConfig wl = query::WorkloadConfig::Cube(
      2, p.center_lo, p.center_hi, p.theta_mean, p.theta_stddev, env.seed + 17);
  const std::vector<net::WireRequest> pool =
      MakeWireWorkload(wl, smoke ? 512 : 4096);

  // --- In-process reference: raw capacity and per-query latency -----------
  // Same mixed workload, same router, same pooled ExecuteBatch execution
  // mode the server uses — the snapshot percentiles are therefore directly
  // comparable to the service-side percentiles each answer frame reports
  // (this mirrors bench_service_throughput's "hybrid_p99_ms" column).
  const std::vector<service::Request> inproc = ToInProcess(pool);
  (void)router.ExecuteBatch(inproc);  // Warm-up.
  router.ResetStats();
  util::Stopwatch cap_watch;
  (void)router.ExecuteBatch(inproc);
  const double warm_secs = cap_watch.ElapsedSeconds();
  const double capacity_qps =
      warm_secs > 0.0 ? static_cast<double>(inproc.size()) / warm_secs : 1000.0;
  const service::ServiceSnapshot inproc_snap = router.Stats();
  const double inproc_p50 = inproc_snap.p50_ms;
  const double inproc_p99 = inproc_snap.p99_ms;
  router.ResetStats();
  std::cout << util::Format(
      "in-process: capacity %.0f qps, per-query p50 %.4f ms, p99 %.4f ms\n\n",
      capacity_qps, inproc_p50, inproc_p99);

  // --- Loopback calibration (1-loop server) -------------------------------
  // The shared ladder must straddle the *single-loop wire* capacity, not the
  // raw router capacity — on the model path the router answers order(s) of
  // magnitude more QPS than one event-loop thread can frame. A short
  // closed-loop run (modest pipelined batches, so nothing sheds) measures
  // what one loop actually carries; the multi-loop runs then climb the same
  // rungs, so any knee movement is the loops, not the ladder.
  double wire_capacity = 0.0;
  {
    net::ServerConfig cal_cfg;
    cal_cfg.executor_threads = 2;
    net::Server cal_server(&router, cal_cfg);
    const util::Result<net::Endpoint> ep = cal_server.Start();
    if (!ep.ok()) {
      std::cerr << "calibration server start: " << ep.status() << "\n";
      return 1;
    }
    std::vector<std::thread> cal;
    const int cal_conns = std::max(2, conns_per_loop);
    std::vector<int64_t> done(static_cast<size_t>(cal_conns), 0);
    const Clock::time_point until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(smoke ? 0.2 : 0.5));
    util::Stopwatch cal_watch;
    for (int c = 0; c < cal_conns; ++c) {
      cal.emplace_back([&, c] {
        net::Client client;
        if (!client.Connect(ep->address, ep->port).ok()) return;
        std::vector<net::WireRequest> chunk;
        for (size_t i = 0; i < 32; ++i) {
          chunk.push_back(pool[(static_cast<size_t>(c) * 131 + i) % pool.size()]);
        }
        while (Clock::now() < until) {
          const auto results = client.ExecuteBatch(chunk);
          for (const auto& r : results) {
            done[static_cast<size_t>(c)] += r.ok() ? 1 : 0;
          }
        }
      });
    }
    for (std::thread& t : cal) t.join();
    int64_t total = 0;
    for (int64_t d : done) total += d;
    const double secs = cal_watch.ElapsedSeconds();
    wire_capacity = secs > 0.0 ? static_cast<double>(total) / secs : 1000.0;
    wire_capacity = std::max(wire_capacity, 200.0);
    cal_server.Shutdown();
    router.ResetStats();
  }
  std::cout << util::Format(
      "loopback calibration: ~%.0f qps single-loop wire capacity\n\n",
      wire_capacity);

  // --- Shared rate ladder -------------------------------------------------
  std::vector<double> rates;
  const std::string forced = util::GetEnvString("QREG_LOAD_RATES", "");
  if (!forced.empty()) {
    std::stringstream ss(forced);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const double r = std::atof(tok.c_str());
      if (r > 0.0) rates.push_back(r);
    }
    std::sort(rates.begin(), rates.end());
  } else {
    // The top fractions overshoot single-loop capacity on purpose: that's
    // where a multi-loop server separates from loops=1 on the shared axis.
    const std::vector<double> fractions =
        smoke ? std::vector<double>{0.1, 0.3, 1.0, 3.0}
              : std::vector<double>{0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 4.0};
    for (double f : fractions) {
      rates.push_back(std::max(50.0, std::round(f * wire_capacity)));
    }
    // Guard against duplicate rungs when the floor kicks in.
    rates.erase(std::unique(rates.begin(), rates.end()), rates.end());
  }

  // --- Loop ladder --------------------------------------------------------
  std::vector<size_t> loop_ladder;
  const std::string forced_loops = util::GetEnvString("QREG_LOAD_LOOPS", "");
  if (!forced_loops.empty()) {
    std::stringstream ss(forced_loops);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const long v = std::atol(tok.c_str());
      if (v >= 1 && v <= static_cast<long>(net::kMaxEventLoops)) {
        loop_ladder.push_back(static_cast<size_t>(v));
      }
    }
  }
  if (loop_ladder.empty()) {
    loop_ladder = smoke ? std::vector<size_t>{1, 2}
                        : std::vector<size_t>{1, 2, 4};
  }

  std::vector<LoopRun> runs;
  for (size_t loops : loop_ladder) {
    LoopRun run;
    run.loops = loops;
    run.conns = conns_per_loop * static_cast<int>(loops);

    net::ServerConfig server_cfg;
    server_cfg.executor_threads = 2;
    server_cfg.event_loops = loops;
    net::Server server(&router, server_cfg);
    const util::Result<net::Endpoint> ep = server.Start();
    if (!ep.ok()) {
      std::cerr << "server start (loops=" << loops << "): " << ep.status()
                << "\n";
      return 1;
    }

    std::cout << util::Format("--- event_loops = %zu (%d conns) ---\n", loops,
                              run.conns);
    util::TablePrinter table(
        {"offered_qps", "achieved_qps", "p50_ms", "p99_ms", "service_p99_ms",
         "shed_rate", "sent", "answered", "shed", "errors", "drops",
         "idle_closed", "read_timeout_closed", "backpressure_closed"});
    const auto count = [](int64_t v) {
      return util::Format("%lld", static_cast<long long>(v));
    };
    for (double rate : rates) {
      const service::ServiceSnapshot before = router.Stats();
      RungResult r = RunRung(ep->port, pool, rate, seconds, run.conns);
      // Lifecycle closes this rung caused, by counter delta: the server
      // pushes every close into the stats the moment it happens, so the
      // difference around the rung is exact attribution.
      const service::ServiceSnapshot after = router.Stats();
      r.idle_closed = after.net.idle_closed - before.net.idle_closed;
      r.read_timeout_closed =
          after.net.read_timeout_closed - before.net.read_timeout_closed;
      r.backpressure_closed =
          after.net.backpressure_closed - before.net.backpressure_closed;
      run.curve.push_back(r);
      table.AddRow({util::Format("%.1f", r.offered_qps),
                    util::Format("%.1f", r.achieved_qps),
                    util::Format("%.4f", r.p50_ms),
                    util::Format("%.4f", r.p99_ms),
                    util::Format("%.4f", r.service_p99_ms),
                    util::Format("%.4f", r.shed_rate), count(r.sent),
                    count(r.answered), count(r.shed), count(r.errors),
                    count(r.drops), count(r.idle_closed),
                    count(r.read_timeout_closed),
                    count(r.backpressure_closed)});
    }
    run.snap = router.Stats();
    server.Shutdown();
    router.ResetStats();
    if (!EmitTable("bench_load_curve", util::Format("rungs_l%zu", loops),
                   table, env)) {
      return 1;
    }

    for (const RungResult& r : run.curve) {
      if (r.offered_qps > 0.0 && r.achieved_qps / r.offered_qps >= 0.9) {
        run.knee_qps = std::max(run.knee_qps, r.offered_qps);
      }
    }
    std::cout << util::Format("knee(loops=%zu): ~%.0f qps\n\n", loops,
                              run.knee_qps);

    runs.push_back(std::move(run));
  }

  // --- Cross-run tables ---------------------------------------------------
  // Loop scaling: the best knee over the ladder relative to one loop.
  double knee1 = 0.0, knee2 = 0.0, knee_top = 0.0;
  for (const LoopRun& run : runs) {
    if (run.loops == 1) knee1 = run.knee_qps;
    if (run.loops == 2) knee2 = run.knee_qps;
    knee_top = std::max(knee_top, run.knee_qps);
  }
  const double knee_scaling = knee1 > 0.0 ? knee_top / knee1 : 0.0;

  util::TablePrinter knees(WithNetColumns(
      {"event_loops", "conns", "knee_qps", "preknee_service_p99_ratio"}));
  // Per-loop accept/frame attribution: a healthy multi-loop run spreads the
  // work; one hot row means the accept sharding is skewed on this host.
  util::TablePrinter attribution(WithNetColumns({"event_loops", "loop"}));
  for (const LoopRun& run : runs) {
    knees.AddRow(WithNetCells(
        {util::Format("%zu", run.loops), util::Format("%d", run.conns),
         util::Format("%.1f", run.knee_qps),
         util::Format("%.2f", PrekneeServiceP99Ratio(run, inproc_p99))},
        run.snap.net));
    for (size_t i = 0; i < run.snap.net_loops.size(); ++i) {
      attribution.AddRow(WithNetCells(
          {util::Format("%zu", run.loops), util::Format("%zu", i)},
          run.snap.net_loops[i]));
    }
  }
  util::TablePrinter inprocess(
      {"qps", "p50_ms", "p99_ms", "wire_capacity_qps", "knee_scaling"});
  inprocess.AddRow({util::Format("%.1f", capacity_qps),
                    util::Format("%.4f", inproc_p50),
                    util::Format("%.4f", inproc_p99),
                    util::Format("%.1f", wire_capacity),
                    util::Format("%.2f", knee_scaling)});
  if (!EmitTable("bench_load_curve", "knees", knees, env) ||
      !EmitTable("bench_load_curve", "loop_attribution", attribution, env) ||
      !EmitTable("bench_load_curve", "inprocess", inprocess, env)) {
    return 1;
  }
  std::cout << "\ntables written to " << OutDir() << "/bench_load_curve_*.json\n";

  int64_t total_drops = 0;
  for (const LoopRun& run : runs) {
    for (const RungResult& r : run.curve) total_drops += r.drops;
  }
  std::cout << util::Format("total client-observed drops: %lld (must be 0)\n",
                            static_cast<long long>(total_drops));

  // --- Smoke assertions (the CI gate) ------------------------------------
  if (smoke) {
    bool ok = !runs.empty();
    for (const LoopRun& run : runs) {
      if (run.curve.empty()) ok = false;
      for (size_t i = 1; i < run.curve.size(); ++i) {
        if (!(run.curve[i].offered_qps > run.curve[i - 1].offered_qps)) {
          ok = false;
        }
      }
    }
    if (total_drops != 0) {
      std::cerr << "SMOKE FAIL: client observed connection drops\n";
      ok = false;
    }
    // Below the knee the server is not saturated and every bench client
    // reads promptly, so a backpressure eviction there means the write caps
    // fired on a healthy peer — a lifecycle regression, not overload.
    for (const LoopRun& run : runs) {
      for (const RungResult& r : run.curve) {
        if (r.offered_qps <= run.knee_qps && r.backpressure_closed != 0) {
          std::cerr << util::Format(
              "SMOKE FAIL: %lld backpressure close(s) at pre-knee rung "
              "%.0f qps (loops=%zu)\n",
              static_cast<long long>(r.backpressure_closed), r.offered_qps,
              run.loops);
          ok = false;
        }
      }
    }
    if (!ok) {
      std::cerr << "SMOKE FAIL: curve empty or offered-QPS axis not "
                   "strictly increasing\n";
      return 1;
    }
    // The scaling gate needs real parallelism: on a single-core host the
    // loops time-slice one CPU and the comparison is noise, so it is skipped
    // with a message rather than asserted.
    if (std::thread::hardware_concurrency() < 2) {
      std::cout << "smoke: single-core host, knee scaling gate skipped\n";
    } else if (knee1 > 0.0 && knee2 > 0.0 && knee2 + 1e-9 < knee1) {
      // More loops must not regress the knee.
      std::cerr << util::Format(
          "SMOKE FAIL: knee regressed with more loops: knee(2)=%.0f < "
          "knee(1)=%.0f\n",
          knee2, knee1);
      return 1;
    }
    std::cout << "smoke OK: " << runs.size()
              << " loop-count runs, monotone offered axes, zero drops\n";
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return qreg::bench::Run(smoke);
}
