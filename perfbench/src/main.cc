// qreg_perfbench — the repository benchmark (see perfbench/README.md).
//
//   qreg_perfbench --workload <model_hot|exact_heavy|cache_churn> --seed <n>
//                  --seconds <s> --trace <0|1> [--smoke]
//
// Builds R1 data, its kd-tree, a trained catalog and a loopback net::Server
// (three times; set-up is the median), drives the server with a closed loop
// of pipelined clients, checks the answers, and prints one JSON object as the
// last line of standard output: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. Progress and accounting go to stderr.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common.h"
#include "layer_trace.h"
#include "stack.h"
#include "wire_load.h"
#include "workloads.h"

namespace qreg {
namespace perfbench {
namespace {

constexpr uint64_t kSystemSeed = 42;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || args->seconds <= 0.0) return false;
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") return false;
      args->trace = v == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

// The thread layout: the event loop, the workload's executors and its client
// threads. Client threads and the loop mostly wait, so the busy threads are
// the executors plus, on model_hot, the loop and the client; each layout
// keeps them within three, leaving a core of four for everything else.
// Hosts with fewer than four cores get one of each.
struct Layout {
  size_t executors = 1;
  size_t connections = 1;
};

Layout ThreadLayout(const WorkloadSpec& spec) {
  Layout l;
  if (std::thread::hardware_concurrency() >= 4) {
    l.executors = spec.executors;
    l.connections = spec.connections;
  }
  return l;
}

void PrintTally(const char* phase, const Tally& t) {
  std::fprintf(stderr,
               "  %-8s sent=%lld answered=%lld shed=%lld dropped=%lld "
               "not_found=%lld other_errors=%lld check_violations=%lld "
               "(model=%lld exact=%lld cache=%lld)\n",
               phase, static_cast<long long>(t.sent),
               static_cast<long long>(t.answered), static_cast<long long>(t.shed),
               static_cast<long long>(t.dropped),
               static_cast<long long>(t.not_found),
               static_cast<long long>(t.other_errors),
               static_cast<long long>(t.check_violations),
               static_cast<long long>(t.by_source[0]),
               static_cast<long long>(t.by_source[1]),
               static_cast<long long>(t.by_source[2]));
}

std::vector<net::WireRequest> ToWire(const std::vector<Item>& items) {
  std::vector<net::WireRequest> wire;
  wire.reserve(items.size());
  for (const Item& item : items) {
    wire.push_back(item.kind == service::QueryKind::kQ1MeanValue
                       ? net::WireRequest::Q1(kDataset, item.q)
                       : net::WireRequest::Q2(kDataset, item.q));
  }
  return wire;
}

int Fail(const std::string& what) {
  std::cerr << "qreg_perfbench: " << what << "\n";
  return 1;
}

int Run(const Args& args) {
  const Scale scale = MakeScale(args.smoke);
  auto found = FindWorkload(args.workload, scale);
  if (!found.ok()) return Fail(found.status().ToString());
  const WorkloadSpec spec = std::move(found).value();
  std::fprintf(stderr, "workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0, args.smoke ? 1 : 0);

  // --- set-up, repeated; the last stack serves the run. The served relation
  // and its model do not depend on --seed (like a table already in the
  // database); the seed draws the traffic and the accuracy sample.
  StackParams params;
  params.rows = scale.rows;
  params.train_pairs = scale.train_pairs;
  params.seed = kSystemSeed;
  params.router = spec.router;
  const Layout layout = ThreadLayout(spec);
  params.executors = layout.executors;
  const int repeats = args.smoke ? 2 : 3;
  std::vector<SetupTimings> setups;
  std::unique_ptr<ServiceStack> stack;
  for (int r = 0; r < repeats; ++r) {
    stack.reset();
    auto built = BuildStack(params);
    if (!built.ok()) return Fail("set-up: " + built.status().ToString());
    stack = std::move(built).value();
    setups.push_back(stack->timings);
    std::fprintf(stderr, "  setup %d: %.3f s (generate %.3f, index %.3f, train %.3f, "
                 "start %.4f)\n", r, stack->timings.total_s, stack->timings.generate_s,
                 stack->timings.index_build_s, stack->timings.train_s,
                 stack->timings.server_start_s);
  }
  std::vector<double> totals;
  for (const SetupTimings& s : setups) totals.push_back(s.total_s);
  const double setup_s = Median(totals);
  const SetupTimings* median_setup = &setups.front();
  for (const SetupTimings& s : setups) {
    if (s.total_s == setup_s) median_setup = &s;
  }

  // --- requests, generated from the seed before any timing.
  const core::LlmModel& model = *stack->snapshot.model;
  const double vigilance = stack->snapshot.vigilance;
  const std::vector<Item> items =
      GenerateItems(spec.traffic, model, vigilance, args.seed, spec.distinct_requests);
  if (static_cast<int64_t>(items.size()) < spec.distinct_requests) {
    return Fail("could not generate the workload's requests");
  }
  const std::vector<Item> sample =
      GenerateAccuracySample(spec.accuracy, model, vigilance, args.seed,
                             scale.accuracy_q1, scale.accuracy_q2);
  const std::vector<net::WireRequest> wire = ToWire(items);

  const size_t conns = layout.connections;
  const double delta_min =
      spec.router.enable_cache ? spec.router.cache.delta_min : 0.0;
  LoadDriver driver(&wire, conns, spec.check_stride, spec.check_limit, delta_min);
  util::Status connected = driver.Connect(stack->endpoint);
  if (!connected.ok()) return Fail("connect: " + connected.ToString());

  Tally all;
  Phase warm;
  warm.max_requests = spec.warmup_requests;
  warm.connections = conns;
  warm.depth = spec.depth;
  const PhaseResult warm_res = driver.Run(warm);
  all += warm_res.tally;
  PrintTally("warm-up", warm_res.tally);

  // --- timed phase(s). The traced run splits its time between an untraced
  // and a traced half; their ratio is the tracing overhead.
  const service::AnswerCacheStats cache_before = stack->router->CacheStats();
  Phase timed;
  timed.connections = conns;
  timed.depth = spec.depth;
  timed.record = true;
  timed.seconds = args.trace ? args.seconds / 2 : args.seconds;
  const PhaseResult untraced = driver.Run(timed);
  all += untraced.tally;
  PrintTally("timed", untraced.tally);
  std::fprintf(stderr, "  slice qps:");
  for (double r : untraced.slice_qps) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\n");
  Tally timed_tally = untraced.tally;
  PhaseResult traced;
  if (args.trace) {
    timed.trace = true;
    traced = driver.Run(timed);
    all += traced.tally;
    timed_tally += traced.tally;
    PrintTally("traced", traced.tally);
  }
  const service::AnswerCacheStats cache_after = stack->router->CacheStats();
  if (spec.router.enable_cache) {
    std::fprintf(stderr, "  cache: lookups=%lld hits=%lld inserts=%lld evictions=%lld "
                 "grid_probes=%lld linear_probes=%lld\n",
                 static_cast<long long>(cache_after.lookups - cache_before.lookups),
                 static_cast<long long>(cache_after.hits - cache_before.hits),
                 static_cast<long long>(cache_after.inserts - cache_before.inserts),
                 static_cast<long long>(cache_after.evictions - cache_before.evictions),
                 static_cast<long long>(cache_after.grid_probes - cache_before.grid_probes),
                 static_cast<long long>(cache_after.linear_probes -
                                        cache_before.linear_probes));
  }

  // --- accuracy sample, served over the same wire.
  Tally acc_tally;
  const std::vector<util::Result<service::Answer>> served =
      driver.ExecuteAll(ToWire(sample), &acc_tally);
  all += acc_tally;
  PrintTally("accuracy", acc_tally);
  const Accuracy acc = ScoreAccuracy(*stack, sample, served);

  const CheckResult check = CheckCaptured(*stack, spec, items, driver.TakeCaptured());
  std::fprintf(stderr,
               "  checks: %lld answers bit-for-bit, %lld mismatched; %lld exact Q1 by "
               "brute force, %lld mismatched; accuracy over %lld Q1 / %lld Q2\n",
               static_cast<long long>(check.compared),
               static_cast<long long>(check.mismatched),
               static_cast<long long>(check.brute_checked),
               static_cast<long long>(check.brute_mismatched),
               static_cast<long long>(acc.q1_scored),
               static_cast<long long>(acc.q2_scored));
  if (!check.first_error.empty()) std::cerr << "  " << check.first_error << "\n";

  MetricSet metrics;
  bool setup_adds_up = true;
  if (!args.trace) {
    const int64_t per_group =
        untraced.latency.count() / std::max(untraced.latency_groups, 1);
    std::fprintf(stderr, "  latency samples: %lld in %d groups of ~%lld (p99 leaves ~%lld "
                 "beyond it in each)\n", static_cast<long long>(untraced.latency.count()),
                 untraced.latency_groups, static_cast<long long>(per_group),
                 static_cast<long long>(per_group / 100));
    metrics.Add("setup_s", setup_s, "s");
    metrics.Add("throughput_qps", untraced.qps, "1/s");
    metrics.Add("p50_ms", untraced.p50_ms, "ms");
    metrics.Add("p99_ms", untraced.p99_ms, "ms");
    metrics.Add("q1_nrmse", acc.q1_nrmse, "ratio");
    metrics.Add("q2_fvu", acc.q2_fvu, "ratio");
  } else {
    const SetupTimings& s = *median_setup;
    const double parts = s.generate_s + s.index_build_s + s.train_s + s.server_start_s;
    const double unattributed = s.total_s > 0.0 ? 1.0 - parts / s.total_s : 0.0;
    // The parts are timed back to back; anything else is bookkeeping.
    setup_adds_up = unattributed >= 0.0 && unattributed <= 0.02;
    metrics.Add("data.generate_s", s.generate_s, "s");
    metrics.Add("storage.index_build_s", s.index_build_s, "s");
    metrics.Add("service.train_s", s.train_s, "s");
    metrics.Add("core.train_pairs", static_cast<double>(s.report.pairs_used), "count");
    metrics.Add("core.train_query_exec_share", s.report.QueryExecFraction(), "ratio");
    metrics.Add("net.server_start_s", s.server_start_s, "s");
    metrics.Add("setup.unattributed_share", unattributed, "ratio");

    const double answered = static_cast<double>(std::max<int64_t>(timed_tally.answered, 1));
    metrics.Add("service.model_share", timed_tally.by_source[0] / answered, "ratio");
    metrics.Add("service.exact_share", timed_tally.by_source[1] / answered, "ratio");
    metrics.Add("service.cache_share", timed_tally.by_source[2] / answered, "ratio");
    const int64_t lookups = cache_after.lookups - cache_before.lookups;
    metrics.Add("service.cache_hit_rate",
                lookups > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                "ratio");
    metrics.Add("service.cache_evictions",
                static_cast<double>(cache_after.evictions - cache_before.evictions),
                "count");
    metrics.Add("trace.overhead_share",
                untraced.qps > 0.0 ? 1.0 - traced.qps / untraced.qps : 0.0,
                "ratio");

    Tally probe_tally;
    const LayerShares shares =
        TraceLayers(spec, *stack, items, wire, &driver, &probe_tally, &metrics);
    all += probe_tally;
    PrintTally("probe", probe_tally);
    std::fprintf(stderr, "  layer self time per request (ns):");
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      std::fprintf(stderr, " %s=%.0f", LayerName(static_cast<Layer>(l)), shares.self_ns[l]);
    }
    std::fprintf(stderr, "; largest=%s, target=%s\n", LayerName(shares.largest),
                 LayerName(spec.target));
    if (shares.largest != spec.target) {
      std::fprintf(stderr, "  note: the target layer is not the largest self-time share\n");
    }
    if (!setup_adds_up) {
      std::fprintf(stderr, "  set-up parts leave %.4f of setup_s unattributed\n", unattributed);
    }
    metrics.Add("requests.sent", static_cast<double>(all.sent), "count");
    metrics.Add("requests.answered", static_cast<double>(all.answered), "count");
    metrics.Add("requests.shed", static_cast<double>(all.shed), "count");
    metrics.Add("requests.dropped", static_cast<double>(all.dropped), "count");
    metrics.Add("requests.not_found", static_cast<double>(all.not_found), "count");
    metrics.Add("requests.latency_samples",
                static_cast<double>(untraced.latency.count() + traced.latency.count()),
                "count");
  }
  PrintTally("total", all);

  const bool correct = check.ok() && setup_adds_up && all.check_violations == 0 &&
                       all.shed == 0 && all.dropped == 0 && all.other_errors == 0 &&
                       acc.q1_scored > 0 && acc.q2_scored > 0;
  if (!args.trace) metrics.Add("peak_rss_mb", PeakRssMb(), "MiB");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(all.sent),
              static_cast<long long>(all.failed()), metrics.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace qreg

int main(int argc, char** argv) {
  qreg::perfbench::Args args;
  if (!qreg::perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: qreg_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke]\n";
    return 2;
  }
  return qreg::perfbench::Run(args);
}
