// Speedup-vs-threads for the partitioned exact engine: the multi-core
// single-query latency on top of Figure 12's single-threaded exact
// baselines.
//
// For both access paths (sequential scan and k-d tree) this bench measures
// per-query Q1/Q2 latency of the partitioned engine run inline (0 workers,
// the baseline) and at 1, 2, 4 and 8 pool threads, on the Fig-12-scale R2
// dataset. Every run uses the same partition plan, so the answers must be
// bit-for-bit identical to the inline run's: the bench is a determinism
// gate and exits 1 on any divergence.
//
// Each access path's table is written to OutDir() (default bench/out/) by
// EmitTable as bench_parallel_exact_<path>_d<d>.json: one record per thread
// count with ms and speedup over the inline run — the artifact CI uploads
// for cross-PR perf-trajectory tracking.
//
// Extra env knobs: QREG_PARALLEL_D (default 2), QREG_PARALLEL_QUERIES
// (default 24), QREG_MAX_THREADS (default 8).

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "util/env.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace qreg {
namespace bench {
namespace {

struct ExactAnswers {
  std::vector<double> q1_mean;
  std::vector<int64_t> q1_count;
  std::vector<double> q2_intercept;
  std::vector<std::vector<double>> q2_slope;
};

struct Timing {
  double q1_ms = 0.0;
  double q2_ms = 0.0;
};

Timing MeasureEngine(const query::ExactEngine& engine,
                     const std::vector<query::Query>& queries,
                     ExactAnswers* answers) {
  Timing t;
  util::Stopwatch sw;
  if (answers != nullptr) {
    answers->q1_mean.clear();
    answers->q1_count.clear();
    answers->q2_intercept.clear();
    answers->q2_slope.clear();
  }
  sw.Restart();
  for (const auto& q : queries) {
    auto r = engine.MeanValue(q);
    if (answers != nullptr) {
      answers->q1_mean.push_back(r.ok() ? r->mean : std::nan(""));
      answers->q1_count.push_back(r.ok() ? r->count : -1);
    }
  }
  t.q1_ms = sw.ElapsedMillis() / static_cast<double>(queries.size());
  sw.Restart();
  for (const auto& q : queries) {
    auto r = engine.Regression(q);
    if (answers != nullptr) {
      answers->q2_intercept.push_back(r.ok() ? r->intercept : std::nan(""));
      answers->q2_slope.push_back(r.ok() ? r->slope : std::vector<double>());
    }
  }
  t.q2_ms = sw.ElapsedMillis() / static_cast<double>(queries.size());
  return t;
}

bool BitwiseEqual(const ExactAnswers& a, const ExactAnswers& b) {
  auto same_double = [](double x, double y) {
    return (std::isnan(x) && std::isnan(y)) || x == y;
  };
  if (a.q1_count != b.q1_count) return false;
  for (size_t i = 0; i < a.q1_mean.size(); ++i) {
    if (!same_double(a.q1_mean[i], b.q1_mean[i])) return false;
    if (!same_double(a.q2_intercept[i], b.q2_intercept[i])) return false;
    if (a.q2_slope[i].size() != b.q2_slope[i].size()) return false;
    for (size_t j = 0; j < a.q2_slope[i].size(); ++j) {
      if (!same_double(a.q2_slope[i][j], b.q2_slope[i][j])) return false;
    }
  }
  return true;
}

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  PrintHeader("bench_parallel_exact",
              "partitioned exact Q1/Q2 speedup vs pool threads", env);

  const size_t d =
      static_cast<size_t>(util::GetEnvInt64("QREG_PARALLEL_D", 2));
  const int64_t reps = util::GetEnvInt64("QREG_PARALLEL_QUERIES", 24);
  const int64_t max_threads = util::GetEnvInt64("QREG_MAX_THREADS", 8);

  DataBundle bundle = MakeR2Bundle(d, env.rows_r2, env.seed + 7 * d);
  query::WorkloadGenerator gen = MakeWorkload(bundle, env.seed + 1);
  const std::vector<query::Query> queries = gen.Generate(reps);

  // 0 = no pool: the partitions run inline on the calling thread.
  std::vector<int64_t> thread_counts = {0};
  for (int64_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  bool all_identical = true;

  struct Path {
    const char* name;
    const storage::SpatialIndex* index;
  };
  const Path paths[] = {
      {"scan", bundle.scan.get()},
      {"kdtree", bundle.kdtree.get()},
  };

  for (const Path& path : paths) {
    util::TablePrinter table({"path", "threads", "rows", "d", "q1_ms",
                              "q1_speedup", "q2_ms", "q2_speedup",
                              "identical_to_inline"});

    ExactAnswers reference;  // The inline run's answers.
    Timing inline_timing;
    for (const int64_t threads : thread_counts) {
      // One engine per thread count; 0 threads runs the partitions inline.
      std::unique_ptr<util::ThreadPool> pool;
      query::ParallelOptions par;
      if (threads > 0) {
        pool = std::make_unique<util::ThreadPool>(static_cast<size_t>(threads));
        par.pool = pool.get();
      }
      query::ExactEngine engine(bundle.table(), *path.index,
                                storage::LpNorm::L2(), par);

      (void)MeasureEngine(engine, queries, nullptr);  // Untimed warm-up.
      ExactAnswers answers;
      const Timing t = MeasureEngine(engine, queries, &answers);
      if (threads == 0) {
        reference = answers;
        inline_timing = t;
      }
      const bool identical = BitwiseEqual(reference, answers);
      all_identical = all_identical && identical;

      const double q1_speedup =
          t.q1_ms > 0.0 ? inline_timing.q1_ms / t.q1_ms : 0.0;
      const double q2_speedup =
          t.q2_ms > 0.0 ? inline_timing.q2_ms / t.q2_ms : 0.0;
      table.AddRow({path.name,
                    util::Format("%lld", static_cast<long long>(threads)),
                    util::Format("%lld", static_cast<long long>(env.rows_r2)),
                    util::Format("%zu", d), util::Format("%.6f", t.q1_ms),
                    util::Format("%.4f", q1_speedup),
                    util::Format("%.6f", t.q2_ms),
                    util::Format("%.4f", q2_speedup),
                    identical ? "true" : "false"});
    }
    EmitTable("bench_parallel_exact", util::Format("%s_d%zu", path.name, d),
              table, env);
  }

  std::cout << util::Format(
      "\nhardware threads on this machine: %u (speedup is bounded by this)\n"
      "answers identical to the inline run at every thread count: %s\n",
      std::thread::hardware_concurrency(), all_identical ? "yes" : "NO");
  std::cout << "speedup expectation: near-linear for the scan path while the\n"
               "ball has work in every partition; the kd path saturates\n"
               "earlier because pruning leaves fewer partitions with work.\n";
  if (!all_identical) {
    std::cerr << "FATAL: exact answers diverged across thread counts\n";
    std::exit(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main() {
  qreg::bench::Run();
  return 0;
}
