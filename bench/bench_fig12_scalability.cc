// Figure 12: query execution time (ms) vs dataset size for Q1 (left) and
// Q2 (right): the trained LLM model vs exact REG through a sequential scan
// ("REG-DBMS"), exact REG through a k-d tree index ("REG-indexed"), and
// PLR (MARS fit over the selected subspace).
//
// The paper sweeps 10^7..10^10 rows on a PostgreSQL server; container-scale
// defaults sweep 10^5..10^6 (QREG_SCALE raises this). The *shape* is the
// claim: LLM's per-query latency is flat in n (it never touches the data),
// exact baselines grow with n, and the gap spans orders of magnitude.

#include <iostream>

#include "bench/bench_common.h"
#include "eval/metrics.h"
#include "linalg/matrix.h"
#include "plr/mars.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/env.h"
#include "util/timer.h"

namespace qreg {
namespace bench {
namespace {

struct Timings {
  double llm_q1_ms = 0.0, scan_q1_ms = 0.0, kd_q1_ms = 0.0;
  double llm_q2_ms = 0.0, scan_q2_ms = 0.0, kd_q2_ms = 0.0, plr_q2_ms = 0.0;
};

Timings Measure(const DataBundle& bundle, const core::LlmModel& model,
                uint64_t seed, int64_t q1_reps, int64_t q2_reps,
                int64_t plr_reps) {
  Timings t;
  const storage::Table& table = bundle.table();
  const size_t d = table.dimension();
  util::Stopwatch sw;

  // Q1: LLM prediction (Algorithm 2).
  {
    query::WorkloadGenerator gen = MakeWorkload(bundle, seed);
    std::vector<query::Query> qs = gen.Generate(q1_reps);
    double sink = 0.0;
    sw.Restart();
    for (const auto& q : qs) sink += model.PredictMean(q).value_or(0.0);
    t.llm_q1_ms = sw.ElapsedMillis() / static_cast<double>(q1_reps);
    (void)sink;
  }
  // Q1 exact: scan and kd-tree.
  {
    query::WorkloadGenerator gen = MakeWorkload(bundle, seed);
    std::vector<query::Query> qs = gen.Generate(q2_reps);
    sw.Restart();
    for (const auto& q : qs) (void)bundle.scan_engine->MeanValue(q);
    t.scan_q1_ms = sw.ElapsedMillis() / static_cast<double>(q2_reps);
    sw.Restart();
    for (const auto& q : qs) (void)bundle.engine->MeanValue(q);
    t.kd_q1_ms = sw.ElapsedMillis() / static_cast<double>(q2_reps);
  }
  // Q2: LLM (Algorithm 3) vs exact OLS vs PLR.
  {
    query::WorkloadGenerator gen = MakeWorkload(bundle, seed + 1);
    std::vector<query::Query> qs = gen.Generate(q2_reps);
    double sink = 0.0;
    sw.Restart();
    for (const auto& q : qs) {
      auto s = model.RegressionQuery(q);
      if (s.ok()) sink += static_cast<double>(s->size());
    }
    t.llm_q2_ms = sw.ElapsedMillis() / static_cast<double>(q2_reps);
    (void)sink;

    sw.Restart();
    for (const auto& q : qs) (void)bundle.scan_engine->Regression(q);
    t.scan_q2_ms = sw.ElapsedMillis() / static_cast<double>(q2_reps);

    sw.Restart();
    for (const auto& q : qs) (void)bundle.engine->Regression(q);
    t.kd_q2_ms = sw.ElapsedMillis() / static_cast<double>(q2_reps);

    // PLR: selection + MARS fit per query.
    int64_t done = 0;
    sw.Restart();
    for (const auto& q : qs) {
      if (done >= plr_reps) break;
      auto ids = bundle.engine->Select(q).value();
      if (static_cast<int64_t>(ids.size()) < static_cast<int64_t>(4 * (d + 1))) {
        continue;
      }
      linalg::Matrix x(ids.size(), d);
      std::vector<double> u(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        const double* row = table.x(ids[i]);
        for (size_t j = 0; j < d; ++j) x(i, j) = row[j];
        u[i] = table.u(ids[i]);
      }
      plr::MarsConfig mc;
      mc.max_terms = 15;
      mc.max_fit_rows = 4000;
      mc.max_knots_per_dim = 10;
      (void)plr::FitMars(x, u, mc);
      ++done;
    }
    t.plr_q2_ms = done > 0 ? sw.ElapsedMillis() / static_cast<double>(done) : 0.0;
  }
  return t;
}

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  PrintHeader("bench_fig12_scalability",
              "Figure 12: Q1/Q2 execution time (ms/query) vs #points", env);

  std::vector<int64_t> sizes{100000, 300000, 1000000};
  for (int64_t& s : sizes) s *= util::GetEnvInt64("QREG_SCALE", 1);

  for (size_t d : {2UL, 5UL}) {
    util::TablePrinter q1(
        {"#points", "LLM_ms", "REG-DBMS(scan)_ms", "REG-indexed(kd)_ms"});
    util::TablePrinter q2({"#points", "LLM_ms", "REG-DBMS(scan)_ms",
                           "REG-indexed(kd)_ms", "PLR_ms"});

    // Train once on the smallest size; LLM latency is data-independent by
    // construction (predictions never touch the table).
    DataBundle small = MakeR2Bundle(d, sizes.front(), env.seed + d);
    TrainedModel tm = TrainLlm(small, 0.25,
                               /*gamma=*/0.01, std::min<int64_t>(env.train_cap, 10000),
                               env.seed + 91 * d);

    for (int64_t n : sizes) {
      DataBundle bundle =
          (n == sizes.front()) ? std::move(small) : MakeR2Bundle(d, n, env.seed + d);
      const Timings t = Measure(bundle, *tm.model, env.seed + n, 2000, 40, 5);
      q1.AddRow({util::Format("%lld", static_cast<long long>(n)),
                 util::Format("%.5f", t.llm_q1_ms),
                 util::Format("%.3f", t.scan_q1_ms),
                 util::Format("%.3f", t.kd_q1_ms)});
      q2.AddRow({util::Format("%lld", static_cast<long long>(n)),
                 util::Format("%.5f", t.llm_q2_ms),
                 util::Format("%.3f", t.scan_q2_ms),
                 util::Format("%.3f", t.kd_q2_ms),
                 util::Format("%.2f", t.plr_q2_ms)});
      if (n == sizes.front()) small = std::move(bundle);  // keep for reuse
    }
    EmitTable("bench_fig12_scalability",
              util::Format("q1_time_d%zu", d), q1, env);
    EmitTable("bench_fig12_scalability",
              util::Format("q2_time_d%zu", d), q2, env);
    std::cout << util::Format("model: K=%d, params=%lld bytes\n",
                              tm.model->num_prototypes(),
                              static_cast<long long>(tm.model->ParameterBytes()));
  }

  std::cout << "\npaper shape check: LLM latency is flat in n (sub-ms, here\n"
               "microseconds); scan REG grows linearly with n; PLR is orders\n"
               "of magnitude slower than LLM at every size.\n";
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main() {
  qreg::bench::Run();
  return 0;
}
