// Figure 14: the joint trajectory of (|T|, RMSE e, CoD R²) as µθ sweeps
// from 0.01 to 0.99, for d = 2 (left) and d = 5 (right) on R1 (a = 0.25) —
// the 3-D trade-off plot of the paper rendered as a trajectory table.

#include <iostream>

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace qreg {
namespace bench {
namespace {

// Local trainer with a low convergence floor so the paper's |T|-vs-mu_theta
// signal is visible (TrainLlm's 2000-pair floor would mask it).
TrainedModel TrainWithLowFloor(const DataBundle& bundle, double a, double gamma,
                               int64_t cap, uint64_t seed) {
  core::LlmConfig cfg = core::LlmConfig::ForDomain(
      bundle.table().dimension(), a, gamma, bundle.profile.x_range,
      bundle.profile.theta_range);
  TrainedModel out;
  out.model = std::make_unique<core::LlmModel>(cfg);
  core::TrainerConfig tc;
  tc.max_pairs = cap;
  tc.min_pairs = 200;
  core::Trainer trainer(*bundle.engine, tc);
  query::WorkloadGenerator gen = MakeWorkload(bundle, seed);
  auto report = trainer.Train(&gen, out.model.get());
  if (report.ok()) out.report = std::move(report).value();
  return out;
}

}  // namespace

namespace {

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  PrintHeader("bench_fig14_theta_trajectory",
              "Figure 14: trajectory of (|T|, RMSE, CoD) as mu_theta sweeps",
              env);

  const std::vector<double> mus{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.99};
  const int64_t cap = std::min<int64_t>(env.train_cap, 25000);
  const int64_t m = std::min<int64_t>(env.test_queries, 600);

  for (size_t d : {2UL, 5UL}) {
    DataBundle bundle = MakeR1Bundle(d, env.rows_r1, env.seed + 2 * d);
    util::TablePrinter table({"mu_theta", "size|T|", "RMSE_e", "CoD_R2"});
    for (double mu : mus) {
      bundle.profile.theta_mean = mu;
      bundle.profile.theta_stddev = 0.1;
      TrainedModel tm = TrainWithLowFloor(bundle, 0.25, 0.01, cap,
                                 env.seed + static_cast<uint64_t>(mu * 777));
      const double rmse = EvalQ1Rmse(*tm.model, bundle, m, env.seed + 8);
      Q2Eval q2 = EvalQ2(*tm.model, bundle, 10, env.seed + 9,
                         /*eval_plr=*/false, 0);
      table.AddRow(
          {util::Format("%.2f", mu),
           util::Format("%lld", static_cast<long long>(tm.report.pairs_used)),
           util::Format("%.4f", rmse), util::Format("%.4f", q2.llm_cod)});
    }
    EmitTable("bench_fig14_theta_trajectory",
              util::Format("trajectory_d%zu", d), table, env);
  }

  std::cout << "\npaper shape check: the trajectory runs from (large |T|,\n"
               "higher RMSE, high CoD) at mu=0.01 toward (small |T|, low RMSE,\n"
               "low/negative CoD) at mu=0.99 — the Figure 13/14 trade-off.\n";
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main() {
  qreg::bench::Run();
  return 0;
}
