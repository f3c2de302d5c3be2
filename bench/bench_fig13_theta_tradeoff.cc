// Figure 13: impact of the query radius distribution θ ~ N(µθ, σθ²).
// (left) Q1 RMSE e vs µθ — larger radii smooth the answers and shrink RMSE;
// (right) training pairs |T| needed for convergence vs the resulting CoD —
// small radii cost more training but are required for good fits.

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
  PrintHeader("bench_fig13_theta_tradeoff",
              "Figure 13: RMSE vs mu_theta; |T| vs CoD trade-off (R1, a=0.25)",
              env);

  const std::vector<double> mus{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9};
  const int64_t cap = std::min<int64_t>(env.train_cap, 25000);
  const int64_t m = std::min<int64_t>(env.test_queries, 800);

  for (size_t d : {2UL, 5UL}) {
    DataBundle bundle = MakeR1Bundle(d, env.rows_r1, env.seed + d);
    util::TablePrinter table(
        {"mu_theta", "pairs|T|", "converged", "K", "RMSE_e", "CoD_R2"});
    for (double mu : mus) {
      bundle.profile.theta_mean = mu;
      bundle.profile.theta_stddev = 0.1;
      TrainedModel tm = TrainWithLowFloor(bundle, 0.25, 0.01, cap,
                                 env.seed + static_cast<uint64_t>(mu * 1000));
      const double rmse = EvalQ1Rmse(*tm.model, bundle, m, env.seed + 3);
      Q2Eval q2 = EvalQ2(*tm.model, bundle, 10, env.seed + 4,
                         /*eval_plr=*/false, 0);
      table.AddRow(
          {util::Format("%.2f", mu),
           util::Format("%lld", static_cast<long long>(tm.report.pairs_used)),
           tm.report.converged ? "yes" : "no",
           util::Format("%d", tm.model->num_prototypes()),
           util::Format("%.4f", rmse), util::Format("%.4f", q2.llm_cod)});
    }
    EmitTable("bench_fig13_theta_tradeoff",
              util::Format("theta_tradeoff_d%zu", d), table, env);
  }

  std::cout << "\npaper shape check: RMSE e falls as mu_theta grows (answers\n"
               "approach the global mean), while CoD degrades (g is explained\n"
               "by a near-constant); small mu_theta needs the most pairs |T|.\n";
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main() {
  qreg::bench::Run();
  return 0;
}
