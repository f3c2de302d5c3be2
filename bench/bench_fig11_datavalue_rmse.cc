// Figure 11: data-value prediction accuracy (A2) — RMSE v of LLM (Eq. 14),
// REG (per-subspace exact OLS prediction), and PLR (per-subspace MARS
// prediction) against the number of testing points |V|, for d ∈ {2, 5} on
// R2 (left) and R1 (right).

#include <iostream>

#include "bench/bench_common.h"
#include "eval/metrics.h"
#include "linalg/matrix.h"
#include "plr/mars.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace qreg {
namespace bench {
namespace {

struct A2Result {
  double llm = 0.0, reg = 0.0, plr = 0.0;
};

A2Result EvalA2(const core::LlmModel& model, const DataBundle& bundle,
                int64_t m, int64_t plr_budget, uint64_t seed) {
  util::Rng rng(seed);
  const storage::Table& table = bundle.table();
  const size_t d = table.dimension();
  eval::RmseAccumulator llm_acc, reg_acc, plr_acc;

  for (int64_t i = 0; i < m; ++i) {
    const int64_t id = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(table.num_rows())));
    const std::vector<double> x = table.XRow(id);
    const double actual = table.u(id);
    const query::Query q(x, bundle.profile.theta_mean);

    auto pred = model.PredictValue(q, x);
    if (pred.ok()) llm_acc.Add(actual, *pred);

    auto reg = bundle.engine->Regression(q);
    if (reg.ok()) reg_acc.Add(actual, reg->Predict(x));

    // PLR is far too expensive to fit per point at full |V|; evaluate it on
    // a budgeted prefix (documented in EXPERIMENTS.md).
    if (plr_acc.count() < plr_budget) {
      auto ids = bundle.engine->Select(q).value();
      if (static_cast<int64_t>(ids.size()) >= static_cast<int64_t>(4 * (d + 1))) {
        linalg::Matrix xm(ids.size(), d);
        std::vector<double> u(ids.size());
        for (size_t r = 0; r < ids.size(); ++r) {
          const double* row = table.x(ids[r]);
          for (size_t j = 0; j < d; ++j) xm(r, j) = row[j];
          u[r] = table.u(ids[r]);
        }
        plr::MarsConfig mc;
        mc.max_terms = 15;
        mc.max_fit_rows = 2000;
        mc.max_knots_per_dim = 8;
        auto mars = plr::FitMars(xm, u, mc);
        if (mars.ok()) plr_acc.Add(actual, mars->Predict(x));
      }
    }
  }
  return {llm_acc.Rmse(), reg_acc.Rmse(), plr_acc.Rmse()};
}

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  PrintHeader("bench_fig11_datavalue_rmse",
              "Figure 11: data-value RMSE v vs |V| for LLM / REG / PLR", env);

  const std::vector<int64_t> test_sizes{2000, 6000, 10000};
  const int64_t cap = std::min<int64_t>(env.train_cap, 20000);
  const int64_t plr_budget = 60;

  for (const char* ds_name : {"R2", "R1"}) {
    for (size_t d : {2UL, 5UL}) {
      DataBundle bundle = std::string(ds_name) == "R1"
                              ? MakeR1Bundle(d, env.rows_r1, env.seed + d)
                              : MakeR2Bundle(d, env.rows_r2, env.seed + d);
      // a = 0.1 yields an effective K comparable to the paper's a = 0.25
      // on its (larger-spread) query geometry; K is reported below.
      TrainedModel tm = TrainLlm(bundle, 0.1, 0.01, cap, env.seed + 5 * d);
      std::cout << util::Format("%s d=%zu: K=%d\n", ds_name, d,
                                tm.model->num_prototypes());
      util::TablePrinter table({"|V|", "RMSE_LLM", "RMSE_REG", "RMSE_PLR"});
      for (int64_t v : test_sizes) {
        A2Result r = EvalA2(*tm.model, bundle, v, plr_budget, env.seed + v);
        table.AddRow({util::Format("%lld", static_cast<long long>(v)),
                      util::Format("%.4f", r.llm), util::Format("%.4f", r.reg),
                      util::Format("%.4f", r.plr)});
      }
      EmitTable("bench_fig11_datavalue_rmse",
                util::Format("a2_rmse_%s_d%zu", ds_name, d), table, env);
    }
  }

  std::cout << "\npaper shape check: LLM's v is flat in |V| and comparable to\n"
               "REG; PLR attains the lowest v but touches the data per query.\n";
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main() {
  qreg::bench::Run();
  return 0;
}
