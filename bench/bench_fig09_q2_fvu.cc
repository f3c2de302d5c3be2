// Figure 9: Q2 goodness of fit — FVU s of LLM (mean per-local-model FVU),
// REG (exact OLS over each subspace), and PLR (MARS over each subspace) as
// a function of the coefficient a, for d ∈ {2, 5} on R2 (left) and R1
// (right). REG/PLR do not depend on a and are computed once per setting.

#include <iostream>

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace qreg {
namespace bench {
namespace {

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  PrintHeader(
      "bench_fig09_q2_fvu",
      "Figure 9: FVU s of LLM / REG / PLR vs coefficient a (d=2,5; R2, R1)",
      env);

  const std::vector<size_t> dims{2, 5};
  const int64_t cap = std::min<int64_t>(env.train_cap, 15000);
  const int64_t m = 12;  // Q2 subspaces per point (PLR fits are expensive).

  for (const char* ds_name : {"R2", "R1"}) {
    for (size_t d : dims) {
      // d = 5 starts at a = 0.1: below that the codebook outgrows the
      // training budget (the paper's own over-fitting caveat, Section III),
      // and evaluation balls are kept at 1.5x the training radius so pieces
      // are not scored on extreme extrapolation across the whole domain.
      const std::vector<double> a_values =
          d >= 4 ? std::vector<double>{0.1, 0.2, 0.35, 0.5, 0.75, 1.0}
                 : std::vector<double>{0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0};
      const double theta_scale = d >= 4 ? 1.5 : 3.0;
      DataBundle bundle = std::string(ds_name) == "R1"
                              ? MakeR1Bundle(d, env.rows_r1, env.seed + d)
                              : MakeR2Bundle(d, env.rows_r2, env.seed + d);

      util::TablePrinter table({"a", "K", "avg|S|", "FVU_LLM", "FVU_REG",
                                "FVU_PLR", "CoD_LLM", "CoD_REG", "CoD_PLR"});
      double reg_fvu = 0.0, plr_fvu = 0.0;
      bool baselines_done = false;

      for (double a : a_values) {
        TrainedModel tm =
            TrainLlm(bundle, a, 0.01, cap, env.seed + static_cast<uint64_t>(a * 100));
        // PLR max terms tied to the discovered K (the paper's setting).
        const int32_t plr_terms =
            std::min<int32_t>(2 * tm.model->num_prototypes() + 1, 21);
        Q2Eval q2 = EvalQ2(*tm.model, bundle, m, env.seed + 7,
                           /*eval_plr=*/!baselines_done, plr_terms,
                           theta_scale);
        if (!baselines_done) {
          reg_fvu = q2.reg_fvu;
          plr_fvu = q2.plr_fvu;
          baselines_done = true;
        }
        table.AddRow({util::Format("%.2f", a),
                      util::Format("%d", tm.model->num_prototypes()),
                      util::Format("%.1f", q2.avg_pieces),
                      util::Format("%.4f", q2.llm_fvu),
                      util::Format("%.4f", reg_fvu),
                      util::Format("%.4f", plr_fvu),
                      util::Format("%.4f", q2.llm_cod),
                      util::Format("%.4f", 1.0 - reg_fvu),
                      util::Format("%.4f", 1.0 - plr_fvu)});
      }
      EmitTable("bench_fig09_q2_fvu",
                util::Format("fvu_vs_a_%s_d%zu", ds_name, d), table, env);
    }
  }

  std::cout << "\npaper shape check: FVU_LLM < FVU_REG for small a and\n"
               "approaches it as a -> 1 (one LLM = one global line); PLR has\n"
               "the lowest FVU but needs full data access per query.\n";
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main() {
  qreg::bench::Run();
  return 0;
}
