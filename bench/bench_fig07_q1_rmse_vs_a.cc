// Figure 7: Q1 prediction RMSE e against the quantization-resolution
// coefficient a, over R2 (left) and R1 (right), for d ∈ {2, 3, 5}.

#include <iostream>

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace qreg {
namespace bench {
namespace {

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  PrintHeader("bench_fig07_q1_rmse_vs_a",
              "Figure 7: Q1 RMSE e vs coefficient a (R2 left, R1 right)", env);

  const std::vector<double> a_values{0.05, 0.1, 0.15, 0.25, 0.4, 0.6, 0.9};
  const std::vector<size_t> dims{2, 3, 5};
  const int64_t cap = std::min<int64_t>(env.train_cap, 15000);
  const int64_t m = std::min<int64_t>(env.test_queries, 1000);

  for (const char* ds_name : {"R2", "R1"}) {
    util::TablePrinter table({"a", "RMSE_d2", "RMSE_d3", "RMSE_d5", "K_d2",
                              "K_d3", "K_d5"});
    std::vector<std::vector<std::string>> rows(a_values.size());
    for (size_t ai = 0; ai < a_values.size(); ++ai) {
      rows[ai].push_back(util::Format("%.2f", a_values[ai]));
    }
    std::vector<std::string> k_cells[3];

    for (size_t di = 0; di < dims.size(); ++di) {
      const size_t d = dims[di];
      DataBundle bundle = std::string(ds_name) == "R1"
                              ? MakeR1Bundle(d, env.rows_r1, env.seed + d)
                              : MakeR2Bundle(d, env.rows_r2, env.seed + d);
      for (size_t ai = 0; ai < a_values.size(); ++ai) {
        TrainedModel tm =
            TrainLlm(bundle, a_values[ai], 0.01, cap, env.seed + 100 * d + ai);
        const double rmse = EvalQ1Rmse(*tm.model, bundle, m, env.seed + ai);
        rows[ai].push_back(util::Format("%.4f", rmse));
        k_cells[di].push_back(util::Format("%d", tm.model->num_prototypes()));
      }
    }
    for (size_t ai = 0; ai < a_values.size(); ++ai) {
      for (size_t di = 0; di < dims.size(); ++di) {
        rows[ai].push_back(k_cells[di][ai]);
      }
      table.AddRow(rows[ai]);
    }
    EmitTable("bench_fig07_q1_rmse_vs_a",
              util::Format("rmse_vs_a_%s", ds_name), table, env);
  }

  std::cout << "\npaper shape check: RMSE grows as a -> 1 (coarser\n"
               "quantization, fewer LLMs); low RMSE plateaus at small a.\n";
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main() {
  qreg::bench::Run();
  return 0;
}
