// Figure 8: Q1 RMSE against the number of (unseen) testing pairs |V| for
// R2 (left) and R1 (right), d ∈ {2, 3, 5}, a = 0.25. The paper's point:
// once converged, prediction error is flat in |V| (the model generalizes;
// error does not accumulate with workload size).

#include <iostream>

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace qreg {
namespace bench {
namespace {

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  PrintHeader("bench_fig08_q1_rmse_vs_testsize",
              "Figure 8: Q1 RMSE e vs testing-set size |V| (a=0.25)", env);

  const std::vector<int64_t> test_sizes{2000, 6000, 10000, 14000, 20000};
  const std::vector<size_t> dims{2, 3, 5};
  const int64_t cap = std::min<int64_t>(env.train_cap, 20000);

  for (const char* ds_name : {"R2", "R1"}) {
    util::TablePrinter table({"|V|", "RMSE_d2", "RMSE_d3", "RMSE_d5"});
    std::vector<std::vector<std::string>> rows(test_sizes.size());
    for (size_t vi = 0; vi < test_sizes.size(); ++vi) {
      rows[vi].push_back(
          util::Format("%lld", static_cast<long long>(test_sizes[vi])));
    }
    for (size_t d : dims) {
      DataBundle bundle = std::string(ds_name) == "R1"
                              ? MakeR1Bundle(d, env.rows_r1, env.seed + d)
                              : MakeR2Bundle(d, env.rows_r2, env.seed + d);
      TrainedModel tm = TrainLlm(bundle, 0.25, 0.01, cap, env.seed + 31 * d);
      for (size_t vi = 0; vi < test_sizes.size(); ++vi) {
        const double rmse =
            EvalQ1Rmse(*tm.model, bundle, test_sizes[vi], env.seed + vi);
        rows[vi].push_back(util::Format("%.4f", rmse));
      }
    }
    for (auto& row : rows) table.AddRow(row);
    EmitTable("bench_fig08_q1_rmse_vs_testsize",
              util::Format("rmse_vs_testsize_%s", ds_name), table, env);
  }

  std::cout << "\npaper shape check: RMSE is essentially constant across |V|\n"
               "(converged models generalize; no error growth with workload).\n";
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main() {
  qreg::bench::Run();
  return 0;
}
