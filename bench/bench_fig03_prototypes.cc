// Figure 3 (Example 1): 1,000 random queries over the 2-D input space
// [-1.5, 1.5]^2 are quantized into a handful of query prototypes.
// Prints the learned prototypes and the K-vs-a relationship for the same
// query stream.

#include <iostream>

#include "bench/bench_common.h"
#include "core/llm_model.h"
#include "query/workload.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace qreg {
namespace bench {
namespace {

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  PrintHeader("bench_fig03_prototypes",
              "Figure 3: query prototypes of 1,000 queries on [-1.5,1.5]^2",
              env);

  const size_t d = 2;
  const int64_t n_queries = 1000;

  // Example 1 yields K = 5 prototypes; with ρ = a(√d·R + R_θ) over the
  // range-3 input that corresponds to a ≈ 0.22.
  const double x_range = 3.0;
  const double theta_range = 0.5;

  util::TablePrinter k_table({"a", "vigilance_rho", "K"});
  for (double a : {0.15, 0.22, 0.25, 0.35, 0.45, 0.6, 0.8}) {
    core::LlmConfig cfg =
        core::LlmConfig::ForDomain(d, a, 0.01, x_range, theta_range);
    core::LlmModel model(cfg);
    query::WorkloadGenerator gen(
        query::WorkloadConfig::Cube(d, -1.5, 1.5, 0.25, 0.05, env.seed));
    for (int64_t i = 0; i < n_queries; ++i) {
      const query::Query q = gen.Next();
      // Example 1 concerns quantization only; answers are immaterial here.
      (void)model.Observe(q, 0.0);
    }
    k_table.AddRow({util::Format("%.2f", a), util::Format("%.3f", cfg.vigilance),
                    util::Format("%d", model.num_prototypes())});

    if (a == 0.22) {  // K lands at ~5 here, matching Example 1
      util::TablePrinter protos({"k", "x1", "x2", "theta", "wins"});
      int k = 0;
      for (const core::Prototype& p : model.prototypes()) {
        protos.AddRow({util::Format("%d", ++k),
                       util::Format("%.3f", p.w.center[0]),
                       util::Format("%.3f", p.w.center[1]),
                       util::Format("%.3f", p.w.theta),
                       util::Format("%lld", static_cast<long long>(p.wins))});
      }
      EmitTable("bench_fig03_prototypes", "prototypes_example1", protos, env);
    }
  }
  EmitTable("bench_fig03_prototypes", "k_vs_a", k_table, env);

  std::cout << "\npaper shape check: K is small (≈5) at coarse vigilance and\n"
               "grows monotonically as a decreases (finer quantization).\n";
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main() {
  qreg::bench::Run();
  return 0;
}
