// Figure 5 (left): on a 1-D non-linear data function over D(0.5, 0.5), the
// K≈6 LLMs track the curve, PLR (MARS) fits it with hinge pieces, and the
// single global REG line misses the shape. Prints the evaluation-grid
// series and the FVU of each method over the same subspace.

#include <iostream>

#include "bench/bench_common.h"
#include "core/trainer.h"
#include "data/functions.h"
#include "data/generator.h"
#include "eval/fvu_eval.h"
#include "eval/metrics.h"
#include "linalg/matrix.h"
#include "plr/mars.h"
#include "query/exact_engine.h"
#include "storage/kdtree.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace qreg {
namespace bench {
namespace {

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  PrintHeader("bench_fig05_local_linearity",
              "Figure 5 (left): LLMs vs REG vs PLR on a 1-D non-linear g", env);

  // Dataset: the S-curve-with-bumps on [0,1].
  data::DatasetConfig dcfg;
  dcfg.n = std::min<int64_t>(env.rows_r1, 100000);
  dcfg.noise_stddev = 0.0;
  dcfg.scale_output_unit = false;
  dcfg.seed = env.seed;
  auto ds = data::GenerateDataset(std::make_shared<data::Curve1DFunction>(), dcfg);
  if (!ds.ok()) {
    std::cerr << ds.status() << "\n";
    std::exit(1);
  }
  storage::KdTree index(ds->table);
  query::ExactEngine engine(ds->table, index);

  // Train the LLM model with fine quantization (K ≈ 6 local lines).
  core::LlmConfig cfg = core::LlmConfig::ForDomain(1, 0.05, 0.005, 1.0, 0.2);
  core::LlmModel model(cfg);
  core::TrainerConfig tc;
  tc.max_pairs = env.train_cap;
  tc.min_pairs = 5000;
  core::Trainer trainer(engine, tc);
  query::WorkloadGenerator gen(
      query::WorkloadConfig::Cube(1, 0.0, 1.0, 0.05, 0.02, env.seed + 1));
  auto report = trainer.Train(&gen, &model);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    std::exit(1);
  }

  // The Figure-5 subspace D(0.5, 0.5) = the whole domain.
  const query::Query ball({0.5}, 0.5);
  auto ids = engine.Select(ball).value();
  auto reg = engine.Regression(ball);

  // PLR: MARS capped at the same number of linear pieces.
  linalg::Matrix x(ids.size(), 1);
  std::vector<double> u(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    x(i, 0) = ds->table.x(ids[i])[0];
    u[i] = ds->table.u(ids[i]);
  }
  plr::MarsConfig mc;
  mc.max_terms = 2 * model.num_prototypes() + 1;
  mc.max_fit_rows = 20000;
  auto mars = plr::FitMars(x, u, mc);

  // Series over an evaluation grid: per-point LLM prediction uses a local
  // neighbourhood query (Eq. 14 with θ at the training scale).
  data::Curve1DFunction g;
  util::TablePrinter series({"x", "g(x)", "LLM", "REG", "PLR"});
  eval::FvuAccumulator fvu_llm, fvu_reg, fvu_plr;
  for (int i = 0; i <= 24; ++i) {
    const double xi = static_cast<double>(i) / 24.0;
    const double actual = g.Eval(&xi);
    const query::Query local({xi}, 0.05);
    const double llm = model.PredictValue(local, {xi}).value_or(0.0);
    const double reg_pred = reg.ok() ? reg->Predict({xi}) : 0.0;
    const double plr_pred = mars.ok() ? mars->Predict({xi}) : 0.0;
    series.AddNumericRow({xi, actual, llm, reg_pred, plr_pred}, 4);
    fvu_llm.Add(actual, llm);
    fvu_reg.Add(actual, reg_pred);
    fvu_plr.Add(actual, plr_pred);
  }
  EmitTable("bench_fig05_local_linearity", "series", series, env);

  util::TablePrinter summary({"method", "pieces", "FVU_grid", "CoD_grid"});
  summary.AddRow({"LLM", util::Format("%d", model.num_prototypes()),
                  util::Format("%.4f", fvu_llm.Fvu()),
                  util::Format("%.4f", fvu_llm.CoD())});
  summary.AddRow({"REG", "1", util::Format("%.4f", fvu_reg.Fvu()),
                  util::Format("%.4f", fvu_reg.CoD())});
  summary.AddRow({"PLR", util::Format("%d", mars.ok() ? mars->num_hinges() : 0),
                  util::Format("%.4f", fvu_plr.Fvu()),
                  util::Format("%.4f", fvu_plr.CoD())});
  EmitTable("bench_fig05_local_linearity", "summary", summary, env);

  std::cout << "\npaper shape check: LLM and PLR FVU << REG FVU; the global\n"
               "line cannot represent the S-curve, local pieces can.\n";
}

}  // namespace
}  // namespace bench
}  // namespace qreg

int main() {
  qreg::bench::Run();
  return 0;
}
