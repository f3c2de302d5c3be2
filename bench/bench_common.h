// Shared infrastructure for the figure-reproduction benches (DESIGN.md §4).
//
// Every bench binary prints the paper's series as an aligned console table.
// Environment knobs (all optional):
//   QREG_ROWS_R1 / QREG_ROWS_R2   dataset sizes (default 200,000)
//   QREG_SCALE                    multiplies both sizes (default 1)
//   QREG_TRAIN_CAP                max training pairs per model (default 30,000)
//   QREG_TEST_QUERIES             evaluation queries per point (default 2,000)
//   QREG_SEED                     master seed (default 42)
//   QREG_OUT_DIR                  where result files go (default bench/out)
//
// Every table a bench prints is also written, through EmitTable, to
// <out dir>/<bench>_<table>.json; that is the only result file a bench writes.
// <bench> is the binary's name (bench_fig07_q1_rmse_vs_a writes
// bench_fig07_q1_rmse_vs_a_rmse_vs_a_R1.json), and record keys are the
// table's column names: snake_case, with the unit as a suffix (hybrid_p99_ms).

#ifndef QREG_BENCH_BENCH_COMMON_H_
#define QREG_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/llm_model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "query/exact_engine.h"
#include "query/workload.h"
#include "storage/kdtree.h"
#include "storage/scan_index.h"
#include "util/table_printer.h"

namespace qreg {
namespace bench {

/// \brief Scaled-down evaluation parameters (see DESIGN.md §3 for how the
/// paper's 15M/10^10-row setups map onto container-scale defaults).
struct BenchEnv {
  int64_t rows_r1;
  int64_t rows_r2;
  int64_t train_cap;
  int64_t test_queries;
  uint64_t seed;

  static BenchEnv FromEnv();
};

/// \brief Per-dataset workload parameters (µθ, σθ and query-center bounds).
struct DatasetProfile {
  std::string name;        // "R1" or "R2"
  double center_lo = 0.0;
  double center_hi = 1.0;
  double theta_mean = 0.1;
  double theta_stddev = 0.1;
  double x_range = 1.0;      // per-dimension attribute range (for vigilance)
  double theta_range = 1.0;  // θ range scale (for vigilance)
};

/// \brief R1 profile: unit cube, θ ~ N(0.1, 0.1²) — the paper's setting.
DatasetProfile R1Profile();

/// \brief R2 profile: [-10,10]^d. The paper uses θ ~ N(1, 0.5²) over 10^10
/// rows; at container-scale densities we widen to θ ~ N(2, 0.4²) so the
/// average subspace still holds O(100) tuples (DESIGN.md §3).
DatasetProfile R2Profile();

/// \brief A dataset + index + exact engine bundle.
struct DataBundle {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<storage::KdTree> kdtree;
  std::unique_ptr<storage::ScanIndex> scan;
  std::unique_ptr<query::ExactEngine> engine;       // kd-tree access path
  std::unique_ptr<query::ExactEngine> scan_engine;  // sequential access path
  DatasetProfile profile;

  const storage::Table& table() const { return dataset->table; }
};

/// \brief Builds R1 (gas-sensor substitute) at dimension d.
DataBundle MakeR1Bundle(size_t d, int64_t rows, uint64_t seed);

/// \brief Builds R2 (Rosenbrock) at dimension d.
DataBundle MakeR2Bundle(size_t d, int64_t rows, uint64_t seed);

/// \brief Workload generator matching a bundle's profile.
query::WorkloadGenerator MakeWorkload(const DataBundle& bundle, uint64_t seed);

/// \brief Result of training one model against a bundle.
struct TrainedModel {
  std::unique_ptr<core::LlmModel> model;
  core::TrainingReport report;
};

/// \brief Trains an LLM model with vigilance coefficient `a` on the bundle's
/// workload until Γ ≤ γ or `train_cap` pairs.
TrainedModel TrainLlm(const DataBundle& bundle, double a, double gamma,
                      int64_t train_cap, uint64_t seed);

/// \brief Q1 accuracy: RMSE between model predictions and exact answers on
/// `m` fresh queries (empty subspaces skipped).
double EvalQ1Rmse(const core::LlmModel& model, const DataBundle& bundle,
                  int64_t m, uint64_t seed);

/// \brief Data-value accuracy (A2): RMSE of û against the stored u on `m`
/// sampled rows, with neighbourhoods from the bundle's query profile.
double EvalDataValueRmse(const core::LlmModel& model, const DataBundle& bundle,
                         int64_t m, uint64_t seed);

/// \brief Q2 goodness-of-fit comparison on `m` fresh queries.
struct Q2Eval {
  double llm_fvu = 0.0;   ///< Mean per-local-model FVU (paper's s for LLM).
  double reg_fvu = 0.0;   ///< Mean exact-OLS FVU over the same subspaces.
  double plr_fvu = 0.0;   ///< Mean MARS FVU (only if eval_plr).
  double llm_cod = 0.0, reg_cod = 0.0, plr_cod = 0.0;
  double avg_pieces = 0.0;  ///< Mean |S| returned by Algorithm 3.
  int64_t queries = 0;
};

/// `theta_scale` multiplies the profile's µθ/σθ for the *evaluation* balls:
/// Q2 subspaces larger than the training radius exercise the piecewise
/// decomposition (|S| > 1); at 1.0 most subspaces overlap a single prototype
/// and Algorithm 3 degenerates to one plane (see EXPERIMENTS.md).
Q2Eval EvalQ2(const core::LlmModel& model, const DataBundle& bundle, int64_t m,
              uint64_t seed, bool eval_plr, int32_t plr_max_terms,
              double theta_scale = 1.0);

/// \brief Prints the standard bench header.
void PrintHeader(const std::string& bench, const std::string& paper_ref,
                 const BenchEnv& env);

/// \brief Artifact directory for bench outputs: QREG_OUT_DIR if set, else
/// "bench/out" relative to the working directory. Created (recursively) on
/// first call.
std::string OutDir();

/// \brief Prints a table and writes it to OutDir()/<bench>_<table>.json as
/// one object (`bench_name` is the bench binary's name): `bench`, `table`, `hardware_concurrency`, the env's sizes and
/// seed, and `records`, one object per row keyed by the header (cells that
/// parse as finite numbers, and true/false, stay JSON literals; the rest are
/// strings). Reports a failed write on stderr and returns false.
bool EmitTable(const std::string& bench_name, const std::string& table_name,
               const util::TablePrinter& table, const BenchEnv& env);

}  // namespace bench
}  // namespace qreg

#endif  // QREG_BENCH_BENCH_COMMON_H_
