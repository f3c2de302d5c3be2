// The training loop of Figure 2: stream random queries, execute them
// *exactly* against the DBMS substrate to obtain answers y, feed the
// (q, y) pairs to the model until Γ ≤ γ (or a pair budget runs out).
//
// The exact answers depend only on the deterministic query stream, never on
// the model, so given a thread pool the trainer answers a lookahead window
// of upcoming queries on the pool and the calling thread, and feeds them to
// LlmModel::Observe one by one in stream order: the model is bit-for-bit the
// one the serial scan-then-observe loop builds, on any number of threads.
//
// The trainer instruments where the work goes (query execution vs model
// update), reproducing the paper's claim that ~99.6% of training cost is the
// unavoidable exact query execution. Training is a set-up (and drift
// retrain) step, never a request's: Train() takes no deadline or
// cancellation, and runs until convergence, the pair budget or a failed scan.

#ifndef QREG_CORE_TRAINER_H_
#define QREG_CORE_TRAINER_H_

#include <cstdint>
#include <vector>

#include "core/llm_model.h"
#include "query/exact_engine.h"
#include "query/workload.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace qreg {
namespace core {

/// \brief Training-loop limits and instrumentation options.
struct TrainerConfig {
  int64_t max_pairs = 100000;    ///< Hard budget of (q, y) pairs.
  int64_t min_pairs = 50;        ///< Do not test convergence before this.
  /// Record Γ every `trace_every` pairs into TrainingReport::gamma_trace
  /// (0 disables tracing).
  int64_t trace_every = 0;
};

/// \brief Outcome of a training run.
struct TrainingReport {
  int64_t pairs_used = 0;        ///< |T|: executed (q, y) pairs fed to the model.
  int64_t pairs_skipped = 0;     ///< Queries whose subspace was empty.
  bool converged = false;
  double final_gamma = 0.0;
  int32_t num_prototypes = 0;

  /// Exact-engine work: the sum of the consumed queries' own scan times.
  /// With a pool the scans of one lookahead window overlap, so this is work,
  /// not wall time (it can exceed the wall time of Train()).
  int64_t query_exec_nanos = 0;
  int64_t model_update_nanos = 0;  ///< Time in LlmModel::Observe.

  /// (pair index, Γ) samples when trace_every > 0.
  std::vector<std::pair<int64_t, double>> gamma_trace;

  /// Fraction of training work spent executing queries (paper: 99.62%).
  /// A work split, independent of how many cores ran the scans.
  double QueryExecFraction() const {
    const double total =
        static_cast<double>(query_exec_nanos + model_update_nanos);
    return total > 0.0 ? static_cast<double>(query_exec_nanos) / total : 0.0;
  }
};

/// \brief Drives Algorithm 1 against an exact engine and a workload.
class Trainer {
 public:
  Trainer(const query::ExactEngine& engine, TrainerConfig config)
      : engine_(engine), config_(config) {}

  /// Streams queries from `workload` into `model` until convergence or the
  /// pair budget. The model is mutated in place.
  ///
  /// With a null `pool` (or one with 0 workers) each query is drawn, scanned
  /// and observed in turn on the calling thread. With workers, the scans run
  /// a lookahead window of up to W queries (a constant in trainer.cc, never
  /// past the remaining pair budget) at a time on `pool` plus the calling
  /// thread, drawn from a copy of `*workload`; at most W - 1 scans are wasted
  /// when training converges mid-window. Either way the model, the report's
  /// counters and Γ trace are identical, and `workload` is advanced by
  /// exactly the queries consumed. Pass a pool only where taking every core
  /// is fine (set-up); drift retrains pass none.
  ///
  /// A scan that fails for any reason but an empty subspace (kNotFound,
  /// skipped) aborts training with its status, e.g. kFailedPrecondition
  /// from an index that no longer covers its table. The model keeps the
  /// pairs it has already absorbed.
  util::Result<TrainingReport> Train(query::WorkloadGenerator* workload,
                                     LlmModel* model,
                                     util::ThreadPool* pool = nullptr) const;

  /// Trains from pre-computed pairs, one Observe per pair in order: the
  /// serial reference the lookahead-equivalence tests hold Train to.
  util::Result<TrainingReport> TrainFromPairs(
      const std::vector<query::QueryAnswer>& pairs, LlmModel* model) const;

 private:
  const query::ExactEngine& engine_;
  TrainerConfig config_;
};

}  // namespace core
}  // namespace qreg

#endif  // QREG_CORE_TRAINER_H_
