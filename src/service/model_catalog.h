// Dataset → model registry: the service layer's source of truth for which
// relations exist, how to answer queries against them exactly, and which
// trained LLM model (if any) can answer them approximately.
//
// Each registered dataset carries a (Table, SpatialIndex) pair — both
// non-owned, caller-managed, as with ExactEngine — plus the hyper-parameters
// to train its model. Two calls train, and nothing else does: TrainAll() at
// set-up drives core::Trainer against the exact engine for every untrained
// dataset, running its scans on every core; MaybeRetrain() (below) retrains
// on drift, on the calling thread. Get() never trains: a dataset registered
// but not yet trained has no model, and the router answers it exactly (or
// refuses, under a model-only policy). A published model is frozen and
// shared immutably with any number of concurrent readers. Models warm-start
// from a core::ModelSerializer file when `warm_start_path` points at one,
// and persist back after a fresh train.
//
// Model freshness: with a DriftPolicy enabled, each trained model carries a
// calibrated core::DriftMonitor and a monotonically increasing *generation*.
// ReportObservation() counts served queries; MaybeRetrain() probes the
// model's RMSE against fresh exact answers and, when the drift threshold
// trips, retrains a private copy of the model and atomically publishes it
// as the next generation — in-flight readers keep their old shared_ptr, new
// snapshots see the fresh model, and generation-tagged cache keys make every
// stale δ-overlap answer unreachable.

#ifndef QREG_SERVICE_MODEL_CATALOG_H_
#define QREG_SERVICE_MODEL_CATALOG_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/drift.h"
#include "core/llm_model.h"
#include "core/trainer.h"
#include "query/exact_engine.h"
#include "query/workload.h"
#include "storage/lp_norm.h"
#include "storage/spatial_index.h"
#include "storage/table.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace qreg {
namespace service {

/// \brief When and how a dataset's model is refreshed as the data moves.
struct DriftPolicy {
  /// Off by default: probes execute `probe_queries` *exact* queries, so
  /// freshness is opt-in per dataset.
  bool enabled = false;

  /// Probe window and drift threshold (see core::DriftMonitor).
  core::DriftConfig config;

  /// ReportObservation() returns true (a probe is due) every
  /// `report_interval` served queries. Clamped to at least 1.
  int64_t report_interval = 256;

  /// Pair budget for a drift-triggered retrain (Algorithm 1 resumed on the
  /// new data distribution).
  int64_t retrain_max_pairs = 10000;
};

/// \brief Per-dataset training recipe.
struct CatalogOptions {
  core::LlmConfig llm;                ///< Model hyper-parameters (ρ, γ, ...).
  core::TrainerConfig trainer;        ///< Pair budget / convergence policy.
  query::WorkloadConfig workload;     ///< Training-query distribution.
  DriftPolicy drift;                  ///< Freshness maintenance (opt-in).

  /// When non-empty: load the model from this ModelSerializer file if it
  /// exists (skipping training), and save a freshly trained model back to it.
  std::string warm_start_path;

  /// Convenience: a recipe for data in [lo, hi]^d with the given radius
  /// distribution, ρ derived from coefficient `a` scaled to the domain.
  static CatalogOptions ForCube(size_t d, double lo, double hi,
                                double theta_mean, double theta_stddev,
                                double a = 0.1, int64_t max_pairs = 20000,
                                uint64_t seed = 1);
};

/// \brief Immutable per-dataset view handed out to executors. The engine
/// pointer stays valid while the catalog (and the registered table/index)
/// lives; the model is shared and frozen.
struct CatalogSnapshot {
  std::string name;
  const query::ExactEngine* engine = nullptr;
  std::shared_ptr<const core::LlmModel> model;  ///< Null until trained.
  core::TrainingReport report;                  ///< Zero until trained.
  double vigilance = 0.0;                       ///< ρ of the trained model.
  bool warm_started = false;                    ///< Loaded, not trained.

  /// Model generation: 0 until trained, 1 after the first train / warm
  /// start, +1 per drift retrain. Tags cache keys so a generation swap
  /// implicitly invalidates every answer produced by older models.
  int64_t generation = 0;

  /// True when drift maintenance is live for this dataset (policy enabled
  /// and the monitor calibrated at training time). Lets callers skip
  /// ReportObservation entirely on the common drift-free path.
  bool drift_enabled = false;
};

/// \brief What one MaybeRetrain() call did.
struct RetrainOutcome {
  /// False when another probe/retrain for the dataset was already in flight
  /// (the call was a no-op; the concurrent one does the work).
  bool probed = false;
  bool retrained = false;          ///< A new generation was published.
  core::DriftReport drift;         ///< Probe measurement (when probed).
  core::TrainingReport report;     ///< Retrain report (when retrained).
  int64_t generation = 0;          ///< Current generation after the call.
};

/// \brief Thread-safe registry of datasets and their trained models.
///
/// One mutex guards the name → entry map, held only for a map find or
/// insert — never across training (TrainAll serializes on its own mutex).
class ModelCatalog {
 public:
  ModelCatalog() = default;

  ModelCatalog(const ModelCatalog&) = delete;
  ModelCatalog& operator=(const ModelCatalog&) = delete;

  /// Registers a dataset. `table` and `index` are borrowed and must outlive
  /// the catalog. Fails with AlreadyExists on duplicate names and
  /// InvalidArgument on dimension mismatches between table and workload.
  util::Status Register(const std::string& name, const storage::Table* table,
                        const storage::SpatialIndex* index, CatalogOptions opts,
                        storage::LpNorm norm = storage::LpNorm::L2());

  /// Snapshot of a registered dataset (model null until TrainAll() trained
  /// or warm-loaded it). Never trains and never blocks on training.
  /// NotFound for unknown names.
  util::Result<CatalogSnapshot> Get(const std::string& name) const;

  /// Trains (or warm-loads) every registered dataset that has no model yet;
  /// the first error aborts. A set-up call: the training scans run on a pool
  /// of hardware_concurrency() - 1 threads plus the caller (core::Trainer's
  /// lookahead window), joined before it returns, and the models are
  /// byte-identical to a serial core::Trainer::Train's. Calls are
  /// serialized, so concurrent callers train each dataset once; a dataset
  /// registered later is trained by the next call.
  util::Status TrainAll() QREG_EXCLUDES(train_mu_);

  /// Counts one served query against the dataset's drift policy. Returns
  /// true when a drift probe is due (every `report_interval` observations on
  /// a drift-enabled, trained dataset) — the caller should then schedule
  /// MaybeRetrain off the hot path, which turns the probe away if another
  /// is already running. False for unknown, untrained or drift-disabled
  /// datasets. Past the entry lookup the cost is one relaxed fetch_add.
  bool ReportObservation(const std::string& name);

  /// Probes the dataset's model for drift and, if the threshold trips,
  /// retrains a copy off the shared model and atomically publishes it as
  /// the next generation (recalibrating the monitor's baseline on the new
  /// model). At most one probe/retrain runs per dataset at a time;
  /// concurrent calls return immediately with `probed = false`. Errors:
  /// NotFound (unknown dataset), FailedPrecondition (untrained or drift
  /// not enabled), or a probe/training failure.
  util::Result<RetrainOutcome> MaybeRetrain(const std::string& name);

  bool Contains(const std::string& name) const;
  std::vector<std::string> Names() const;  ///< Sorted.
  size_t size() const;

 private:
  // Everything produced by training, published as one immutable block so
  // concurrent readers never observe a half-written report.
  struct TrainedState {
    std::shared_ptr<const core::LlmModel> model;
    core::TrainingReport report;
    bool warm_started = false;
    int64_t generation = 0;
  };

  struct Entry {
    std::string name;
    const storage::Table* table = nullptr;
    const storage::SpatialIndex* index = nullptr;
    CatalogOptions opts;
    std::unique_ptr<query::ExactEngine> engine;

    // Written with atomic_store / read with atomic_load: readers never
    // block on training, and never see partial training state. Published
    // first by TrainAll (under train_mu_), rewritten (next generation) by
    // MaybeRetrain under drift_mu.
    std::shared_ptr<const TrainedState> trained;

    // Drift maintenance. `monitor` and `probe_gen` are assigned (under
    // drift_mu) before the first `trained` publication, so any reader that
    // observes a trained state also observes them; drift_live() below is
    // the one sanctioned lock-free read.
    // Serializes probe + retrain + generation swap. Lock order: the
    // catalog's train_mu_ before drift_mu, never the reverse.
    util::Mutex drift_mu;
    // Null = drift off.
    std::unique_ptr<core::DriftMonitor> monitor QREG_GUARDED_BY(drift_mu);
    std::unique_ptr<query::WorkloadGenerator> probe_gen
        QREG_GUARDED_BY(drift_mu);
    std::atomic<int64_t> observations{0};

    /// Lock-free "is drift maintenance live?" hint. Sound without drift_mu
    /// because `monitor` is assigned exactly once, before the `trained`
    /// publication the caller has already observed via atomic_load (the
    /// release/acquire pair orders the write), and never re-pointed
    /// afterwards — probes and retrains mutate *through* the pointer under
    /// drift_mu, they never swing it.
    bool drift_live() const QREG_NO_THREAD_SAFETY_ANALYSIS {
      return monitor != nullptr;
    }
  };

  CatalogSnapshot MakeSnapshot(const Entry& e,
                               std::shared_ptr<const TrainedState> trained) const;
  /// Trains (or warm-loads) `e` and publishes its first generation.
  util::Status TrainEntry(Entry* e, util::ThreadPool* train_pool)
      QREG_REQUIRES(train_mu_);

  /// Creates and calibrates the entry's drift monitor against `model`.
  /// Called before the first trained-state publication; a calibration
  /// failure logs a warning and leaves drift maintenance off (the model
  /// still serves).
  void SetupDrift(Entry* e, const core::LlmModel& model);

  std::shared_ptr<Entry> FindEntry(const std::string& name) const;

  // Held for a whole TrainAll() call: one set-up training at a time, so each
  // entry trains once and its `monitor` is assigned once, before publication.
  util::Mutex train_mu_ QREG_ACQUIRED_BEFORE(mu_);
  mutable util::Mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> entries_ QREG_GUARDED_BY(mu_);
};

}  // namespace service
}  // namespace qreg

#endif  // QREG_SERVICE_MODEL_CATALOG_H_
