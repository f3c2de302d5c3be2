#include "service/model_catalog.h"

#include <sys/stat.h>

#include <algorithm>
#include <thread>
#include <utility>

#include "core/model_io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace qreg {
namespace service {

namespace {

// Seed of the drift probe-query stream: a workload distinct from the
// training stream, so probes measure generalization, not memorized pairs.
constexpr uint64_t kDriftProbeSeed = 101;

bool FileExists(const std::string& path) {
  struct stat st;
  return !path.empty() && ::stat(path.c_str(), &st) == 0;
}

}  // namespace

CatalogOptions CatalogOptions::ForCube(size_t d, double lo, double hi,
                                       double theta_mean, double theta_stddev,
                                       double a, int64_t max_pairs,
                                       uint64_t seed) {
  CatalogOptions opts;
  const double x_range = hi - lo;
  // θ spans roughly [0, µθ + 2σθ]; vigilance scales with that range.
  const double theta_range = std::max(theta_mean + 2.0 * theta_stddev, 1e-6);
  opts.llm = core::LlmConfig::ForDomain(d, a, /*gamma=*/0.01, x_range, theta_range);
  opts.trainer.max_pairs = max_pairs;
  opts.trainer.min_pairs = std::min<int64_t>(max_pairs, 500);
  opts.workload = query::WorkloadConfig::Cube(d, lo, hi, theta_mean,
                                              theta_stddev, seed);
  return opts;
}

util::Status ModelCatalog::Register(const std::string& name,
                                    const storage::Table* table,
                                    const storage::SpatialIndex* index,
                                    CatalogOptions opts, storage::LpNorm norm) {
  if (name.empty()) {
    return util::Status::InvalidArgument("dataset name must be non-empty");
  }
  if (table == nullptr || index == nullptr) {
    return util::Status::InvalidArgument("table and index must be non-null");
  }
  if (table->dimension() != opts.workload.d) {
    return util::Status::InvalidArgument(util::Format(
        "workload dimension %zu does not match table dimension %zu",
        opts.workload.d, table->dimension()));
  }
  if (opts.llm.d != table->dimension()) {
    return util::Status::InvalidArgument(util::Format(
        "model dimension %zu does not match table dimension %zu", opts.llm.d,
        table->dimension()));
  }
  QREG_RETURN_NOT_OK(opts.llm.Validate());
  QREG_RETURN_NOT_OK(query::WorkloadGenerator(opts.workload).Validate());

  auto entry = std::make_shared<Entry>();
  entry->name = name;
  entry->table = table;
  entry->index = index;
  entry->opts = std::move(opts);
  entry->engine = std::make_unique<query::ExactEngine>(*table, *index, norm);

  util::MutexLock lock(&mu_);
  if (entries_.count(name) > 0) {
    return util::Status::AlreadyExists(
        util::Format("dataset '%s' is already registered", name.c_str()));
  }
  entries_.emplace(name, std::move(entry));
  return util::Status::OK();
}

std::shared_ptr<ModelCatalog::Entry> ModelCatalog::FindEntry(
    const std::string& name) const {
  util::MutexLock lock(&mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

CatalogSnapshot ModelCatalog::MakeSnapshot(
    const Entry& e, std::shared_ptr<const TrainedState> trained) const {
  CatalogSnapshot snap;
  snap.name = e.name;
  snap.engine = e.engine.get();
  if (trained) {
    snap.model = trained->model;
    snap.report = trained->report;
    snap.warm_started = trained->warm_started;
    snap.generation = trained->generation;
    // drift_live(): `monitor` is written before the trained-state
    // publication this snapshot observed, never re-pointed afterwards.
    snap.drift_enabled = e.drift_live();
    if (snap.model) snap.vigilance = snap.model->config().vigilance;
  }
  return snap;
}

util::Status ModelCatalog::TrainEntry(Entry* e, util::ThreadPool* train_pool) {
  // Warm start: a previously persisted parameter set α skips training
  // entirely (Algorithm 1 freezes α, so the file is authoritative).
  if (FileExists(e->opts.warm_start_path)) {
    auto loaded = core::ModelSerializer::LoadFromFile(e->opts.warm_start_path);
    if (loaded.ok() && loaded->config().d == e->table->dimension()) {
      auto model = std::make_shared<core::LlmModel>(std::move(loaded).value());
      model->Freeze();
      auto state = std::make_shared<TrainedState>();
      state->report.num_prototypes = model->num_prototypes();
      state->report.converged = model->HasConverged();
      state->warm_started = true;
      state->generation = 1;
      SetupDrift(e, *model);
      state->model = std::move(model);
      std::atomic_store(&e->trained,
                        std::shared_ptr<const TrainedState>(std::move(state)));
      return util::Status::OK();
    }
    QREG_LOG_WARN << "catalog: warm start from '" << e->opts.warm_start_path
                  << "' failed ("
                  << (loaded.ok() ? std::string("dimension mismatch")
                                  : loaded.status().ToString())
                  << "); retraining";
  }

  auto model = std::make_shared<core::LlmModel>(e->opts.llm);
  query::WorkloadGenerator workload(e->opts.workload);
  core::Trainer trainer(*e->engine, e->opts.trainer);
  auto report = trainer.Train(&workload, model.get(), train_pool);
  if (!report.ok()) return report.status();
  if (!model->frozen()) model->Freeze();
  auto state = std::make_shared<TrainedState>();
  state->report = std::move(report).value();
  state->warm_started = false;
  state->generation = 1;

  if (!e->opts.warm_start_path.empty()) {
    util::Status saved =
        core::ModelSerializer::SaveToFile(*model, e->opts.warm_start_path);
    if (!saved.ok()) {
      QREG_LOG_WARN << "catalog: persisting model for '" << e->name << "' to '"
                    << e->opts.warm_start_path << "' failed: " << saved;
    }
  }
  SetupDrift(e, *model);
  state->model = std::move(model);
  std::atomic_store(&e->trained,
                    std::shared_ptr<const TrainedState>(std::move(state)));
  return util::Status::OK();
}

void ModelCatalog::SetupDrift(Entry* e, const core::LlmModel& model) {
  if (!e->opts.drift.enabled) return;
  query::WorkloadConfig probe_cfg = e->opts.workload;
  probe_cfg.seed = kDriftProbeSeed;
  auto monitor = std::make_unique<core::DriftMonitor>(e->opts.drift.config);
  auto probe_gen = std::make_unique<query::WorkloadGenerator>(probe_cfg);
  util::Status calibrated = monitor->Calibrate(model, *e->engine, probe_gen.get());
  if (!calibrated.ok()) {
    QREG_LOG_WARN << "catalog: drift calibration for '" << e->name
                  << "' failed (" << calibrated
                  << "); freshness maintenance disabled for this dataset";
    return;
  }
  // Publish under drift_mu. No probe/retrain can race this assignment today
  // (both require a trained state, which is only published afterwards), but
  // the guarded fields' discipline is "all writes under drift_mu" — the
  // happens-before argument covering the lock-free drift_live() read relies
  // on this being the one and only re-point of the pointers.
  util::MutexLock lock(&e->drift_mu);
  e->monitor = std::move(monitor);
  e->probe_gen = std::move(probe_gen);
}

bool ModelCatalog::ReportObservation(const std::string& name) {
  std::shared_ptr<Entry> e = FindEntry(name);
  if (!e || !e->opts.drift.enabled) return false;
  // Trained-state publication happens-after monitor setup, so a non-null
  // load here guarantees drift_live() is a safe lock-free read.
  if (std::atomic_load(&e->trained) == nullptr || !e->drift_live()) {
    return false;
  }
  const int64_t interval = std::max<int64_t>(1, e->opts.drift.report_interval);
  const int64_t n = e->observations.fetch_add(1, std::memory_order_relaxed) + 1;
  return n % interval == 0;
}

util::Result<RetrainOutcome> ModelCatalog::MaybeRetrain(const std::string& name) {
  std::shared_ptr<Entry> e = FindEntry(name);
  if (!e) {
    return util::Status::NotFound(
        util::Format("dataset '%s' is not registered", name.c_str()));
  }
  auto trained = std::atomic_load(&e->trained);
  if (!trained || !trained->model) {
    return util::Status::FailedPrecondition(
        util::Format("dataset '%s' has no trained model", name.c_str()));
  }
  // drift_live(): sound lock-free read — `monitor` was assigned before the
  // trained publication observed above and is never re-pointed.
  if (!e->drift_live()) {
    return util::Status::FailedPrecondition(util::Format(
        "drift maintenance is not enabled for dataset '%s'", name.c_str()));
  }
  if (!e->drift_mu.TryLock()) {
    // A probe/retrain for this dataset is already running; let it win.
    RetrainOutcome out;
    out.generation = trained->generation;
    return out;
  }
  util::MutexLock lock(&e->drift_mu, util::MutexLock::Adopt{});
  trained = std::atomic_load(&e->trained);  // Re-read under the lock.

  // A previous post-retrain recalibration may have failed (e.g. an empty
  // probe window); repair the baseline before probing rather than comparing
  // the current model against a baseline measured on a different one.
  if (!e->monitor->calibrated()) {
    QREG_RETURN_NOT_OK(
        e->monitor->Calibrate(*trained->model, *e->engine, e->probe_gen.get()));
  }

  RetrainOutcome out;
  out.generation = trained->generation;
  auto probe = e->monitor->Probe(*trained->model, *e->engine, e->probe_gen.get());
  if (!probe.ok()) return probe.status();
  out.probed = true;
  out.drift = std::move(probe).value();
  if (!out.drift.drifted) return out;

  // Retrain a private copy: in-flight readers keep serving the old frozen
  // model; the swap below is the only publication point.
  auto fresh = std::make_shared<core::LlmModel>(*trained->model);
  query::WorkloadConfig retrain_cfg = e->opts.workload;
  retrain_cfg.seed = e->opts.workload.seed +
                     static_cast<uint64_t>(trained->generation);  // New stream.
  query::WorkloadGenerator retrain_gen(retrain_cfg);
  auto report = e->monitor->Retrain(fresh.get(), *e->engine, &retrain_gen,
                                    e->opts.drift.retrain_max_pairs);
  if (!report.ok()) return report.status();
  if (!fresh->frozen()) fresh->Freeze();

  // Re-baseline so the next probe measures the *new* model against the new
  // data regime instead of re-tripping on the old baseline forever. On
  // failure the monitor is left uncalibrated — the fresh model still
  // publishes (strictly more current than the drifted one), and the next
  // MaybeRetrain repairs the baseline before probing again, so a stale
  // baseline can never drive a probe-retrain thrash loop.
  util::Status recal = e->monitor->Calibrate(*fresh, *e->engine, e->probe_gen.get());
  if (!recal.ok()) {
    QREG_LOG_WARN << "catalog: post-retrain recalibration for '" << e->name
                  << "' failed (" << recal << "); will recalibrate before the "
                  << "next probe";
  }

  if (!e->opts.warm_start_path.empty()) {
    util::Status saved =
        core::ModelSerializer::SaveToFile(*fresh, e->opts.warm_start_path);
    if (!saved.ok()) {
      QREG_LOG_WARN << "catalog: persisting retrained model for '" << e->name
                    << "' failed: " << saved;
    }
  }

  auto state = std::make_shared<TrainedState>();
  state->report = std::move(report).value();
  state->warm_started = false;
  state->generation = trained->generation + 1;
  state->model = std::move(fresh);
  out.report = state->report;
  out.generation = state->generation;
  out.retrained = true;
  std::atomic_store(&e->trained,
                    std::shared_ptr<const TrainedState>(std::move(state)));
  return out;
}

util::Result<CatalogSnapshot> ModelCatalog::Get(const std::string& name) const {
  std::shared_ptr<Entry> e = FindEntry(name);
  if (!e) {
    return util::Status::NotFound(
        util::Format("dataset '%s' is not registered", name.c_str()));
  }
  return MakeSnapshot(*e, std::atomic_load(&e->trained));
}

util::Status ModelCatalog::TrainAll() {
  // Held for the whole call: a concurrent TrainAll waits here and then finds
  // the entries trained, so no entry trains twice.
  util::MutexLock train_lock(&train_mu_);
  std::vector<std::shared_ptr<Entry>> untrained;
  {
    util::MutexLock lock(&mu_);
    for (const auto& kv : entries_) {  // Map order.
      if (!std::atomic_load(&kv.second->trained)) untrained.push_back(kv.second);
    }
  }
  const unsigned cores = std::thread::hardware_concurrency();
  util::ThreadPool train_pool(cores > 1 ? cores - 1 : 0);  // + the caller.
  for (const std::shared_ptr<Entry>& e : untrained) {
    QREG_RETURN_NOT_OK(TrainEntry(e.get(), &train_pool));
  }
  return util::Status::OK();
}

bool ModelCatalog::Contains(const std::string& name) const {
  util::MutexLock lock(&mu_);
  return entries_.count(name) > 0;
}

std::vector<std::string> ModelCatalog::Names() const {
  util::MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& kv : entries_) names.push_back(kv.first);  // Map order.
  return names;
}

size_t ModelCatalog::size() const {
  util::MutexLock lock(&mu_);
  return entries_.size();
}

}  // namespace service
}  // namespace qreg
