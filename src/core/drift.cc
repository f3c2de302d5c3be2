#include "core/drift.h"

#include <cmath>

namespace qreg {
namespace core {

util::Result<double> DriftMonitor::MeasureRmse(const LlmModel& model,
                                               const query::ExactEngine& engine,
                                               query::WorkloadGenerator* workload,
                                               int64_t* used) const {
  if (workload == nullptr) return util::Status::InvalidArgument("null workload");
  if (config_.probe_queries <= 0) {
    return util::Status::InvalidArgument(
        "drift probe window is empty (probe_queries must be > 0)");
  }
  double sse = 0.0;
  int64_t n = 0;
  int64_t attempts = 0;
  while (n < config_.probe_queries && attempts < 50 * config_.probe_queries) {
    ++attempts;
    const query::Query q = workload->Next();
    auto exact = engine.MeanValue(q);
    if (!exact.ok()) {
      // An empty subspace has nothing to compare; any other failure (an
      // index that no longer covers its table) fails every probe alike.
      if (exact.status().code() == util::StatusCode::kNotFound) continue;
      return exact.status();
    }
    QREG_ASSIGN_OR_RETURN(double pred, model.PredictMean(q));
    sse += (exact->mean - pred) * (exact->mean - pred);
    ++n;
  }
  if (n == 0) {
    return util::Status::FailedPrecondition(
        "no probe query selected a non-empty subspace");
  }
  if (used != nullptr) *used = n;
  return std::sqrt(sse / static_cast<double>(n));
}

util::Status DriftMonitor::Calibrate(const LlmModel& model,
                                     const query::ExactEngine& engine,
                                     query::WorkloadGenerator* workload) {
  // A failed (re)calibration leaves no baseline at all: probing against a
  // baseline measured on a different model would either mask real drift or
  // re-trip forever, so callers must recalibrate before the next Probe().
  calibrated_ = false;
  int64_t used = 0;
  QREG_ASSIGN_OR_RETURN(baseline_rmse_, MeasureRmse(model, engine, workload, &used));
  calibrated_ = true;
  return util::Status::OK();
}

util::Result<DriftReport> DriftMonitor::Probe(
    const LlmModel& model, const query::ExactEngine& engine,
    query::WorkloadGenerator* workload) const {
  if (!calibrated_) {
    return util::Status::FailedPrecondition("Calibrate() before Probe()");
  }
  DriftReport report;
  QREG_ASSIGN_OR_RETURN(
      report.rmse, MeasureRmse(model, engine, workload, &report.queries_used));
  report.baseline_rmse = baseline_rmse_;
  const double threshold = std::max(config_.absolute_threshold,
                                    config_.degradation_factor * baseline_rmse_);
  // Strictly greater: a probe whose RMSE lands exactly on the threshold
  // (e.g. an identical probe stream against unchanged data with
  // degradation_factor = 1) is steady state, not drift.
  report.drifted = report.rmse > threshold;
  return report;
}

util::Result<TrainingReport> DriftMonitor::Retrain(
    LlmModel* model, const query::ExactEngine& engine,
    query::WorkloadGenerator* workload, int64_t max_pairs) const {
  if (model == nullptr) return util::Status::InvalidArgument("null model");
  model->Unfreeze();
  // Stale prototypes carry near-zero learning rates; restore plasticity so
  // Algorithm 1 can actually track the new regime.
  model->ResetPlasticity();
  TrainerConfig tc;
  tc.max_pairs = max_pairs;
  tc.min_pairs = std::min<int64_t>(max_pairs, 200);
  Trainer trainer(engine, tc);
  return trainer.Train(workload, model);
}

}  // namespace core
}  // namespace qreg
