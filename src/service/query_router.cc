#include "service/query_router.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/run_chunks.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace qreg {
namespace service {

const char* QueryKindName(QueryKind kind) {
  return kind == QueryKind::kQ1MeanValue ? "Q1" : "Q2";
}

QueryRouter::QueryRouter(ModelCatalog* catalog, RouterConfig config)
    : catalog_(catalog),
      config_(config),
      cache_(config.cache),
      pool_(config.num_threads) {}

std::string QueryRouter::ShardKey(const Request& request, int64_t generation) {
  return request.dataset + "/g" + std::to_string(generation) + "/" +
         QueryKindName(request.kind);
}

ExecResult QueryRouter::Execute(const Request& request) {
  util::Stopwatch watch;
  return Record(watch, ExecuteUnrecorded(request));
}

std::optional<ExecResult> QueryRouter::TryExecuteInline(
    const Request& request) {
  util::Stopwatch watch;
  RouteDecision route;
  // Decline (no side effect) unless the request is model-routed. A
  // drift-enabled dataset is declined too: a served answer may make a drift
  // probe due, and a probe runs inline on a synchronous router pool.
  if (!Route(request, &route).ok() || !route.use_model ||
      route.snap.drift_enabled) {
    return std::nullopt;
  }
  // What ExecuteUnrecorded does on this path: no cache, no fallback (the
  // model answer has no deadline to miss) and no drift report.
  return Record(watch, ExecuteModel(request, &route));
}

ExecResult QueryRouter::Record(const util::Stopwatch& watch,
                               ExecResult result) {
  QueryOutcome o;
  const int64_t nanos = watch.ElapsedNanos();
  o.latency_nanos = nanos;
  o.ok = result.ok();
  if (result.ok()) {
    result->exec.nanos = nanos;
    o.cache_hit = result->source == AnswerSource::kCache;
    o.used_exact = result->source == AnswerSource::kExact;
    o.degraded = result->used_fallback;
  } else {
    o.deadline_exceeded =
        result.status().code() == util::StatusCode::kDeadlineExceeded;
    o.cancelled = result.status().code() == util::StatusCode::kCancelled;
    // Partial-work evidence travels with the error instead of vanishing
    // with the discarded Answer; stamp the total serving latency on it.
    ExecError error = std::move(result).error();
    error.partial.nanos = nanos;
    result = std::move(error);
  }
  stats_.Record(o);
  return result;
}

util::Status QueryRouter::Route(const Request& request,
                                RouteDecision* route) const {
  // Admission: a request already cancelled or past its deadline does no
  // work at all — not even a δ-cache lookup. A cache hit for an expired
  // request would make its outcome depend on what other queries ran before
  // it, inconsistent with the exact path's typed rejection.
  if (request.cancel.cancelled()) {
    return util::Status::Cancelled("request cancelled before execution");
  }
  if (request.deadline.expired()) {
    return util::Status::DeadlineExceeded(
        "request deadline expired before execution");
  }

  // Serving never trains: a dataset without a model (not yet trained by
  // ModelCatalog::TrainAll) is answered exactly, or refused under kModelOnly.
  QREG_ASSIGN_OR_RETURN(route->snap, catalog_->Get(request.dataset));
  const CatalogSnapshot& snap = route->snap;
  if (request.q.dimension() != snap.engine->table().dimension()) {
    return util::Status::InvalidArgument(util::Format(
        "query dimension %zu does not match dataset '%s' dimension %zu",
        request.q.dimension(), request.dataset.c_str(),
        snap.engine->table().dimension()));
  }
  const auto finite = [](double v) { return std::isfinite(v); };
  if (!std::all_of(request.q.center.begin(), request.q.center.end(), finite) ||
      !finite(request.q.theta) || request.q.theta <= 0.0) {
    return util::Status::InvalidArgument(util::Format(
        "query %s needs a finite center and a finite theta > 0",
        request.q.ToString().c_str()));
  }

  // Accuracy policy: pick the answering path. The hybrid vigilance test
  // sweeps the prototypes once, and the model answer and the deadline
  // fallback read the same sweep from `route`.
  switch (config_.policy) {
    case RoutePolicy::kModelOnly:
      if (!snap.model) {
        return util::Status::FailedPrecondition(
            "policy is model-only but the dataset has no trained model");
      }
      route->use_model = true;
      break;
    case RoutePolicy::kExactOnly:
      route->use_model = false;
      break;
    case RoutePolicy::kHybrid: {
      // In-region test: the vigilance criterion of Algorithm 1 applied at
      // serving time. ρ ≤ 0 (fixed-K ablation models) disables the test.
      route->use_model = snap.model != nullptr &&
                         snap.model->num_prototypes() > 0 &&
                         InRegion(request, route);
      break;
    }
  }
  return util::Status::OK();
}

const core::Neighbourhood& QueryRouter::Hood(const Request& request,
                                             RouteDecision* route) {
  if (!route->swept) {
    route->snap.model->Sweep(request.q, &route->hood);
    route->swept = true;
  }
  return route->hood;
}

bool QueryRouter::InRegion(const Request& request, RouteDecision* route) const {
  const double vigilance = route->snap.vigilance;
  return vigilance <= 0.0 || Hood(request, route).nearest_distance() <=
                                 config_.rho_scale * vigilance;
}

ExecResult QueryRouter::ExecuteUnrecorded(const Request& request) {
  RouteDecision route;
  QREG_RETURN_NOT_OK(Route(request, &route));
  const CatalogSnapshot& snap = route.snap;
  const bool use_model = route.use_model;

  util::ExecControl control;
  control.deadline = request.deadline;
  control.cancel = request.cancel;
  control.on_chunk_for_testing = request.on_chunk_for_testing;
  const util::ExecControl* ctl = control.active() ? &control : nullptr;

  // The δ-cache serves the exact path only: a model answer costs a few
  // microseconds, about what a lookup does, so a model-routed request never
  // builds a key, probes or inserts. An exact scan costs 10²–10³ times more.
  const bool cache_path = config_.enable_cache && !use_model;
  std::string shard;
  if (cache_path) {
    shard = ShardKey(request, snap.generation);
    CachedAnswer cached;
    if (cache_.Lookup(shard, request.q, &cached)) {
      Answer a;
      a.kind = request.kind;
      a.source = AnswerSource::kCache;
      a.mean = cached.mean;
      a.pieces = std::move(cached.pieces);
      a.cache_delta = cached.delta;
      MaybeReportObservation(request, snap);
      return a;
    }
  }

  ExecResult result = use_model ? ExecuteModel(request, &route)
                                : ExecuteExact(request, *snap.engine, ctl);

  // Deadline pressure on the exact path degrades to the model's microsecond
  // answer (flagged) when the policy permits one; cancellation never does.
  if (!result.ok() &&
      result.status().code() == util::StatusCode::kDeadlineExceeded &&
      config_.policy != RoutePolicy::kExactOnly && snap.model != nullptr &&
      snap.model->num_prototypes() > 0) {
    ExecResult fallback = ExecuteModel(request, &route);
    if (fallback.ok()) {
      fallback->used_fallback = true;
      // Keep the killed exact attempt's partial scan work visible on the
      // degraded answer (Execute overwrites only exec.nanos).
      fallback->exec = result.error().partial;
      result = std::move(fallback);
    }
  }
  if (!result.ok()) return result;

  // Only exact answers are admitted. A fallback (source kModel) is the
  // model's answer served under duress, possibly an out-of-region
  // extrapolation, so it never seeds the cache. On a drift-enabled dataset,
  // also skip the insert when a retrain published a new generation while
  // this request was in flight: the old-generation group was just erased and
  // its keys are unreachable. (The residual check-then-insert race is
  // harmless — a resurrected entry can never be served and group capacity is
  // per-group, so it steals nothing from the live generation.)
  if (cache_path && result->source == AnswerSource::kExact) {
    bool stale_generation = false;
    if (snap.drift_enabled) {
      auto now = catalog_->Get(request.dataset);
      stale_generation = !now.ok() || now->generation != snap.generation;
    }
    if (!stale_generation) {
      CachedAnswer to_cache;
      to_cache.q = request.q;
      to_cache.mean = result->mean;
      to_cache.pieces = result->pieces;
      cache_.Insert(shard, std::move(to_cache));
    }
  }
  MaybeReportObservation(request, snap);
  return result;
}

void QueryRouter::MaybeReportObservation(const Request& request,
                                         const CatalogSnapshot& snap) {
  // Freshness maintenance, off the serving path: every report_interval
  // successful answers of a drift-enabled dataset, probe it on the pool.
  // The snapshot flag keeps the common drift-free path free of a second
  // catalog lookup per query.
  if (!snap.drift_enabled) return;
  if (catalog_->ReportObservation(request.dataset)) {
    ScheduleDriftProbe(request.dataset);
  }
}

ExecResult QueryRouter::ExecuteModel(const Request& request,
                                     RouteDecision* route) const {
  const core::LlmModel& model = *route->snap.model;
  const core::Neighbourhood& hood = Hood(request, route);
  Answer a;
  a.kind = request.kind;
  a.source = AnswerSource::kModel;
  if (request.kind == QueryKind::kQ1MeanValue) {
    QREG_ASSIGN_OR_RETURN(a.mean, model.PredictMean(request.q, hood));
  } else {
    QREG_ASSIGN_OR_RETURN(a.pieces, model.RegressionQuery(request.q, hood));
  }
  return a;
}

ExecResult QueryRouter::ExecuteExact(const Request& request,
                                     const query::ExactEngine& engine,
                                     const util::ExecControl* control) const {
  Answer a;
  a.kind = request.kind;
  a.source = AnswerSource::kExact;
  // `control` is null on the lifecycle-free path; with or without it the
  // engine runs the same partitioned scan, so the answer's bits are the same.
  if (request.kind == QueryKind::kQ1MeanValue) {
    auto r = engine.MeanValue(request.q, &a.exec, control);
    if (!r.ok()) {
      // The engine recorded the partial scan work in a.exec; it rides inside
      // the typed error instead of being dropped with the Answer.
      return ExecError(r.status(), a.exec);
    }
    a.mean = r->mean;
  } else {
    auto fit = engine.Regression(request.q, &a.exec, control);
    if (!fit.ok()) {
      return ExecError(fit.status(), a.exec);
    }
    // The exact Q2 answer is a single global plane over D(x, θ): the REG
    // baseline expressed in the same list-S shape as the model's answer.
    core::LocalLinearModel m;
    m.intercept = fit->intercept;
    m.slope = std::move(fit->slope);
    m.prototype_id = -1;
    m.weight = 1.0;
    a.pieces.push_back(std::move(m));
  }
  return a;
}

util::Result<RetrainOutcome> QueryRouter::MaybeRetrain(const std::string& dataset) {
  util::Result<RetrainOutcome> out = catalog_->MaybeRetrain(dataset);
  if (out.ok() && out->retrained) {
    stats_.RecordRetrain();
    // The new generation's keys can never admit the old entries; drop the
    // dead groups so their memory follows the old model out.
    if (config_.enable_cache) cache_.EraseGroupsWithPrefix(dataset + "/");
  }
  return out;
}

void QueryRouter::ScheduleDriftProbe(const std::string& dataset) {
  // TrySubmit, never Submit: a saturated pool just skips this probe — the
  // observation counter makes another one due an interval later. With a
  // synchronous pool the probe runs inline (deterministic, test-friendly).
  (void)pool_.TrySubmit([this, dataset] { (void)MaybeRetrain(dataset); });
}

std::vector<ExecResult> QueryRouter::ExecuteBatch(
    const std::vector<Request>& batch) {
  std::vector<ExecResult> results(
      batch.size(), ExecResult(util::Status::Internal("request not executed")));
  // The caller runs its share of the batch and pool workers only help, so a
  // busy pool slows a batch down but never refuses a request in it.
  util::RunChunks(
      &pool_, batch.size(),
      [&](size_t i) { results[i] = Execute(batch[i]); }, nullptr);
  return results;
}

}  // namespace service
}  // namespace qreg
