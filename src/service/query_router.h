// The service front door: accepts single or batched Q1/Q2 requests, answers
// each from the trained LLM model or the exact engine, and aggregates
// serving metrics.
//
// Routing follows a configurable accuracy policy. The default hybrid policy
// uses the model's own quantization geometry: a query whose nearest
// prototype lies farther than the vigilance ρ (scaled by `rho_scale`) is
// outside the region the model was trained on — the vigilance test of
// Algorithm 1, reused at serving time — and is routed to the exact engine
// instead of extrapolating.
//
// The δ-overlap semantic cache sits on the exact branch only, after the
// route test: an exact-routed request is answered from a cached exact answer
// whose δ clears δ_min, and a fresh exact answer is admitted. Model-routed
// requests never touch the cache, since a prediction costs about what a
// lookup does.
//
// Batches run through util::RunChunks: the calling thread executes its share
// and a fixed ThreadPool's workers help. With 0 workers the router is fully
// synchronous, which benches use as the single-threaded baseline and tests
// use for bit-for-bit determinism checks.
// TryExecuteInline serves a model-routed request on the caller's thread and
// declines everything else; the wire server's event loops use it, so a
// model answer costs no thread hand-off.

#ifndef QREG_SERVICE_QUERY_ROUTER_H_
#define QREG_SERVICE_QUERY_ROUTER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/llm_model.h"
#include "core/prototype.h"
#include "query/exact_engine.h"
#include "query/query.h"
#include "service/answer_cache.h"
#include "service/model_catalog.h"
#include "service/service_stats.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace qreg {
namespace service {

/// \brief The two regression-query types of the paper (Definition 4).
enum class QueryKind : int {
  kQ1MeanValue = 0,   ///< Average of u over D(x, θ).
  kQ2Regression = 1,  ///< (Piecewise) linear model of u over D(x, θ).
};

const char* QueryKindName(QueryKind kind);  ///< "Q1" / "Q2".

/// \brief Accuracy policy: which execution path answers a query.
enum class RoutePolicy : int {
  /// Model when the query is inside the trained region (nearest-prototype
  /// distance ≤ rho_scale · ρ), exact engine otherwise.
  kHybrid = 0,
  /// Always the model (kFailedPrecondition while the dataset has none).
  kModelOnly = 1,
  /// Always the exact engine (the cache still applies when enabled).
  kExactOnly = 2,
};

/// \brief Router configuration.
struct RouterConfig {
  RoutePolicy policy = RoutePolicy::kHybrid;

  /// Multiplier on the vigilance ρ for the hybrid in-region test. > 1 trusts
  /// the model further from its prototypes; < 1 falls back to exact sooner.
  double rho_scale = 1.0;

  /// δ-cache for exact-routed requests (see the file comment).
  bool enable_cache = true;
  AnswerCacheConfig cache;

  /// Helper workers for ExecuteBatch. The calling thread always runs part
  /// of its batch too, so a batch runs on num_threads + 1 threads; 0 runs
  /// batches synchronously on the caller.
  size_t num_threads = 0;
};

/// \brief One query against a registered dataset.
///
/// The optional lifecycle fields bound how long the request may run: a
/// request whose `deadline` is already expired (or whose `cancel` token is
/// already tripped) is rejected at admission with the typed status — before
/// the δ-cache lookup — so a cache hit can never mask kDeadlineExceeded.
/// Past admission, a trip aborts an exact scan within one partition-chunk
/// claim. On *mid-scan* deadline pressure the router
/// degrades gracefully to a model answer flagged `used_fallback` before
/// failing with the typed kDeadlineExceeded. Cancellation never degrades:
/// the caller asked for no answer at all.
struct Request {
  std::string dataset;
  QueryKind kind = QueryKind::kQ1MeanValue;
  query::Query q;
  util::Deadline deadline;            ///< Default: no deadline.
  util::CancellationToken cancel;     ///< Default: not cancellable.

  /// Test-only: forwarded into the exact scan's
  /// util::ExecControl::on_chunk_for_testing, so deterministic tests can
  /// trip the deadline/token at an exact chunk of a router-driven scan.
  std::function<void(size_t chunk)> on_chunk_for_testing;

  static Request Q1(std::string dataset, query::Query q) {
    return Request{std::move(dataset), QueryKind::kQ1MeanValue, std::move(q),
                   util::Deadline(), util::CancellationToken(), nullptr};
  }
  static Request Q2(std::string dataset, query::Query q) {
    return Request{std::move(dataset), QueryKind::kQ2Regression, std::move(q),
                   util::Deadline(), util::CancellationToken(), nullptr};
  }
};

/// \brief Which path produced an answer.
enum class AnswerSource : int { kModel = 0, kExact = 1, kCache = 2 };

/// \brief Typed failure of Execute: the Status plus the partial work the
/// service did before the failure (tuples examined, chunks completed/total,
/// total serving latency in `partial.nanos`). The evidence travels *inside*
/// the error instead of through an out-param, so `ExecResult` callers that
/// only care about the code keep using `.status()` and callers that want the
/// partial accounting read `.error().partial` — no threading of pointers.
struct ExecError {
  util::Status status;
  query::ExecStats partial;

  /// Implicit from a bare Status (no partial work to report) so plain
  /// `return util::Status::...` and the QREG_* macros work unchanged in
  /// functions returning ExecResult.
  ExecError(util::Status s) : status(std::move(s)) {}  // NOLINT(runtime/explicit)
  ExecError(util::Status s, query::ExecStats p)
      : status(std::move(s)), partial(p) {}
};

/// \brief A served answer plus per-query execution statistics.
struct Answer {
  QueryKind kind = QueryKind::kQ1MeanValue;
  AnswerSource source = AnswerSource::kModel;

  double mean = 0.0;  ///< Q1 payload.
  std::vector<core::LocalLinearModel> pieces;  ///< Q2 payload (the list S).

  /// δ(q, q') of the admitting cache entry when source == kCache.
  double cache_delta = 0.0;

  /// True when the exact path ran out of deadline mid-scan and this answer
  /// is the model's approximation served in its place (source == kModel).
  bool used_fallback = false;

  /// Exact-path selection statistics (zero for model/cache answers) plus
  /// total serving latency in `exec.nanos`. A degraded answer
  /// (`used_fallback`) keeps the *partial* scan work of the exact attempt
  /// the deadline killed — tuples examined, chunks_completed/chunks_total —
  /// so the abandoned effort stays visible. Failed requests surface the
  /// same partial accounting through ExecResult's `.error().partial`.
  query::ExecStats exec;
};

/// \brief What Execute/ExecuteBatch return: an Answer, or an ExecError whose
/// `.status()` is the typed failure and `.error().partial` the partial work.
using ExecResult = util::Result<Answer, ExecError>;

/// \brief Concurrent Q1/Q2 front door over a ModelCatalog.
class QueryRouter {
 public:
  /// `catalog` is borrowed and must outlive the router.
  explicit QueryRouter(ModelCatalog* catalog, RouterConfig config = RouterConfig());

  QueryRouter(const QueryRouter&) = delete;
  QueryRouter& operator=(const QueryRouter&) = delete;

  /// Serves one request. Never trains: a dataset ModelCatalog::TrainAll has
  /// not trained yet has no model, so the hybrid policy answers it exactly
  /// and kModelOnly fails with kFailedPrecondition. On failure the ExecError
  /// carries the typed Status *and* the partial work done before it (the
  /// ExecStats of an aborted exact attempt — tuples examined,
  /// chunks_completed/chunks_total, total latency in `partial.nanos`)
  /// instead of that work being silently discarded.
  ExecResult Execute(const Request& request);

  /// Serves `request` on the calling thread only when nothing on its path
  /// can scan, train, probe drift or block: it passes admission, the query
  /// is well-formed, the dataset is trained and drift-free, and the policy
  /// routes it to the model (kModelOnly, or kHybrid in-region). Then it
  /// returns exactly what Execute would, with stats recorded the same way.
  /// Otherwise it returns nullopt with no side effect, and the caller hands
  /// the request to Execute/ExecuteBatch. The net::Server event loops answer
  /// model-routed requests through it.
  std::optional<ExecResult> TryExecuteInline(const Request& request);

  /// Serves a batch on the calling thread with the pool's workers helping;
  /// results are positionally aligned with `batch` and equal to what
  /// Execute returns for each request. A busy pool slows the batch but never
  /// refuses a request in it. Per-request failures (e.g. empty subspace on
  /// the exact path) are returned in-slot, never thrown across the batch.
  std::vector<ExecResult> ExecuteBatch(const std::vector<Request>& batch);

  /// Drift maintenance: probes the dataset's model and, when the drift
  /// threshold trips, retrains and publishes the next model generation
  /// (see ModelCatalog::MaybeRetrain). On a generation swap the router
  /// counts a retrain and drops the dataset's cached answers (their
  /// generation-tagged keys are unreachable anyway). Execute() schedules
  /// this automatically on the worker pool every
  /// DriftPolicy::report_interval served queries of a drift-enabled
  /// dataset; call it directly to force a probe.
  util::Result<RetrainOutcome> MaybeRetrain(const std::string& dataset);

  /// Aggregated serving metrics since construction or ResetStats().
  ServiceSnapshot Stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

  AnswerCacheStats CacheStats() const { return cache_.stats(); }

  const RouterConfig& config() const { return config_; }
  ModelCatalog* catalog() const { return catalog_; }

  /// The live stats collector. The net::Server fronting this router records
  /// wire-level activity (connections, frames, bytes, protocol errors) and
  /// server-side admission sheds here, so one snapshot covers the whole
  /// serving stack.
  ServiceStats* stats_sink() { return &stats_; }

  /// The batch helper pool — exposed so tests can occupy it on purpose.
  util::ThreadPool* pool_for_testing() { return &pool_; }

 private:
  /// What admission, the snapshot and the accuracy policy decided for one
  /// request, plus the query's neighbourhood in `snap.model` once a step has
  /// swept it. The hybrid vigilance test, the model answer and the deadline
  /// fallback all read that one sweep.
  struct RouteDecision {
    CatalogSnapshot snap;
    bool use_model = false;
    bool swept = false;
    core::Neighbourhood hood;
  };

  /// Admission, snapshot, query checks and the policy/vigilance test: the
  /// steps Execute and TryExecuteInline share, so the route test exists
  /// once. A non-OK status is the request's typed failure.
  util::Status Route(const Request& request, RouteDecision* route) const;

  /// The request's neighbourhood in `route->snap.model` (non-null), swept on
  /// first use.
  static const core::Neighbourhood& Hood(const Request& request,
                                         RouteDecision* route);

  /// The vigilance test at serving time: the query's nearest prototype lies
  /// within rho_scale · ρ (always true when ρ ≤ 0, the fixed-K ablation).
  bool InRegion(const Request& request, RouteDecision* route) const;

  /// Stamps the total serving latency on `result` and records its outcome.
  ExecResult Record(const util::Stopwatch& watch, ExecResult result);

  ExecResult ExecuteUnrecorded(const Request& request);
  /// The model's answer from the request's neighbourhood (Hood).
  ExecResult ExecuteModel(const Request& request, RouteDecision* route) const;
  ExecResult ExecuteExact(const Request& request,
                          const query::ExactEngine& engine,
                          const util::ExecControl* control) const;

  /// Fire-and-forget drift probe on the worker pool (inline when the pool
  /// is synchronous; dropped when the pool is saturated — the next interval
  /// re-triggers it).
  void ScheduleDriftProbe(const std::string& dataset);

  /// Counts a served answer toward the dataset's drift policy and schedules
  /// a probe when one is due. No-op unless the snapshot says drift
  /// maintenance is live.
  void MaybeReportObservation(const Request& request,
                              const CatalogSnapshot& snap);

  /// Cache-group key "dataset/g<generation>/kind": the generation tag makes
  /// every pre-retrain entry unreachable the moment a new model publishes.
  static std::string ShardKey(const Request& request, int64_t generation);

  ModelCatalog* catalog_;
  RouterConfig config_;
  AnswerCache cache_;
  ServiceStats stats_;
  // Declared last so it is destroyed first: in-flight batch tasks and
  // drift probes drain before the cache and stats they write go away.
  util::ThreadPool pool_;
};

}  // namespace service
}  // namespace qreg

#endif  // QREG_SERVICE_QUERY_ROUTER_H_
