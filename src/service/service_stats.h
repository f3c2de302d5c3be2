// Aggregated serving metrics: QPS, latency percentiles, cache hit rate,
// exact-fallback rate and request-lifecycle counters (deadline expiries,
// cancellations, deadline-degraded answers, drift retrains) — the
// operator's view of the analytics service.

#ifndef QREG_SERVICE_SERVICE_STATS_H_
#define QREG_SERVICE_SERVICE_STATS_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace qreg {
namespace service {

/// \brief A batch of wire-level activity, accumulated lock-free by a server
/// event loop and folded into ServiceStats in one Record call.
struct NetActivity {
  int64_t connections_accepted = 0;
  int64_t connections_closed = 0;
  int64_t frames_decoded = 0;   ///< Complete frames (any type) parsed.
  int64_t protocol_errors = 0;  ///< Malformed frames / payloads rejected.
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  // Lifecycle expiries (all also counted in connections_closed): why the
  // server, not the peer, ended a connection.
  int64_t idle_closed = 0;          ///< Idle timeout (no traffic, no work).
  int64_t read_timeout_closed = 0;  ///< Partial frame never completed in time.
  int64_t backpressure_closed = 0;  ///< Pending-write cap exceeded (slow reader).
  // Where each decoded request ran: answered by its event loop (a
  // model-routed request, QueryRouter::TryExecuteInline), or handed to the
  // executor pool (everything that can scan, hit the cache, fall back or
  // wait, and every request refused at admission or routing).
  int64_t answered_on_loop = 0;
  int64_t dispatched_to_executors = 0;

  bool empty() const {
    return connections_accepted == 0 && connections_closed == 0 &&
           frames_decoded == 0 && protocol_errors == 0 && bytes_in == 0 &&
           bytes_out == 0 && idle_closed == 0 && read_timeout_closed == 0 &&
           backpressure_closed == 0 && answered_on_loop == 0 &&
           dispatched_to_executors == 0;
  }

  NetActivity& operator+=(const NetActivity& d) {
    connections_accepted += d.connections_accepted;
    connections_closed += d.connections_closed;
    frames_decoded += d.frames_decoded;
    protocol_errors += d.protocol_errors;
    bytes_in += d.bytes_in;
    bytes_out += d.bytes_out;
    idle_closed += d.idle_closed;
    read_timeout_closed += d.read_timeout_closed;
    backpressure_closed += d.backpressure_closed;
    answered_on_loop += d.answered_on_loop;
    dispatched_to_executors += d.dispatched_to_executors;
    return *this;
  }
};

/// \brief Point-in-time aggregate of the service counters.
struct ServiceSnapshot {
  int64_t total_queries = 0;
  int64_t errors = 0;
  int64_t cache_hits = 0;
  int64_t exact_fallbacks = 0;  ///< Queries answered by the exact engine.
  int64_t model_answers = 0;    ///< Queries answered by the LLM model.
  int64_t shed = 0;  ///< Requests refused by the server's per-connection
                     ///< admission bound (kResourceExhausted frames).

  // Request-lifecycle counters.
  int64_t deadline_exceeded = 0;  ///< Returned kDeadlineExceeded to the caller.
  int64_t cancelled = 0;          ///< Returned kCancelled to the caller.
  int64_t degraded = 0;  ///< Answered by the model fallback under deadline
                         ///< pressure (Answer::used_fallback).
  int64_t retrains = 0;  ///< Drift-triggered model retrains (generation swaps).

  // Wire-level counters, recorded by the net::Server fronting this router
  // (all zero for a purely in-process service). `net` is the rollup across
  // every event loop; `net_loops` holds the per-loop breakdown when the
  // server records with a loop index, so a skewed accept shard or one
  // starving loop is visible in one snapshot.
  NetActivity net;
  std::vector<NetActivity> net_loops;  ///< Per-event-loop totals (may be empty).

  double elapsed_seconds = 0.0;  ///< Since construction or Reset().
  double qps = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;

  double CacheHitRate() const {
    return total_queries > 0
               ? static_cast<double>(cache_hits) / static_cast<double>(total_queries)
               : 0.0;
  }
  double ExactFallbackRate() const {
    return total_queries > 0 ? static_cast<double>(exact_fallbacks) /
                                   static_cast<double>(total_queries)
                             : 0.0;
  }

  /// Renders the snapshot as an aligned util::TablePrinter table.
  void PrintTo(std::ostream& os) const;
};

/// \brief One served (or failed) query, as the router classified it.
/// `cache_hit` and `used_exact` are mutually exclusive answering paths; an
/// ok answer that is neither counts as a model answer.
struct QueryOutcome {
  int64_t latency_nanos = 0;
  bool ok = false;
  bool cache_hit = false;
  bool used_exact = false;
  bool shed = false;               ///< Refused by server admission.
  bool deadline_exceeded = false;  ///< Failed with kDeadlineExceeded.
  bool cancelled = false;          ///< Failed with kCancelled.
  bool degraded = false;           ///< Model fallback under deadline pressure.
};

/// \brief Thread-safe collector behind the router. Latencies are kept in a
/// fixed ring (most recent `latency_window` samples) so memory stays bounded
/// under sustained traffic; percentiles are over that window.
class ServiceStats {
 public:
  explicit ServiceStats(size_t latency_window = 1 << 16);

  ServiceStats(const ServiceStats&) = delete;
  ServiceStats& operator=(const ServiceStats&) = delete;

  /// Records one query's outcome.
  void Record(const QueryOutcome& outcome);

  /// Records one drift-triggered retrain (a model-generation swap).
  void RecordRetrain();

  /// Folds a batch of wire-level activity attributed to one event loop into
  /// both the aggregate net counters and the per-loop totals Snapshot()
  /// reports as `net_loops` (grown on demand; loop indices are dense and
  /// small).
  void RecordNet(size_t loop_index, const NetActivity& delta);

  ServiceSnapshot Snapshot() const;

  /// Zeroes all counters and restarts the QPS clock.
  void Reset();

 private:
  const size_t window_;
  mutable util::Mutex mu_;
  util::Stopwatch clock_ QREG_GUARDED_BY(mu_);
  std::vector<int64_t> latencies_ QREG_GUARDED_BY(mu_);  // Ring buffer.
  size_t next_ QREG_GUARDED_BY(mu_) = 0;                 // Ring cursor.
  int64_t total_ QREG_GUARDED_BY(mu_) = 0;
  int64_t errors_ QREG_GUARDED_BY(mu_) = 0;
  int64_t cache_hits_ QREG_GUARDED_BY(mu_) = 0;
  int64_t exact_ QREG_GUARDED_BY(mu_) = 0;
  int64_t model_ QREG_GUARDED_BY(mu_) = 0;
  int64_t shed_ QREG_GUARDED_BY(mu_) = 0;
  int64_t deadline_exceeded_ QREG_GUARDED_BY(mu_) = 0;
  int64_t cancelled_ QREG_GUARDED_BY(mu_) = 0;
  int64_t degraded_ QREG_GUARDED_BY(mu_) = 0;
  int64_t retrains_ QREG_GUARDED_BY(mu_) = 0;
  // Wire-level totals (see RecordNet).
  NetActivity net_ QREG_GUARDED_BY(mu_);
  // Per-loop totals, indexed by loop.
  std::vector<NetActivity> net_loops_ QREG_GUARDED_BY(mu_);
  // Over *all* samples, not just the window.
  int64_t latency_sum_nanos_ QREG_GUARDED_BY(mu_) = 0;
};

}  // namespace service
}  // namespace qreg

#endif  // QREG_SERVICE_SERVICE_STATS_H_
