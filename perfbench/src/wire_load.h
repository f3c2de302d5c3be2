// Closed-loop load over the wire: each connection keeps `depth` requests in
// flight on its own thread and sends the next request only when an answer
// comes back, the way an analyst's tool waits for its results. Requests
// come from a pre-generated array; connection c walks indices c, c+C, c+2C…
// and wraps around.

#ifndef QREG_PERFBENCH_WIRE_LOAD_H_
#define QREG_PERFBENCH_WIRE_LOAD_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/query_router.h"
#include "util/status.h"

namespace qreg {
namespace perfbench {

/// Failure accounting of one phase.
struct Tally {
  int64_t sent = 0;
  int64_t answered = 0;      ///< OK answers.
  int64_t shed = 0;          ///< kResourceExhausted frames.
  int64_t dropped = 0;       ///< Sent but never answered (transport failure).
  int64_t not_found = 0;     ///< Empty subspace on the exact path.
  int64_t other_errors = 0;  ///< Any other typed error frame.
  int64_t by_source[3] = {0, 0, 0};  ///< Indexed by service::AnswerSource.
  /// Answers that fail an inline check: wrong kind, or a cache-served
  /// answer whose δ is below δ_min.
  int64_t check_violations = 0;

  Tally& operator+=(const Tally& o);
  int64_t failed() const { return sent - answered; }
};

/// Log-bucketed latency histogram. Its memory is fixed whatever the sample
/// count, so the benchmark's own footprint never moves peak_rss_mb; quantiles
/// are exact to 0.1% (interpolated within a bucket).
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(int64_t nanos);
  void Merge(const LatencyHistogram& other);
  int64_t count() const { return count_; }
  /// Nearest-rank quantile in milliseconds; 0 when empty.
  double QuantileMs(double q) const;

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
};

struct Phase {
  int64_t max_requests = -1;  ///< Across the connections used; -1 = no cap.
  double seconds = 0.0;       ///< Time limit; <= 0 = none.
  size_t connections = 1;     ///< First `connections` of the driver's.
  size_t depth = 1;           ///< In flight per connection (at most 255).
  bool record = false;        ///< Keep latencies and per-slice answer counts.
  bool trace = false;         ///< Also keep each answer's exec.nanos.
};

struct PhaseResult {
  Tally tally;
  LatencyHistogram latency;  ///< Answers completed inside the window.
  /// The timed window is cut into forty equal slices. Throughput is the
  /// mean rate of the slices left after setting aside the fastest and the
  /// slowest fifth by rate: a mean, unlike a median, moves smoothly with the
  /// mix of a shared host's faster and slower stretches instead of flipping
  /// between them, and the trim keeps a stall or a burst out. p50 and p99
  /// are medians over groups of consecutive slices of each group's quantile
  /// (as many groups, up to forty, as keep 1,000 samples each), so a burst
  /// of host stalls in a few groups does not set the tail.
  double qps = 0.0;
  std::vector<double> slice_qps;  ///< Each slice's answer rate, in order.
  int latency_groups = 0;         ///< Slice groups behind p50/p99.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Traced phases only: per answer, client latency and the router's
  /// exec.nanos, in the same order.
  std::vector<double> latency_ms;
  std::vector<double> exec_ms;
};

class LoadDriver {
 public:
  /// `requests` is borrowed and must outlive the driver. Answers to every
  /// `check_stride`-th request of the first pass (at most `check_limit`)
  /// are kept for the bit-for-bit check. `delta_min` > 0 checks every
  /// cache-served answer's δ.
  LoadDriver(const std::vector<net::WireRequest>* requests, size_t connections,
             size_t check_stride, size_t check_limit, double delta_min);

  util::Status Connect(const net::Endpoint& endpoint);

  PhaseResult Run(const Phase& phase);

  /// Sends `batch` in small pipelined chunks on connection 0 and returns the
  /// results in order (the accuracy sample).
  std::vector<util::Result<service::Answer>> ExecuteAll(
      const std::vector<net::WireRequest>& batch, Tally* tally);

  /// (request index, wire answer) pairs kept for the bit-for-bit check.
  std::vector<std::pair<size_t, service::Answer>> TakeCaptured();

 private:
  struct Conn {
    std::unique_ptr<net::Client> client;
    size_t cursor = 0;
    bool wrapped = false;
    uint64_t seq = 1;
    bool dead = false;
    std::vector<std::pair<size_t, service::Answer>> captured;
  };

  /// One slice of the timed window.
  struct Slice {
    LatencyHistogram latency;
    int64_t first_nanos = 0;  ///< First and last completion in the slice.
    int64_t last_nanos = 0;
  };

  struct ConnOut {
    Tally tally;
    LatencyHistogram latency;
    std::vector<Slice> slices;
    std::vector<double> latency_ms;
    std::vector<double> exec_ms;
  };

  void RunConn(Conn* conn, const Phase& phase, int64_t budget, int64_t start,
               int64_t deadline, ConnOut* out);

  /// The check every answer gets: its kind matches the request's, and a
  /// cache-served answer carries δ ≥ δ_min.
  bool PassesInlineCheck(const net::WireRequest& request,
                         const service::Answer& answer) const;

  const std::vector<net::WireRequest>* requests_;
  std::vector<Conn> conns_;
  size_t check_stride_;
  size_t check_limit_;
  double delta_min_;
};

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_WIRE_LOAD_H_
