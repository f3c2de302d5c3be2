// Blocking wire-protocol client for net::Server — the reference peer the
// tests, benches, and example demo use. One TCP connection, synchronous
// Execute/ExecuteBatch, plus the split Send/Read primitives an open-loop
// load generator needs (send from one thread, read from another).
//
// Thread model: at most one sender thread and one reader thread. SendRequest
// and ReadResponse touch disjoint socket directions, so a sender/reader pair
// may run concurrently; two concurrent senders (or readers) may not.

#ifndef QREG_NET_CLIENT_H_
#define QREG_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.h"
#include "service/query_router.h"
#include "util/status.h"

namespace qreg {
namespace net {

/// \brief Client-side failure-recovery policy: how many times to re-issue a
/// failed request, how long to wait between attempts, and how much total
/// retry traffic one batch may generate.
///
/// The wire protocol is read-only (every request is an idempotent query), so
/// re-issuing a request is always safe — *except* when it carried a deadline
/// budget: the server may still be racing the first attempt against that
/// budget, and a retry would silently grant the query a fresh one. ClientPool
/// therefore never retries a request with `deadline_budget_nanos > 0`, and
/// only retries failures whose status `util::IsRetryable()` classifies as
/// transient (kUnavailable goodbye frames, kResourceExhausted shed, kIoError
/// transport death).
struct RetryPolicy {
  /// Total attempts per request, first try included (1 = never retry).
  int max_attempts = 1;

  /// Retry k (k ≥ 1) backs off `base_backoff_nanos * 2^(k-1)`, capped at
  /// `max_backoff_nanos`, with deterministic jitter in [backoff/2, backoff].
  int64_t base_backoff_nanos = 1000000;     // 1 ms
  int64_t max_backoff_nanos = 100000000;    // 100 ms

  /// Seeds the jitter hash: the same (seed, retry-number) pair always yields
  /// the same backoff, so a test with a fixed seed sees one exact schedule.
  uint64_t jitter_seed = 0;

  /// Total request re-issues allowed across one ExecuteBatch call — a batch
  /// of N failures cannot multiply into max_attempts × N extra traffic.
  int retry_budget = 64;

  /// The deterministic backoff for the k-th retry (k ≥ 1), in nanoseconds.
  int64_t BackoffNanos(int retry) const;
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to host:port (IPv4 dotted quad or resolvable name). The
  /// endpoint is remembered (even on failure) so Reconnect() can redial it.
  util::Status Connect(const std::string& host, uint16_t port);

  /// Closes any current socket and redials the endpoint of the last
  /// Connect(); kFailedPrecondition if Connect() was never called.
  util::Status Reconnect();

  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Receive progress timeout for the read path: when > 0, any wait for
  /// response bytes that sees no arrivals for this long fails with a typed
  /// kDeadlineExceeded instead of blocking forever on a stalled server.
  /// 0 (the default) preserves the original block-forever behavior. The
  /// window re-arms on every arriving chunk — it bounds silence, not total
  /// response time. It is the socket's SO_RCVTIMEO, set on the live socket
  /// and on every later Connect()/Reconnect(), so a read needs no poll.
  void set_recv_timeout_millis(int millis);
  int recv_timeout_millis() const { return recv_timeout_millis_; }

  /// One request, one response (a batch of one).
  util::Result<service::Answer> Execute(const WireRequest& request);

  /// Pipelines the whole batch onto the socket, then collects responses.
  /// Results are positionally aligned with `batch`; per-request failures
  /// (typed kError frames, e.g. kResourceExhausted under shed) come back
  /// in-slot. A transport failure (socket death, poisoned stream, receive
  /// timeout) poisons the remaining slots and Close()s the connection — the
  /// stream is unusable past that point, so `connected()` becomes a truthful
  /// liveness signal for a pool deciding whether to redial this stripe.
  std::vector<util::Result<service::Answer>> ExecuteBatch(
      const std::vector<WireRequest>& batch);

  /// Round-trips a kPing/kPong pair (also flushes pipelined traffic).
  util::Status Ping();

  // --- split-phase API (open-loop load generation) ---

  /// Writes one request frame tagged `request_id` (caller-chosen, non-zero).
  util::Status SendRequest(const WireRequest& request, uint64_t request_id);

  /// Blocks for the next response frame; `*request_id` reports which request
  /// it answers. A kError frame becomes the returned (typed) error status;
  /// transport failures surface as kIoError.
  util::Result<service::Answer> ReadResponse(uint64_t* request_id);

 private:
  util::Status WriteAll(const uint8_t* data, size_t n);
  /// Applies recv_timeout_millis_ to the socket as SO_RCVTIMEO.
  util::Status ApplyRecvTimeout();
  /// Reads until the decoder yields a frame (or fails).
  util::Status ReadFrame(Frame* frame);

  int fd_ = -1;
  uint64_t next_id_ = 1;
  int recv_timeout_millis_ = 0;
  std::string host_;
  uint16_t port_ = 0;
  bool endpoint_set_ = false;
  FrameDecoder decoder_;
  /// The sender's encode buffer, reused so a request costs no allocation;
  /// freed after a batch that grew it past kMaxRetainedSendBytes.
  static constexpr size_t kMaxRetainedSendBytes = 1u << 20;
  std::vector<uint8_t> send_buf_;
};

/// \brief M independent connections to one server — the client-side fan-out
/// a multi-loop server needs, since one connection lands on exactly one
/// event loop and can never exercise the others.
///
/// ExecuteBatch stripes the batch round-robin across the *live* connections,
/// pipelines every stripe concurrently on its own thread, and scatters the
/// responses back into batch order. With a RetryPolicy installed it then
/// re-issues the retryable failures (see RetryPolicy) on later passes,
/// backing off between passes; a dead stripe is redialed lazily — gated by
/// its own exponential backoff — and routed around while it stays down, so
/// one dead connection degrades throughput instead of failing the batch.
/// The per-connection split-phase primitives stay reachable through
/// client(i) for open-loop load generators that manage their own
/// sender/reader threads.
class ClientPool {
 public:
  ClientPool() = default;
  ~ClientPool();

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Opens `connections` (≥ 1) sockets to host:port. All-or-nothing: on any
  /// failure every already-open connection is closed again.
  util::Status Connect(const std::string& host, uint16_t port,
                       size_t connections);

  void Close();
  size_t size() const { return clients_.size(); }
  bool connected() const { return !clients_.empty(); }

  /// The i-th connection (0 ≤ i < size()).
  Client* client(size_t i) { return clients_[i].get(); }

  /// Failure-recovery policy applied by ExecuteBatch. The default (one
  /// attempt, no retries) reproduces the original fail-fast behavior.
  void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }
  const RetryPolicy& retry_policy() const { return policy_; }

  /// Sets the receive progress timeout on every pooled connection (and on
  /// later reconnects). See Client::set_recv_timeout_millis.
  void set_recv_timeout_millis(int millis);

  /// Pipelines `batch` across the live connections; results are positionally
  /// aligned with `batch`, exactly as Client::ExecuteBatch. Retries per the
  /// installed RetryPolicy.
  std::vector<util::Result<service::Answer>> ExecuteBatch(
      const std::vector<WireRequest>& batch);

 private:
  /// Per-stripe reconnect gate: failures push the next redial attempt out
  /// exponentially (via policy_.BackoffNanos), so a hard-down server costs
  /// one connect() per backoff window, not one per batch pass.
  struct StripeState {
    int consecutive_failures = 0;
    int64_t next_redial_nanos = 0;  // Monotonic; 0 = no gate.
  };

  /// True if stripe i is connected, redialing it first if its gate allows.
  bool EnsureLive(size_t i);

  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<StripeState> stripes_;
  RetryPolicy policy_;
  int recv_timeout_millis_ = 0;
};

}  // namespace net
}  // namespace qreg

#endif  // QREG_NET_CLIENT_H_
