// Framed-binary TCP front-end over service::QueryRouter (DESIGN.md §12).
//
// Architecture: N independent event loops (config.event_loops), each owning
// its *own* EventBackend (the demultiplexer/I-O seam — epoll, or the
// deterministic SimBackend in tests, selected by config.backend), listener,
// connection table and completion queue — no socket is ever touched
// by two threads — plus one shared fixed pool of batch-executor threads
// running the router. A loop answers a model-routed request itself
// (QueryRouter::TryExecuteInline: microseconds, and nothing on that path can
// scan, train, probe drift or block); everything else — exact scans, cache
// hits, fallbacks, requests refused at admission or routing — runs on the
// executors, which never touch a socket. So a slow scan cannot stall frame decoding on any connection, a
// slow client cannot stall the router, and a model answer costs no thread
// hand-off.
//
// Accept sharding: with more than one loop, every loop binds its own
// SO_REUSEPORT listener to the same address, and the kernel spreads
// incoming connections across them. A single loop binds a plain listener.
// If any bind is refused, Start() closes every listener it opened and
// returns the typed error — there is no fallback topology.
//
// Pipelining: frames a client sends back-to-back are decoded into a
// per-connection pending list. With no batch in flight, the loop answers the
// list's leading run of model-routed requests and hands the rest to one
// QueryRouter::ExecuteBatch call; frames arriving while that batch is in
// flight wait for the next dispatch. Each connection gets its responses in
// request order, one kAnswer or kError frame per request echoing its id — a
// connection over its max_pipeline bound is shed with a typed
// kResourceExhausted *frame*, never a dropped connection.
//
// Response path: the loop is the only thread that encodes. Each connection
// owns one output buffer, and the loop appends every response frame to it
// in place (AppendAnswerFrame/AppendStatusFrame — no per-frame allocation)
// in the order it has them: its own answers, pongs, error frames and sheds
// as they happen, and a batch's answers when the executor's completion
// (request ids plus ExecResults, no bytes) arrives. So the frames the loop
// emits while decoding one read go out ahead of the batch dispatched from
// that read. One backend Write per writability burst (not one per frame)
// sends the unflushed tail. The flushed prefix is dropped by the
// FrameDecoder's rule (CompactConsumed: when all of it is flushed, or once
// the prefix reaches 4 KiB), so a reader that never fully drains cannot
// grow the buffer past the pending-write cap; and a fully flushed buffer
// keeps at most 64 KiB of capacity, so idle connections hold little.
//
// Shutdown: Shutdown() stops every listener, lets in-flight and
// already-decoded requests finish, flushes every response on every loop,
// then closes connections and joins all threads (each loop bounded by
// drain_timeout_millis against stuck peers).

#ifndef QREG_NET_SERVER_H_
#define QREG_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/backend.h"
#include "net/wire.h"
#include "service/query_router.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace qreg {
namespace net {

class SimTransport;

/// Hard ceiling on ServerConfig::event_loops — far past any sane core count;
/// a bigger request is a typo, rejected by Validate().
constexpr size_t kMaxEventLoops = 64;

/// \brief Where a started server is actually listening — what Start()
/// returns, so "bind then ask for the port" is one step, not two.
struct Endpoint {
  std::string address;
  uint16_t port = 0;

  std::string ToString() const;  ///< "127.0.0.1:8080".
};

/// \brief Server configuration.
struct ServerConfig {
  /// TCP port to listen on; 0 picks an ephemeral port (reported by the
  /// Endpoint Start() returns).
  uint16_t port = 0;

  /// Listen address. Defaults to loopback: exposing the service beyond the
  /// host is an explicit operator decision.
  std::string bind_address = "127.0.0.1";

  /// Event loops (each with its own listener and connection table). The
  /// loops are the frame-pumping capacity; scale this with cores when the
  /// measured knee is loop-bound (bench_load_curve's loop ladder).
  size_t event_loops = 1;

  /// Batch-executor threads running QueryRouter::ExecuteBatch, shared by
  /// all loops. Must be ≥ 1 (Validate enforces it).
  size_t executor_threads = 2;

  /// Per-connection ceiling on decoded-but-unanswered requests. Frames
  /// beyond it are answered immediately with kResourceExhausted (server-side
  /// admission shed) instead of buffering without bound. Must be ≥ 1
  /// (Validate enforces it).
  size_t max_pipeline = 1024;

  /// Global cap across *all* loops (one shared atomic count, so N loops
  /// cannot collectively accept N× the limit). Connections beyond it are
  /// closed immediately after accept.
  size_t max_connections = 1024;

  /// Shutdown(): how long each loop waits for in-flight batches and
  /// unflushed responses before force-closing its connections. Measured on
  /// `clock`, like every other lifecycle timeout.
  int64_t drain_timeout_millis = 5000;

  /// Idle timeout: a connection with no partial frame buffered, no
  /// outstanding requests, and nothing left to flush is closed
  /// (NetActivity::idle_closed) after this long without traffic, so an
  /// abandoned peer cannot pin a connection-table slot forever. 0 disables.
  int64_t idle_timeout_millis = 60000;

  /// Read-progress timeout: once the first byte of a frame arrives, the
  /// whole frame (header and payload) must complete within this window or
  /// the connection is closed (NetActivity::read_timeout_closed). The window
  /// anchors at frame *start*, not at the last byte, so a slow-loris peer
  /// dripping one byte per interval cannot extend it. 0 disables.
  int64_t read_progress_timeout_millis = 10000;

  /// Per-connection cap on pending (queued, unflushed) response bytes. A
  /// peer that stops reading past this point is evicted: its queued
  /// responses are freed at once, one typed kUnavailable "going away"
  /// frame is queued best-effort, and the connection closes
  /// (NetActivity::backpressure_closed). 0 disables.
  size_t max_conn_pending_write_bytes = 64u << 20;

  /// Aggregate pending-write cap across all connections of one loop.
  /// Exceeding it evicts the connection(s) with the most pending bytes until
  /// the loop is back under the cap — one stalled reader cannot hold its
  /// loop's memory. Must be >= the per-connection cap when both are set
  /// (Validate). 0 disables.
  size_t max_loop_pending_write_bytes = 0;

  /// Event demultiplexer per loop: kEpoll (level-triggered, O(ready)
  /// dispatch), or kSim (the deterministic in-memory transport in `sim` —
  /// tests only). The wire bytes are backend-independent.
  BackendKind backend = BackendKind::kEpoll;

  /// The transport a kSim server runs on. Borrowed; must outlive the
  /// server. Required (Validate) iff backend == kSim.
  SimTransport* sim = nullptr;

  /// Clock that decode-time deadline mapping *and* every connection
  /// lifecycle timeout (idle, read-progress, drain) read (null = system
  /// clock). Borrowed; must outlive the server. Tests inject a FakeClock and
  /// drive expiries with SimTransport::Poke() — no real sleeps.
  const util::Clock* clock = nullptr;

  /// Typed kInvalidArgument for a config no socket syscall should ever see:
  /// zero executor threads, zero or > kMaxEventLoops event loops, a bind
  /// address inet_pton rejects, a zero connection cap, a negative drain /
  /// idle / read-progress timeout, a per-connection pending-write cap above
  /// the per-loop aggregate cap, or backend == kSim without a transport.
  /// Start() calls this before touching the network.
  util::Status Validate() const;
};

/// \brief The wire-level front door: accepts framed-binary connections and
/// serves them from a borrowed QueryRouter (which must outlive the server).
///
/// Wire-level activity is recorded into the router's ServiceStats — both the
/// aggregate net_* counters and the per-loop breakdown (net_loops), so one
/// snapshot shows a skewed accept shard or a starving loop.
class Server {
 public:
  Server(service::QueryRouter* router, ServerConfig config = ServerConfig());

  /// Shuts down (gracefully) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Validates the config, binds every loop's listener, and starts the
  /// event-loop + executor threads. Returns the bound endpoint (with the
  /// kernel-chosen port when config.port == 0). A refused bind (port in
  /// use, SO_REUSEPORT refused) returns the typed error with every listener
  /// closed, running() false and num_loops() 0. A server is single-use:
  /// Start() after Shutdown() is an error.
  util::Result<Endpoint> Start();

  bool running() const { return state_.load() == State::kRunning; }

  /// Number of event loops actually running (0 before Start()).
  size_t num_loops() const { return loops_.size(); }

  /// Graceful stop: stop accepting, drain in-flight work, flush responses,
  /// close connections, join threads. Idempotent; safe from any thread
  /// (including concurrently with itself, not from server threads).
  void Shutdown();

 private:
  enum class State : int { kIdle = 0, kRunning = 1, kStopped = 2 };

  struct Connection;
  struct BatchJob;
  struct Completion;

  /// One armed connection deadline in a loop's timer wheel. Entries are
  /// never removed eagerly: each carries the generation its connection had
  /// when armed, and a popped entry whose generation no longer matches (the
  /// connection rearmed, or died) is dropped — lazy invalidation keeps
  /// arming O(log n) with no multimap searches.
  struct TimerEntry {
    uint64_t conn_id = 0;
    uint64_t gen = 0;
  };

  /// Everything one event loop owns. Only the loop's thread touches the
  /// connection table or backend (Wake() excepted — it is the one
  /// thread-safe backend call); the mutex-guarded completion queue is the
  /// only cross-thread seam (executors push finished batches).
  struct Loop {
    // Out-of-line (Connection/Completion are incomplete here).
    Loop();
    ~Loop();

    size_t index = 0;
    std::unique_ptr<EventBackend> backend;
    int listen_h = -1;  // Backend listener handle; -1 once closed.
    std::thread thread;

    // --- loop-thread-only state ---
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    std::unordered_map<int, uint64_t> by_handle;  // Backend handle → conn id.
    uint64_t next_conn_id = 1;

    // Timer wheel: connection deadlines ordered by expiry (config clock
    // nanos). The loop's Wait() sleeps exactly until the earliest entry —
    // there is no polling tick. Loop-thread-only.
    std::multimap<int64_t, TimerEntry> timers;
    // Sum of every connection's pending (unflushed) response bytes — the
    // quantity max_loop_pending_write_bytes bounds.
    size_t pending_out_total = 0;
    // The completions one iteration drains, swapped out of `done` and
    // cleared after, so the queue's storage is reused. Loop-thread-only.
    std::deque<Completion> finished;
    // The frame HandleReadable decodes into; its payload keeps its capacity
    // from one frame to the next. Loop-thread-only.
    Frame frame;

    // Executors → loop: finished batches.
    util::Mutex done_mu;
    std::deque<Completion> done QREG_GUARDED_BY(done_mu);
  };

  void EventLoop(Loop* loop);
  /// Executor side of a dispatch: runs the batch through the router and
  /// hands the results back to the owning loop, which encodes them.
  void RunBatch(BatchJob* job);
  void WakeLoop(Loop* loop);

  // Event-loop helpers (only called on `loop`'s own thread).
  void AcceptNew(Loop* loop);
  void RegisterConnection(Loop* loop, int fd);
  void HandleReadable(Loop* loop, Connection* conn);
  void HandleFrame(Loop* loop, Connection* conn, const Frame& frame);
  /// With no batch in flight: answers the leading run of model-routed
  /// pending requests on the loop and sends the rest to the executors as one
  /// BatchJob, counting both into `activity`.
  void DispatchIfReady(Loop* loop, Connection* conn,
                       service::NetActivity* activity);
  void FlushWrites(Loop* loop, Connection* conn);
  void CloseConnection(Loop* loop, uint64_t id);

  // --- connection lifecycle (timer wheel + write backpressure) ---

  /// The lifecycle clock: config.clock, or the system clock when none was
  /// injected. Every timeout in this file reads time through here.
  int64_t Now() const;

  /// The connection's next deadline on the lifecycle clock, derived from its
  /// current state (mid-frame → read-progress window from frame start;
  /// otherwise idle window from last activity; evicted → goodbye grace).
  /// Returns -1 when no timeout applies.
  int64_t NextDeadline(const Connection& conn, int64_t now) const;

  void ArmTimer(Loop* loop, Connection* conn, int64_t deadline);

  /// Arms (or tightens) the connection's wheel entry to its current
  /// NextDeadline. A looser desired deadline is left alone: the armed entry
  /// fires early, recomputes, and rearms — monotone and lazy.
  void RescheduleTimer(Loop* loop, Connection* conn, int64_t now);

  /// Pops and handles every expired wheel entry: stale entries are dropped,
  /// still-early ones rearmed, true expiries closed with the right
  /// NetActivity counter (idle_closed / read_timeout_closed).
  void ProcessTimers(Loop* loop, int64_t now);

  void UpdatePendingAccounting(Loop* loop, Connection* conn);

  /// Enforces both pending-write caps; may Evict `conn` (per-connection
  /// cap) and/or the loop's heaviest writers (aggregate cap).
  void MaybeEvict(Loop* loop, Connection* conn);

  /// Backpressure eviction: free the undeliverable output, queue one typed
  /// kUnavailable goodbye, count backpressure_closed, and
  /// close as soon as the goodbye flushes (or the grace timer fires).
  void Evict(Loop* loop, Connection* conn);

  service::QueryRouter* router_;
  ServerConfig config_;
  service::ServiceStats* stats_;  // The router's collector (net_* counters).

  std::vector<std::unique_ptr<Loop>> loops_;

  // Shared across loops: the global connection count behind
  // config.max_connections (satellite fix — one cap, not one per loop).
  std::atomic<size_t> open_conns_{0};

  std::atomic<State> state_{State::kIdle};
  std::atomic<bool> shutdown_requested_{false};

  // Batch executors shared by all loops; null outside Start()..Shutdown().
  std::unique_ptr<util::ThreadPool> executors_;

  util::Mutex shutdown_mu_;  // Serializes Shutdown() callers.
};

}  // namespace net
}  // namespace qreg

#endif  // QREG_NET_SERVER_H_
