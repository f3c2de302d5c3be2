// Pluggable event backends for net::Server (DESIGN.md §12.6).
//
// An EventBackend is the seam between the server's per-loop state machine
// (connection table, decoder, dispatch, drain) and the mechanism that moves
// bytes: readiness demultiplexing, accept, scatter reads, writes.
// The loop logic is written once against this interface; what plugs in
// underneath is chosen per ServerConfig:
//
//   kEpoll  epoll(7), level-triggered, one epoll instance per loop.
//           Interest changes are incremental (epoll_ctl) and Wait returns
//           only ready handles — O(ready) dispatch, the regime for large
//           connection counts.
//   kSim    A deterministic in-memory transport (backend_sim.h). No real
//           sockets: tests script per-connection fault schedules (short
//           reads, EAGAIN at byte k, ECONNRESET mid-frame, reordered
//           readiness) and every teardown / partial-frame path in the
//           server becomes reachable on demand.
//
// Threading contract: every method except Wake() is called only by the
// owning event-loop thread (or by Start()/Shutdown() while that thread is
// not running). Wake() is thread-safe and interrupts a concurrent — or the
// next — Wait().
//
// Handles are plain ints. For epoll they are file descriptors; for the sim
// they are transport-assigned ids. Server code never does I/O on a handle
// directly — always through the backend that produced it.

#ifndef QREG_NET_BACKEND_H_
#define QREG_NET_BACKEND_H_

#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace qreg {
namespace net {

/// \brief Which event backend a server runs its loops on.
enum class BackendKind : int {
  kEpoll,  ///< The real-socket backend.
  kSim,    ///< The deterministic test transport.
};

/// \brief Readiness report for one registered handle.
struct ReadyEvent {
  int handle = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;   ///< POLLERR/POLLNVAL class: unusable, close it.
  bool hangup = false;  ///< Peer closed its write side; drain, then close.
};

/// \brief Outcome of one Read/Write call through the backend.
struct IoResult {
  enum class Kind {
    kOk,          ///< `bytes` transferred.
    kWouldBlock,  ///< EAGAIN/EWOULDBLOCK: retry after the next readiness.
    kEof,         ///< Read side only: orderly peer shutdown.
    kError,       ///< Hard failure (`error` holds errno); close the handle.
  };
  Kind kind = Kind::kOk;
  size_t bytes = 0;
  int error = 0;

  static IoResult Ok(size_t n) { return {Kind::kOk, n, 0}; }
  static IoResult WouldBlock() { return {Kind::kWouldBlock, 0, 0}; }
  static IoResult Eof() { return {Kind::kEof, 0, 0}; }
  static IoResult Error(int err) { return {Kind::kError, 0, err}; }
};

/// \brief The event-demultiplexing + socket-I/O seam one event loop runs on.
class EventBackend {
 public:
  virtual ~EventBackend() = default;

  /// Allocates the backend's internal resources (wakeup channel, epoll fd).
  /// Must be called — and must succeed — before any other method.
  virtual util::Status Init() = 0;

  /// Opens a non-blocking listener on address:port (port 0 = ephemeral).
  /// `reuse_port` asks for kernel accept sharding (SO_REUSEPORT). Any
  /// failure (address in use, option refused) is a typed error that Start()
  /// returns as is.
  virtual util::Result<int> OpenListener(const std::string& address,
                                         uint16_t port, bool reuse_port) = 0;

  /// The concrete port `listener` is bound to (resolves an ephemeral bind).
  virtual util::Result<uint16_t> ListenerPort(int listener) = 0;

  /// Accepts one pending connection, already non-blocking (and TCP_NODELAY
  /// on real sockets). Returns the new handle, or -1 when nothing is
  /// pending / the attempt should simply be retried after the next
  /// readiness.
  virtual int Accept(int listener) = 0;

  /// Declares (or updates — upsert semantics) what Wait() should watch
  /// `handle` for. No interest at all parks the handle: it stays known to
  /// the backend but produces no events.
  virtual void UpdateInterest(int handle, bool want_read, bool want_write) = 0;

  /// Forgets `handle`. Must precede Close().
  virtual void Deregister(int handle) = 0;

  /// Blocks up to `timeout_ms` for readiness or a Wake(). `*events` is
  /// cleared and filled with the ready handles; wakeups are consumed
  /// internally and produce no event (the loop re-checks its queues every
  /// iteration regardless). A non-OK status means the wait mechanism itself
  /// failed and the loop should exit.
  virtual util::Status Wait(int timeout_ms, std::vector<ReadyEvent>* events) = 0;

  /// Thread-safe: interrupts a concurrent (or the next) Wait().
  virtual void Wake() = 0;

  /// Scatter read into `iov[0..iovcnt)` — one call fills all iovecs (readv
  /// input batching: a deep kernel buffer drains in one syscall instead of
  /// one per buffer).
  virtual IoResult Read(int handle, const iovec* iov, int iovcnt) = 0;

  /// Writes up to `n` bytes from `data`, one contiguous span: a connection's
  /// whole unflushed output (send + MSG_NOSIGNAL on real sockets: one
  /// syscall per flush burst and no SIGPIPE).
  virtual IoResult Write(int handle, const uint8_t* data, size_t n) = 0;

  /// Closes `handle` (fd close / sim-side teardown).
  virtual void Close(int handle) = 0;
};

/// The real-socket backend. A kSim backend is created by its SimTransport
/// (backend_sim.h) — the server reaches it through ServerConfig::sim.
std::unique_ptr<EventBackend> CreateEpollBackend();

}  // namespace net
}  // namespace qreg

#endif  // QREG_NET_BACKEND_H_
