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
#include <string>
#include <vector>

#include "net/wire.h"
#include "service/query_router.h"
#include "util/status.h"

namespace qreg {
namespace net {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to host:port (IPv4 dotted quad or resolvable name).
  util::Status Connect(const std::string& host, uint16_t port);

  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Receive progress timeout for the read path: when > 0, any wait for
  /// response bytes that sees no arrivals for this long fails with a typed
  /// kDeadlineExceeded instead of blocking forever on a stalled server.
  /// 0 (the default) preserves the original block-forever behavior. The
  /// window re-arms on every arriving chunk — it bounds silence, not total
  /// response time. It is the socket's SO_RCVTIMEO, set on the live socket
  /// and on every later Connect(), so a read needs no poll.
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
  /// liveness signal.
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
  /// Reads until the decoder yields a frame into read_frame_ (or fails).
  util::Status ReadFrame();

  int fd_ = -1;
  uint64_t next_id_ = 1;
  int recv_timeout_millis_ = 0;
  FrameDecoder decoder_;
  /// A reused buffer that grew past this is freed rather than kept.
  static constexpr size_t kMaxRetainedBytes = 1u << 20;
  /// The sender's encode buffer, reused so a request costs no allocation.
  std::vector<uint8_t> send_buf_;
  /// The reader's last frame, reused so a response's payload lands in the
  /// capacity an earlier one left instead of a fresh allocation.
  Frame read_frame_;
};

}  // namespace net
}  // namespace qreg

#endif  // QREG_NET_CLIENT_H_
