// Socket plumbing under the epoll backend (and the client's errno checks):
// listener setup, accept, readv/send I/O, and the eventfd wakeup channel.
// Internal to src/net/ — server code talks to EventBackend, never to these
// directly.

#ifndef QREG_NET_BACKEND_SOCKET_H_
#define QREG_NET_BACKEND_SOCKET_H_

#include <sys/uio.h>

#include <cstdint>
#include <string>

#include "net/backend.h"
#include "util/status.h"

namespace qreg {
namespace net {

/// Formats "<what>: <strerror(errno)>" as a typed IoError. Call immediately
/// after the failing syscall, before anything (even ::close) can clobber
/// errno. Lives here so `errno` itself stays confined to the backend files —
/// tools/lint_invariants.py rejects it anywhere else in src/.
util::Status SyscallIoError(const std::string& what);

/// True when the last syscall failed with EINTR (restart the call).
bool SyscallInterrupted();

/// True when the last syscall failed with EAGAIN/EWOULDBLOCK — for a
/// blocking socket with SO_RCVTIMEO, a read that timed out.
bool SyscallWouldBlock();

/// Opens a non-blocking CLOEXEC listener, with SO_REUSEPORT when
/// `reuse_port` is set. Any refusal (option, bind, listen) is a typed error.
util::Result<int> SocketOpenListener(const std::string& address, uint16_t port,
                                     bool reuse_port);

util::Result<uint16_t> SocketListenerPort(int listener);

/// accept4 + TCP_NODELAY; -1 when nothing is pending.
int SocketAccept(int listener);

IoResult SocketRead(int fd, const iovec* iov, int iovcnt);
IoResult SocketWrite(int fd, const uint8_t* data, size_t n);

/// \brief eventfd wakeup: Wake() from any thread makes the fd readable,
/// interrupting a demultiplexer wait that watches it. Wakes coalesce in the
/// eventfd counter, so one Drain() read consumes all of them.
class WakeEvent {
 public:
  WakeEvent() = default;
  ~WakeEvent();

  WakeEvent(const WakeEvent&) = delete;
  WakeEvent& operator=(const WakeEvent&) = delete;

  util::Status Open();
  int fd() const { return fd_; }

  void Wake();   // Thread-safe.
  void Drain();  // Owning loop only: reset the counter with one read.

 private:
  int fd_ = -1;
};

}  // namespace net
}  // namespace qreg

#endif  // QREG_NET_BACKEND_SOCKET_H_
