// Socket plumbing under the epoll backend (and the client's receive-timeout
// wait): listener setup, accept, readv/sendmsg I/O, and the self-pipe wakeup
// channel. Internal to src/net/ — server code talks to EventBackend, never
// to these directly.

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

/// Opens a non-blocking CLOEXEC listener, with SO_REUSEPORT when
/// `reuse_port` is set. Any refusal (option, bind, listen) is a typed error.
util::Result<int> SocketOpenListener(const std::string& address, uint16_t port,
                                     bool reuse_port);

util::Result<uint16_t> SocketListenerPort(int listener);

/// accept4 + TCP_NODELAY; -1 when nothing is pending.
int SocketAccept(int listener);

IoResult SocketRead(int fd, const iovec* iov, int iovcnt);
IoResult SocketWrite(int fd, const iovec* iov, int iovcnt);

/// Blocks until `fd` is readable (true), the timeout expires (false), or the
/// wait itself fails (typed IoError). `timeout_ms < 0` waits forever. Lives
/// here because poll(2) is confined to the backend files by the invariant
/// linter — this is the client's receive-timeout primitive.
util::Result<bool> SocketWaitReadable(int fd, int timeout_ms);

/// \brief Self-pipe wakeup: Wake() from any thread makes the read end
/// readable, interrupting a demultiplexer wait that watches it.
class WakePipe {
 public:
  WakePipe() = default;
  ~WakePipe();

  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  util::Status Open();
  int read_fd() const { return fds_[0]; }

  void Wake();   // Thread-safe.
  void Drain();  // Owning loop only: consume pending wakeup bytes.

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace net
}  // namespace qreg

#endif  // QREG_NET_BACKEND_SOCKET_H_
