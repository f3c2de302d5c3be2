// Socket plumbing under the epoll backend and the client (listener setup,
// accept, readv/sendmsg I/O, errno checks, eventfd wakeup).

#include "net/backend_socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/string_util.h"

namespace qreg {
namespace net {

util::Status SyscallIoError(const std::string& what) {
  return util::Status::IoError(
      util::Format("%s: %s", what.c_str(), strerror(errno)));
}

bool SyscallInterrupted() { return errno == EINTR; }

bool SyscallWouldBlock() { return errno == EAGAIN || errno == EWOULDBLOCK; }

util::Result<int> SocketOpenListener(const std::string& address, uint16_t port,
                                     bool reuse_port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("bad bind address: " + address);
  }

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return util::Status::IoError(util::Format("socket(): %s", strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    const util::Status st = SyscallIoError("SO_REUSEPORT");
    ::close(fd);
    return st;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    const util::Status st = util::Status::IoError(
        util::Format("bind/listen port %u: %s", port, strerror(errno)));
    ::close(fd);
    return st;
  }
  return fd;
}

util::Result<uint16_t> SocketListenerPort(int listener) {
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return util::Status::IoError(
        util::Format("getsockname(): %s", strerror(errno)));
  }
  return ntohs(bound.sin_port);
}

int SocketAccept(int listener) {
  for (;;) {
    const int fd =
        ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno == EINTR) continue;
    return -1;  // EAGAIN or transient accept failure: poll again.
  }
}

IoResult SocketRead(int fd, const iovec* iov, int iovcnt) {
  for (;;) {
    const ssize_t n = ::readv(fd, iov, iovcnt);
    if (n > 0) return IoResult::Ok(static_cast<size_t>(n));
    if (n == 0) return IoResult::Eof();
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::WouldBlock();
    return IoResult::Error(errno);
  }
}

IoResult SocketWrite(int fd, const iovec* iov, int iovcnt) {
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(iov);
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  for (;;) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n >= 0) return IoResult::Ok(static_cast<size_t>(n));
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::WouldBlock();
    return IoResult::Error(errno);
  }
}

util::Status WakeEvent::Open() {
  fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd_ < 0) return SyscallIoError("eventfd()");
  return util::Status::OK();
}

WakeEvent::~WakeEvent() {
  if (fd_ >= 0) ::close(fd_);
}

void WakeEvent::Wake() {
  if (fd_ < 0) return;
  const uint64_t one = 1;
  // Adds to the counter; a wake already pending just grows it.
  (void)!::write(fd_, &one, sizeof(one));
}

void WakeEvent::Drain() {
  uint64_t count = 0;
  (void)!::read(fd_, &count, sizeof(count));
}

}  // namespace net
}  // namespace qreg
