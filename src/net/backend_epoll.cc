// epoll(7) backend: one level-triggered epoll instance per event loop.
//
// Interest changes are incremental epoll_ctl calls and Wait() returns only
// the ready handles — O(ready) dispatch per wakeup. Level-triggered on
// purpose: the server's loop logic (drain-on-short-read,
// retry-flush-on-next-readiness) relies on a still-ready handle being
// reported again by the next Wait(), exactly as SimBackend reports it; the
// wire bytes are pinned bit-for-bit against in-process execution by
// net_socket_test.

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_set>

#include "net/backend.h"
#include "net/backend_socket.h"
#include "util/string_util.h"

namespace qreg {
namespace net {
namespace {

constexpr int kMaxEpollEvents = 256;

class EpollBackend final : public EventBackend {
 public:
  ~EpollBackend() override {
    if (epfd_ >= 0) ::close(epfd_);
  }

  util::Status Init() override {
    QREG_RETURN_NOT_OK(wake_.Open());
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) {
      return util::Status::IoError(
          util::Format("epoll_create1(): %s", strerror(errno)));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_.fd();
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_.fd(), &ev) != 0) {
      return util::Status::IoError(
          util::Format("epoll_ctl(wake): %s", strerror(errno)));
    }
    return util::Status::OK();
  }

  util::Result<int> OpenListener(const std::string& address, uint16_t port,
                                 bool reuse_port) override {
    return SocketOpenListener(address, port, reuse_port);
  }

  util::Result<uint16_t> ListenerPort(int listener) override {
    return SocketListenerPort(listener);
  }

  int Accept(int listener) override { return SocketAccept(listener); }

  void UpdateInterest(int handle, bool want_read, bool want_write) override {
    epoll_event ev{};
    if (want_read) ev.events |= EPOLLIN;
    if (want_write) ev.events |= EPOLLOUT;
    ev.data.fd = handle;
    // A parked handle (no interest) keeps its registration with an empty
    // event mask: level-triggered epoll then reports only EPOLLERR/EPOLLHUP,
    // which the loop treats as a close signal either way.
    const auto it = registered_.find(handle);
    if (it == registered_.end()) {
      if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, handle, &ev) == 0) {
        registered_.insert(handle);
      }
      return;
    }
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, handle, &ev);
  }

  void Deregister(int handle) override {
    if (registered_.erase(handle) > 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, handle, nullptr);
    }
  }

  util::Status Wait(int timeout_ms, std::vector<ReadyEvent>* events) override {
    events->clear();
    epoll_event ready[kMaxEpollEvents];
    const int n = ::epoll_wait(epfd_, ready, kMaxEpollEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return util::Status::OK();
      return util::Status::IoError(
          util::Format("epoll_wait(): %s", strerror(errno)));
    }
    for (int i = 0; i < n; ++i) {
      if (ready[i].data.fd == wake_.fd()) {
        wake_.Drain();
        continue;
      }
      ReadyEvent ev;
      ev.handle = ready[i].data.fd;
      ev.readable = (ready[i].events & EPOLLIN) != 0;
      ev.writable = (ready[i].events & EPOLLOUT) != 0;
      ev.error = (ready[i].events & EPOLLERR) != 0;
      ev.hangup = (ready[i].events & (EPOLLHUP | EPOLLRDHUP)) != 0;
      events->push_back(ev);
    }
    return util::Status::OK();
  }

  void Wake() override { wake_.Wake(); }

  IoResult Read(int handle, const iovec* iov, int iovcnt) override {
    return SocketRead(handle, iov, iovcnt);
  }

  IoResult Write(int handle, const uint8_t* data, size_t n) override {
    return SocketWrite(handle, data, n);
  }

  void Close(int handle) override { ::close(handle); }

 private:
  WakeEvent wake_;
  int epfd_ = -1;
  std::unordered_set<int> registered_;
};

}  // namespace

std::unique_ptr<EventBackend> CreateEpollBackend() {
  return std::make_unique<EpollBackend>();
}

}  // namespace net
}  // namespace qreg
