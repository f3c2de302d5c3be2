#include "net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>

#include "net/backend_socket.h"
#include "util/string_util.h"

namespace qreg {
namespace net {

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder();
}

util::Status Client::Connect(const std::string& host, uint16_t port) {
  if (connected()) return util::Status::FailedPrecondition("already connected");
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* addrs = nullptr;
  const std::string service = util::Format("%u", port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &addrs);
  if (rc != 0) {
    return util::Status::IoError(
        util::Format("resolve %s: %s", host.c_str(), gai_strerror(rc)));
  }

  util::Status last = util::Status::IoError("no address resolved");
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                            ai->ai_protocol);
    if (fd < 0) {
      last = SyscallIoError("socket()");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      ::freeaddrinfo(addrs);
      const util::Status timeout = ApplyRecvTimeout();
      if (!timeout.ok()) Close();
      return timeout;
    }
    // Built before ::close(), which may clobber errno.
    last = SyscallIoError(util::Format("connect %s:%u", host.c_str(), port));
    ::close(fd);
  }
  ::freeaddrinfo(addrs);
  return last;
}

void Client::set_recv_timeout_millis(int millis) {
  recv_timeout_millis_ = millis;
  // A live socket takes the new window now; a closed one at its next dial.
  if (connected()) (void)ApplyRecvTimeout();
}

util::Status Client::ApplyRecvTimeout() {
  // A zero timeval blocks forever: the no-timeout default.
  const int millis = std::max(recv_timeout_millis_, 0);
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return SyscallIoError("setsockopt(SO_RCVTIMEO)");
  }
  return util::Status::OK();
}

util::Status Client::WriteAll(const uint8_t* data, size_t n) {
  if (!connected()) return util::Status::FailedPrecondition("not connected");
  size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && SyscallInterrupted()) continue;
    return SyscallIoError("send()");
  }
  return util::Status::OK();
}

util::Status Client::ReadFrame() {
  if (!connected()) return util::Status::FailedPrecondition("not connected");
  // One huge response must not pin its payload for the client's lifetime.
  if (read_frame_.payload.capacity() > kMaxRetainedBytes) {
    std::vector<uint8_t>().swap(read_frame_.payload);
  }
  uint8_t buf[65536];
  for (;;) {
    switch (decoder_.Next(&read_frame_)) {
      case FrameDecoder::Event::kFrame:
        return util::Status::OK();
      case FrameDecoder::Event::kError:
        return decoder_.error();
      case FrameDecoder::Event::kNeedMore:
        break;
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return util::Status::IoError("connection closed by server");
    }
    if (SyscallInterrupted()) continue;
    // SO_RCVTIMEO: a stalled server (accepted but never answering) would
    // otherwise park this read forever. The timeout bounds each silent gap;
    // any arriving chunk re-arms it.
    if (recv_timeout_millis_ > 0 && SyscallWouldBlock()) {
      return util::Status::DeadlineExceeded(
          util::Format("no response bytes from server within %d ms",
                       recv_timeout_millis_));
    }
    return SyscallIoError("read()");
  }
}

util::Status Client::SendRequest(const WireRequest& request,
                                 uint64_t request_id) {
  send_buf_.clear();
  AppendRequestFrame(&send_buf_, request_id, request);
  return WriteAll(send_buf_.data(), send_buf_.size());
}

util::Result<service::Answer> Client::ReadResponse(uint64_t* request_id) {
  for (;;) {
    QREG_RETURN_NOT_OK(ReadFrame());
    const Frame& frame = read_frame_;
    if (request_id != nullptr) *request_id = frame.header.request_id;
    switch (frame.header.type) {
      case FrameType::kAnswer:
        return DecodeAnswer(frame.payload.data(), frame.payload.size());
      case FrameType::kError: {
        util::Status transported;
        QREG_RETURN_NOT_OK(DecodeStatus(frame.payload.data(),
                                        frame.payload.size(), &transported));
        if (transported.ok()) {
          return util::Status::Internal("server sent an OK error frame");
        }
        return transported;
      }
      case FrameType::kPong:
        continue;  // A stale Ping answer interleaved with responses.
      default:
        return util::Status::InvalidArgument(util::Format(
            "wire protocol: unexpected frame type %u from server",
            static_cast<unsigned>(frame.header.type)));
    }
  }
}

util::Result<service::Answer> Client::Execute(const WireRequest& request) {
  std::vector<util::Result<service::Answer>> results = ExecuteBatch({request});
  return std::move(results.front());
}

std::vector<util::Result<service::Answer>> Client::ExecuteBatch(
    const std::vector<WireRequest>& batch) {
  std::vector<util::Result<service::Answer>> results(
      batch.size(), util::Status::IoError("no response received"));
  if (batch.empty()) return results;

  // Pipelining: every frame goes out before the first response is read; the
  // server coalesces what it finds in flight into ExecuteBatch calls.
  send_buf_.clear();
  const uint64_t first_id = next_id_;
  for (const WireRequest& request : batch) {
    AppendRequestFrame(&send_buf_, next_id_++, request);
  }
  const util::Status sent = WriteAll(send_buf_.data(), send_buf_.size());
  // A huge batch must not pin its encode buffer for the client's lifetime.
  if (send_buf_.capacity() > kMaxRetainedBytes) {
    std::vector<uint8_t>().swap(send_buf_);
  }
  if (!sent.ok()) {
    for (auto& slot : results) slot = sent;
    Close();  // The stream is dead; make connected() say so.
    return results;
  }

  size_t received = 0;
  while (received < batch.size()) {
    uint64_t id = 0;
    util::Result<service::Answer> response = ReadResponse(&id);
    const bool fatal =
        !response.ok() &&
        (response.status().code() == util::StatusCode::kIoError ||
         decoder_.poisoned() || id == 0);
    if (fatal) {
      // Transport death, receive timeout, or an unparseable stream: poison
      // every still-empty slot, close the now-desynced connection, and stop.
      for (size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok() &&
            results[i].status().code() == util::StatusCode::kIoError) {
          results[i] = response.status();
        }
      }
      Close();
      break;
    }
    if (id < first_id || id >= first_id + batch.size()) continue;  // Not ours.
    results[id - first_id] = std::move(response);
    ++received;
  }
  return results;
}

util::Status Client::Ping() {
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kPing, next_id_++, nullptr, 0);
  QREG_RETURN_NOT_OK(WriteAll(out.data(), out.size()));
  do {
    QREG_RETURN_NOT_OK(ReadFrame());
  } while (read_frame_.header.type != FrameType::kPong);
  return util::Status::OK();
}

}  // namespace net
}  // namespace qreg
