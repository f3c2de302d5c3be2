#include "net/backend_sim.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <unordered_map>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace qreg {
namespace net {

// All transport state behind one mutex. std::map (not unordered) for the
// listener/connection tables: iteration order is handle order, so accept
// round-robin and readiness reporting are deterministic by construction.
struct SimTransport::Shared {
  util::Mutex mu;
  util::CondVar cv;

  int next_handle QREG_GUARDED_BY(mu) = 1;
  // Assigned by the first listener; 0 until then.
  uint16_t port QREG_GUARDED_BY(mu) = 0;

  struct Listener {
    std::deque<int> accept_queue;  // Connection handles awaiting Accept().
  };

  struct Conn {
    FaultSchedule sched;
    size_t next_read_op = 0;
    size_t next_write_op = 0;

    std::deque<uint8_t> to_server;  // Client → server, not yet read.
    std::vector<uint8_t> to_client;  // Server → client, not yet taken.
    bool client_write_closed = false;
    bool reset = false;          // ECONNRESET on every further server I/O.
    bool server_closed = false;  // Server called Close() on its handle.
  };

  std::map<int, Listener> listeners QREG_GUARDED_BY(mu);
  std::map<int, Conn> conns QREG_GUARDED_BY(mu);
  // Round-robin cursor over listeners for Connect().
  size_t accept_rr QREG_GUARDED_BY(mu) = 0;
  // Bumped by SimTransport::Poke(); every backend whose last-seen value
  // differs returns from Wait() immediately (virtual-time wakeup).
  uint64_t poke_seq QREG_GUARDED_BY(mu) = 0;
};

namespace {

using Op = FaultSchedule::Op;

// Pops the next scheduled op for a read or write call, if any.
const Op* NextOp(const std::vector<Op>& ops, size_t* cursor) {
  if (*cursor >= ops.size()) return nullptr;
  return &ops[(*cursor)++];
}

size_t IovTotal(const iovec* iov, int iovcnt) {
  size_t total = 0;
  for (int i = 0; i < iovcnt; ++i) total += iov[i].iov_len;
  return total;
}

}  // namespace

// ------------------------------------------------------------- SimBackend --

// One per-loop view onto the shared transport: its own interest table and
// wake flag, everything else in Shared. Methods other than Wake() run only
// on the owning loop thread (the EventBackend contract), but all state is
// mutex-guarded anyway because the test thread is the peer.
class SimBackend final : public EventBackend {
  using Shared = SimTransport::Shared;

 public:
  explicit SimBackend(Shared* shared) : shared_(shared) {}

  util::Status Init() override { return util::Status::OK(); }

  util::Result<int> OpenListener(const std::string& address, uint16_t port,
                                 bool /*reuse_port*/) override {
    // Every backend of one transport may listen on "the" port — the
    // SO_REUSEPORT-sharding analogue.
    (void)address;
    util::MutexLock lock(&shared_->mu);
    if (shared_->port == 0) {
      shared_->port = port != 0 ? port : 42000;  // Deterministic fake port.
    }
    const int handle = shared_->next_handle++;
    shared_->listeners.emplace(handle, Shared::Listener{});
    return handle;
  }

  util::Result<uint16_t> ListenerPort(int /*listener*/) override {
    util::MutexLock lock(&shared_->mu);
    return shared_->port;
  }

  int Accept(int listener) override {
    util::MutexLock lock(&shared_->mu);
    auto it = shared_->listeners.find(listener);
    if (it == shared_->listeners.end() || it->second.accept_queue.empty()) {
      return -1;
    }
    const int handle = it->second.accept_queue.front();
    it->second.accept_queue.pop_front();
    return handle;
  }

  void UpdateInterest(int handle, bool want_read, bool want_write) override {
    util::MutexLock lock(&shared_->mu);
    interests_[handle] = {want_read, want_write};
  }

  void Deregister(int handle) override {
    util::MutexLock lock(&shared_->mu);
    interests_.erase(handle);
  }

  util::Status Wait(int timeout_ms, std::vector<ReadyEvent>* events) override {
    events->clear();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    util::MutexLock lock(&shared_->mu);
    for (;;) {
      Collect(events);
      if (!events->empty()) return util::Status::OK();
      if (wake_flag_) {
        wake_flag_ = false;
        return util::Status::OK();
      }
      if (seen_poke_ != shared_->poke_seq) {
        seen_poke_ = shared_->poke_seq;
        return util::Status::OK();  // Empty events: the loop re-reads time.
      }
      // Re-derived each pass so spurious wakeups never extend the deadline.
      const int64_t remaining_nanos =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (timeout_ms <= 0 || remaining_nanos <= 0 ||
          !shared_->cv.WaitFor(&shared_->mu, remaining_nanos)) {
        return util::Status::OK();
      }
    }
  }

  void Wake() override {
    util::MutexLock lock(&shared_->mu);
    wake_flag_ = true;
    shared_->cv.NotifyAll();
  }

  IoResult Read(int handle, const iovec* iov, int iovcnt) override {
    util::MutexLock lock(&shared_->mu);
    auto it = shared_->conns.find(handle);
    if (it == shared_->conns.end()) return IoResult::Error(EBADF);
    Shared::Conn& c = it->second;
    if (c.reset) return IoResult::Error(ECONNRESET);

    size_t cap = c.sched.default_read_cap != 0
                     ? c.sched.default_read_cap
                     : std::numeric_limits<size_t>::max();
    if (const Op* op = NextOp(c.sched.reads, &c.next_read_op)) {
      switch (op->kind) {
        case Op::Kind::kWouldBlock:
          return IoResult::WouldBlock();
        case Op::Kind::kReset:
          c.reset = true;
          shared_->cv.NotifyAll();
          return IoResult::Error(ECONNRESET);
        case Op::Kind::kDeliver:
          cap = op->max_bytes;
          break;
      }
    }

    const size_t n =
        std::min({cap, c.to_server.size(), IovTotal(iov, iovcnt)});
    if (n == 0) {
      return c.client_write_closed ? IoResult::Eof() : IoResult::WouldBlock();
    }
    size_t copied = 0;
    for (int i = 0; i < iovcnt && copied < n; ++i) {
      uint8_t* dst = static_cast<uint8_t*>(iov[i].iov_base);
      const size_t take = std::min(n - copied, iov[i].iov_len);
      std::copy_n(c.to_server.begin(), take, dst);
      c.to_server.erase(c.to_server.begin(),
                        c.to_server.begin() + static_cast<ptrdiff_t>(take));
      copied += take;
    }
    return IoResult::Ok(copied);
  }

  IoResult Write(int handle, const uint8_t* data, size_t n) override {
    util::MutexLock lock(&shared_->mu);
    auto it = shared_->conns.find(handle);
    if (it == shared_->conns.end()) return IoResult::Error(EBADF);
    Shared::Conn& c = it->second;
    if (c.reset) return IoResult::Error(ECONNRESET);

    size_t cap = c.sched.default_write_cap != 0
                     ? c.sched.default_write_cap
                     : std::numeric_limits<size_t>::max();
    if (const Op* op = NextOp(c.sched.writes, &c.next_write_op)) {
      switch (op->kind) {
        case Op::Kind::kWouldBlock:
          return IoResult::WouldBlock();
        case Op::Kind::kReset:
          c.reset = true;
          shared_->cv.NotifyAll();
          return IoResult::Error(ECONNRESET);
        case Op::Kind::kDeliver:
          cap = op->max_bytes;
          break;
      }
    } else if (c.sched.stall_writes) {
      // The scripted reader stopped reading: park every write until the
      // test calls ResumeWrites().
      return IoResult::WouldBlock();
    }

    const size_t take = std::min(cap, n);
    if (take == 0) return IoResult::WouldBlock();
    c.to_client.insert(c.to_client.end(), data, data + take);
    shared_->cv.NotifyAll();  // Wake a test blocked in WaitForFromServer.
    return IoResult::Ok(take);
  }

  void Close(int handle) override {
    util::MutexLock lock(&shared_->mu);
    if (shared_->listeners.erase(handle) > 0) {
      shared_->cv.NotifyAll();
      return;
    }
    auto it = shared_->conns.find(handle);
    if (it != shared_->conns.end()) {
      it->second.server_closed = true;
      shared_->cv.NotifyAll();  // Wake a test blocked in WaitForServerClose.
    }
  }

 private:
  struct Interest {
    bool read = false;
    bool write = false;
  };

  // Readiness under the lock. A connection is readable when bytes (or EOF,
  // or a reset) are observable, or when its next scheduled read op is a
  // fault that must fire (kWouldBlock/kReset) — spurious readiness is the
  // whole point of those ops. Writable is simply "the loop wants to write":
  // the write call itself consumes the scheduled fault. Results are sorted
  // listeners-first, then by (readiness_rank, handle) — the scripted
  // readiness reorder.
  void Collect(std::vector<ReadyEvent>* events) QREG_REQUIRES(shared_->mu) {
    struct Ranked {
      int rank;
      ReadyEvent ev;
    };
    std::vector<Ranked> ranked;
    for (const auto& entry : interests_) {
      const int handle = entry.first;
      const Interest& want = entry.second;
      auto lit = shared_->listeners.find(handle);
      if (lit != shared_->listeners.end()) {
        if (want.read && !lit->second.accept_queue.empty()) {
          ReadyEvent ev;
          ev.handle = handle;
          ev.readable = true;
          ranked.push_back({std::numeric_limits<int>::min(), ev});
        }
        continue;
      }
      auto cit = shared_->conns.find(handle);
      if (cit == shared_->conns.end()) continue;
      const Shared::Conn& c = cit->second;
      ReadyEvent ev;
      ev.handle = handle;
      if (want.read) {
        const bool fault_pending =
            c.next_read_op < c.sched.reads.size() &&
            c.sched.reads[c.next_read_op].kind != Op::Kind::kDeliver;
        ev.readable = !c.to_server.empty() || c.client_write_closed ||
                      c.reset || fault_pending;
      }
      if (want.write) {
        // A stalled peer mirrors a full kernel socket buffer: the
        // connection is *not* writable until ResumeWrites(), exactly as
        // epoll would withhold EPOLLOUT — otherwise a parked writer would
        // busy-spin the loop.
        const bool stalled = c.sched.stall_writes &&
                             c.next_write_op >= c.sched.writes.size() &&
                             !c.reset;
        ev.writable = !stalled;
      }
      if (ev.readable || ev.writable) {
        ranked.push_back({c.sched.readiness_rank, ev});
      }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) {
                if (a.rank != b.rank) return a.rank < b.rank;
                return a.ev.handle < b.ev.handle;
              });
    for (Ranked& r : ranked) events->push_back(r.ev);
  }

  Shared* shared_;
  std::unordered_map<int, Interest> interests_ QREG_GUARDED_BY(shared_->mu);
  bool wake_flag_ QREG_GUARDED_BY(shared_->mu) = false;
  uint64_t seen_poke_ QREG_GUARDED_BY(shared_->mu) = 0;
};

// ------------------------------------------------------------ SimTransport --

SimTransport::SimTransport() : shared_(std::make_unique<Shared>()) {}
SimTransport::~SimTransport() = default;

std::unique_ptr<EventBackend> SimTransport::CreateBackend() {
  return std::make_unique<SimBackend>(shared_.get());
}

SimConn* SimTransport::Connect(FaultSchedule schedule) {
  util::MutexLock lock(&shared_->mu);
  if (shared_->listeners.empty()) return nullptr;
  const int handle = shared_->next_handle++;
  Shared::Conn conn;
  conn.sched = std::move(schedule);
  shared_->conns.emplace(handle, std::move(conn));
  // Deterministic accept sharding: round-robin over listeners in handle
  // order.
  auto lit = shared_->listeners.begin();
  std::advance(lit, static_cast<ptrdiff_t>(shared_->accept_rr++ %
                                           shared_->listeners.size()));
  lit->second.accept_queue.push_back(handle);
  shared_->cv.NotifyAll();
  conns_.push_back(std::unique_ptr<SimConn>(new SimConn(this, handle)));
  return conns_.back().get();
}

size_t SimTransport::num_listeners() const {
  util::MutexLock lock(&shared_->mu);
  return shared_->listeners.size();
}

void SimTransport::Poke() {
  util::MutexLock lock(&shared_->mu);
  ++shared_->poke_seq;
  shared_->cv.NotifyAll();
}

// ---------------------------------------------------------------- SimConn --

void SimConn::SendToServer(const std::vector<uint8_t>& bytes) {
  SendToServer(bytes.data(), bytes.size());
}

void SimConn::SendToServer(const uint8_t* data, size_t n) {
  SimTransport::Shared* shared = transport_->shared_.get();
  util::MutexLock lock(&shared->mu);
  auto it = shared->conns.find(handle_);
  if (it == shared->conns.end() || it->second.reset ||
      it->second.client_write_closed) {
    return;  // Writing into a dead or half-closed connection: bytes vanish.
  }
  it->second.to_server.insert(it->second.to_server.end(), data, data + n);
  shared->cv.NotifyAll();
}

void SimConn::CloseWrite() {
  SimTransport::Shared* shared = transport_->shared_.get();
  util::MutexLock lock(&shared->mu);
  auto it = shared->conns.find(handle_);
  if (it == shared->conns.end()) return;
  it->second.client_write_closed = true;
  shared->cv.NotifyAll();
}

void SimConn::Reset() {
  SimTransport::Shared* shared = transport_->shared_.get();
  util::MutexLock lock(&shared->mu);
  auto it = shared->conns.find(handle_);
  if (it == shared->conns.end()) return;
  it->second.reset = true;
  shared->cv.NotifyAll();
}

void SimConn::ResumeWrites() {
  SimTransport::Shared* shared = transport_->shared_.get();
  util::MutexLock lock(&shared->mu);
  auto it = shared->conns.find(handle_);
  if (it == shared->conns.end()) return;
  it->second.sched.stall_writes = false;
  shared->cv.NotifyAll();
}

std::vector<uint8_t> SimConn::TakeFromServer() {
  SimTransport::Shared* shared = transport_->shared_.get();
  util::MutexLock lock(&shared->mu);
  auto it = shared->conns.find(handle_);
  if (it == shared->conns.end()) return {};
  std::vector<uint8_t> out;
  out.swap(it->second.to_client);
  return out;
}

size_t SimConn::from_server_bytes() const {
  SimTransport::Shared* shared = transport_->shared_.get();
  util::MutexLock lock(&shared->mu);
  auto it = shared->conns.find(handle_);
  return it == shared->conns.end() ? 0 : it->second.to_client.size();
}

bool SimConn::WaitForFromServer(size_t min_bytes, int timeout_ms) {
  SimTransport::Shared* shared = transport_->shared_.get();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  util::MutexLock lock(&shared->mu);
  for (;;) {
    auto it = shared->conns.find(handle_);
    if (it != shared->conns.end() && it->second.to_client.size() >= min_bytes) {
      return true;
    }
    const int64_t remaining_nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (remaining_nanos <= 0) return false;
    shared->cv.WaitFor(&shared->mu, remaining_nanos);
  }
}

bool SimConn::WaitForServerClose(int timeout_ms) {
  SimTransport::Shared* shared = transport_->shared_.get();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  util::MutexLock lock(&shared->mu);
  for (;;) {
    auto it = shared->conns.find(handle_);
    if (it != shared->conns.end() && it->second.server_closed) return true;
    const int64_t remaining_nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (remaining_nanos <= 0) return false;
    shared->cv.WaitFor(&shared->mu, remaining_nanos);
  }
}

bool SimConn::server_closed() const {
  SimTransport::Shared* shared = transport_->shared_.get();
  util::MutexLock lock(&shared->mu);
  auto it = shared->conns.find(handle_);
  return it != shared->conns.end() && it->second.server_closed;
}

}  // namespace net
}  // namespace qreg
