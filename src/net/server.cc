#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/uio.h>

#include <cstddef>
#include <optional>
#include <utility>

#include "net/backend_sim.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace qreg {
namespace net {

namespace {

// One decoded, admission-mapped request awaiting execution.
struct PendingRequest {
  uint64_t request_id = 0;
  service::Request request;
};

// Chunks gathered into one flush call. Well under IOV_MAX everywhere.
constexpr size_t kMaxIov = 64;

// Encodes one request's response frame in place: its answer, or its typed
// failure.
void AppendResultFrame(std::vector<uint8_t>* out, uint64_t request_id,
                       const service::ExecResult& result) {
  if (result.ok()) {
    AppendAnswerFrame(out, request_id, *result);
  } else {
    AppendStatusFrame(out, request_id, result.status());
  }
}

}  // namespace

std::string Endpoint::ToString() const {
  return util::Format("%s:%u", address.c_str(), port);
}

util::Status ServerConfig::Validate() const {
  if (executor_threads == 0) {
    return util::Status::InvalidArgument(
        "ServerConfig: executor_threads must be >= 1 (the event loops answer "
        "only model-routed queries themselves)");
  }
  if (event_loops == 0 || event_loops > kMaxEventLoops) {
    return util::Status::InvalidArgument(
        util::Format("ServerConfig: event_loops must be in [1, %zu] (got %zu)",
                     kMaxEventLoops, event_loops));
  }
  sockaddr_in probe{};
  if (inet_pton(AF_INET, bind_address.c_str(), &probe.sin_addr) != 1) {
    return util::Status::InvalidArgument("ServerConfig: bad bind address: " +
                                         bind_address);
  }
  if (max_connections == 0) {
    return util::Status::InvalidArgument(
        "ServerConfig: max_connections must be >= 1");
  }
  if (max_pipeline == 0) {
    return util::Status::InvalidArgument(
        "ServerConfig: max_pipeline must be >= 1 (0 would shed every "
        "request)");
  }
  if (drain_timeout_millis < 0) {
    return util::Status::InvalidArgument(
        util::Format("ServerConfig: drain_timeout_millis must be >= 0 "
                     "(got %lld)",
                     static_cast<long long>(drain_timeout_millis)));
  }
  if (idle_timeout_millis < 0) {
    return util::Status::InvalidArgument(
        util::Format("ServerConfig: idle_timeout_millis must be >= 0 "
                     "(0 disables; got %lld)",
                     static_cast<long long>(idle_timeout_millis)));
  }
  if (read_progress_timeout_millis < 0) {
    return util::Status::InvalidArgument(util::Format(
        "ServerConfig: read_progress_timeout_millis must be >= 0 "
        "(0 disables; got %lld)",
        static_cast<long long>(read_progress_timeout_millis)));
  }
  if (max_loop_pending_write_bytes > 0 &&
      max_conn_pending_write_bytes > max_loop_pending_write_bytes) {
    return util::Status::InvalidArgument(util::Format(
        "ServerConfig: max_conn_pending_write_bytes (%zu) must not exceed "
        "max_loop_pending_write_bytes (%zu) when both caps are set — one "
        "connection could otherwise never hit its own cap",
        max_conn_pending_write_bytes, max_loop_pending_write_bytes));
  }
  if (backend == BackendKind::kSim && sim == nullptr) {
    return util::Status::InvalidArgument(
        "ServerConfig: backend == kSim requires a SimTransport in `sim`");
  }
  return util::Status::OK();
}

struct Server::Connection {
  uint64_t id = 0;  // Loop-local (each loop numbers its own connections).
  int handle = -1;  // Backend handle (an fd for the real backends).
  FrameDecoder decoder;

  // Output: a queue of encoded response chunks (arena buffers from executor
  // completions, plus the loop's own staging buffer once committed), flushed
  // with one scatter-gather backend Write per burst. out_pos is the
  // already-flushed prefix of the *front* chunk.
  std::deque<std::vector<uint8_t>> outq;
  size_t out_pos = 0;
  // Loop-side frames: answers the loop served itself, pongs, error frames.
  std::vector<uint8_t> loop_out;

  std::vector<PendingRequest> pending;
  size_t in_flight = 0;  // Requests inside the currently-executing batch.
  bool read_closed = false;
  bool close_after_flush = false;

  // Interest last pushed to the backend (so the loop upserts only changes).
  bool want_read = false;
  bool want_write = false;

  // --- lifecycle state (all on the config clock) ---
  int64_t last_activity_nanos = 0;  // Last byte in/out or batch completion.
  int64_t frame_start_nanos = 0;    // When the buffered partial frame began.
  bool mid_frame = false;           // Decoder holds an incomplete frame.
  bool evicted = false;             // Backpressure eviction in progress.
  int64_t evicted_nanos = 0;
  uint64_t timer_gen = 0;       // Bumped on every arm (lazy invalidation).
  int64_t armed_deadline = -1;  // Live wheel-entry key; -1 = not armed.
  size_t pending_out = 0;       // Cached pending write bytes (accounting).

  Connection(uint64_t id_in, int handle_in)
      : id(id_in), handle(handle_in), decoder(kMaxPayloadBytes) {}

  size_t outstanding() const { return pending.size() + in_flight; }
  bool flushed() const { return outq.empty() && loop_out.empty(); }
};

struct Server::BatchJob {
  size_t loop_index = 0;
  uint64_t conn_id = 0;
  std::vector<PendingRequest> items;
  std::vector<uint8_t> buf;  // Arena buffer the executor encodes into.
};

struct Server::Completion {
  uint64_t conn_id = 0;
  size_t num_requests = 0;
  std::vector<uint8_t> bytes;  // The job's arena buffer, now full of frames.
};

Server::Loop::Loop() = default;
Server::Loop::~Loop() = default;

Server::Server(service::QueryRouter* router, ServerConfig config)
    : router_(router), config_(std::move(config)), stats_(router->stats_sink()) {}

Server::~Server() { Shutdown(); }

util::Result<Endpoint> Server::Start() {
  if (state_.load() != State::kIdle) {
    return util::Status::FailedPrecondition("net::Server is single-use");
  }
  // Typed config errors before any socket syscall.
  QREG_RETURN_NOT_OK(config_.Validate());

  const size_t nloops = config_.event_loops;
  loops_.clear();
  loops_.reserve(nloops);
  for (size_t i = 0; i < nloops; ++i) {
    loops_.push_back(std::make_unique<Loop>());
    loops_.back()->index = i;
  }

  auto cleanup = [this] {
    for (auto& loop : loops_) {
      if (loop->listen_h >= 0 && loop->backend) {
        loop->backend->Close(loop->listen_h);
      }
    }
    loops_.clear();
  };

  // Listener topology: every loop gets its own listener on the same
  // endpoint — SO_REUSEPORT when there is more than one, so the kernel
  // shards accepts. Loop 0's bind resolves an ephemeral port; the siblings
  // bind that port concretely. Any refusal closes what was opened.
  const bool reuse_port = nloops > 1;
  uint16_t port = config_.port;
  auto open_listener = [&](Loop* loop) -> util::Status {
    loop->backend = config_.backend == BackendKind::kSim
                        ? config_.sim->CreateBackend()
                        : CreateEpollBackend();
    QREG_RETURN_NOT_OK(loop->backend->Init());
    QREG_ASSIGN_OR_RETURN(loop->listen_h, loop->backend->OpenListener(
                                              config_.bind_address, port,
                                              reuse_port));
    if (loop->index == 0) {
      QREG_ASSIGN_OR_RETURN(port, loop->backend->ListenerPort(loop->listen_h));
    }
    return util::Status::OK();
  };
  for (auto& loop : loops_) {
    const util::Status st = open_listener(loop.get());
    if (!st.ok()) {
      cleanup();
      return st;
    }
  }

  state_.store(State::kRunning);
  // Unbounded queue: the event loops must never block on Submit(), and one
  // batch in flight per live connection already bounds it.
  executors_ = std::make_unique<util::ThreadPool>(config_.executor_threads,
                                                  SIZE_MAX);
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    l->thread = std::thread([this, l] { EventLoop(l); });
  }
  return Endpoint{config_.bind_address, port};
}

void Server::Shutdown() {
  util::MutexLock lock(&shutdown_mu_);
  if (state_.load() == State::kIdle) {
    state_.store(State::kStopped);
    return;
  }
  if (state_.load() == State::kStopped) return;

  shutdown_requested_.store(true);
  for (auto& loop : loops_) WakeLoop(loop.get());
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }

  // The loops are joined, so nothing submits any more; destroying the pool
  // runs every queued job before its workers exit.
  executors_.reset();

  for (auto& loop : loops_) {
    if (loop->listen_h >= 0) {
      loop->backend->Deregister(loop->listen_h);
      loop->backend->Close(loop->listen_h);
      loop->listen_h = -1;
    }
    // Completions that arrived after the loop exited (executors drain every
    // queued job before stopping): their buffers still go home to the arena,
    // preserving acquired() == released() no matter how shutdown raced.
    util::MutexLock done_lock(&loop->done_mu);
    for (Completion& done : loop->done) {
      loop->arena.Release(std::move(done.bytes));
    }
    loop->done.clear();
  }
  state_.store(State::kStopped);
}

void Server::WakeLoop(Loop* loop) {
  if (loop->backend) loop->backend->Wake();
}

// --------------------------------------------------------------- executors --

void Server::RunBatch(BatchJob* job) {
  std::vector<service::Request> batch;
  batch.reserve(job->items.size());
  for (PendingRequest& item : job->items) {
    batch.push_back(std::move(item.request));
  }
  const std::vector<service::ExecResult> results =
      router_->ExecuteBatch(batch);

  // Arena encode: every response frame of the batch lands in place in the
  // job's connection-owned buffer — no per-frame payload allocations. The
  // buffer rides the completion back to the loop that lent it.
  Completion done;
  done.conn_id = job->conn_id;
  done.num_requests = job->items.size();
  done.bytes = std::move(job->buf);
  for (size_t i = 0; i < results.size() && i < job->items.size(); ++i) {
    AppendResultFrame(&done.bytes, job->items[i].request_id, results[i]);
  }
  // A wake is owed only to an empty queue: the loop takes the whole queue
  // at once, so a completion pushed behind another rides the wake the
  // first one already sent.
  Loop* loop = loops_[job->loop_index].get();
  bool wake = false;
  {
    util::MutexLock lock(&loop->done_mu);
    wake = loop->done.empty();
    loop->done.push_back(std::move(done));
  }
  if (wake) WakeLoop(loop);
}

// -------------------------------------------------------------- event loop --

void Server::EventLoop(Loop* loop) {
  bool draining = false;
  int64_t drain_start_nanos = 0;

  if (loop->listen_h >= 0) {
    loop->backend->UpdateInterest(loop->listen_h, /*want_read=*/true,
                                  /*want_write=*/false);
  }

  std::vector<ReadyEvent> events;
  for (;;) {
    // Enter drain mode once: stop accepting and stop reading new frames;
    // everything already decoded still gets executed and flushed. Each loop
    // drains independently — there is no cross-loop barrier to stall on.
    if (!draining && shutdown_requested_.load()) {
      draining = true;
      drain_start_nanos = Now();
      if (loop->listen_h >= 0) {
        loop->backend->Deregister(loop->listen_h);
        loop->backend->Close(loop->listen_h);
        loop->listen_h = -1;
      }
      service::NetActivity activity;
      for (auto& entry : loop->conns) {
        entry.second->read_closed = true;
        entry.second->close_after_flush = true;
        DispatchIfReady(loop, entry.second.get(), &activity);
      }
      if (!activity.empty()) stats_->RecordNet(loop->index, activity);
    }

    // Reap connections that are finished: nothing pending, nothing in
    // flight, every response flushed.
    {
      std::vector<uint64_t> done_ids;
      for (auto& entry : loop->conns) {
        Connection* c = entry.second.get();
        if ((c->read_closed || c->close_after_flush) && c->pending.empty() &&
            c->in_flight == 0 && c->flushed()) {
          done_ids.push_back(c->id);
        }
      }
      for (uint64_t id : done_ids) CloseConnection(loop, id);
    }

    if (draining) {
      const bool timed_out =
          Now() - drain_start_nanos > config_.drain_timeout_millis * 1000000;
      if (loop->conns.empty()) break;
      if (timed_out) {
        std::vector<uint64_t> ids;
        ids.reserve(loop->conns.size());
        for (auto& entry : loop->conns) ids.push_back(entry.first);
        for (uint64_t id : ids) CloseConnection(loop, id);
        break;
      }
    }

    // Lifecycle timers: close every connection whose deadline (idle,
    // read-progress, or eviction grace) has passed on the config clock.
    // Skipped while draining — drain has its own timeout and force-close.
    const int64_t now_nanos = Now();
    if (!draining) ProcessTimers(loop, now_nanos);

    // Interest maintenance: push only *changes* to the backend (for epoll
    // that keeps the epoll_ctl traffic proportional to state transitions,
    // not to the connection count).
    for (auto& entry : loop->conns) {
      Connection* c = entry.second.get();
      const bool want_read = !c->read_closed;
      const bool want_write = !c->flushed();
      if (want_read != c->want_read || want_write != c->want_write) {
        c->want_read = want_read;
        c->want_write = want_write;
        loop->backend->UpdateInterest(c->handle, want_read, want_write);
      }
    }

    // Sleep exactly until the next timer expiry (no polling tick); 500ms is
    // only the fallback when no deadline is armed. Stale wheel entries can
    // only wake us *early* — ProcessTimers drops them and rearms.
    int timeout_ms = draining ? 20 : 500;
    if (!draining && !loop->timers.empty()) {
      const int64_t remaining = loop->timers.begin()->first - now_nanos;
      int64_t ms = remaining <= 0 ? 0 : (remaining + 999999) / 1000000;
      if (ms > 3600000) ms = 3600000;  // Bound the int conversion.
      timeout_ms = static_cast<int>(ms);
    }
    if (!loop->backend->Wait(timeout_ms, &events).ok()) break;

    // Completed batches → connection output queues (the arena buffer each
    // executor filled comes home here), flushed eagerly while the socket is
    // almost certainly writable.
    {
      std::deque<Completion>& finished = loop->finished;
      {
        util::MutexLock lock(&loop->done_mu);
        finished.swap(loop->done);
      }
      const int64_t done_nanos = Now();
      for (Completion& done : finished) {
        auto it = loop->conns.find(done.conn_id);
        if (it == loop->conns.end()) {
          // Connection died mid-batch: the response is undeliverable, but
          // the buffer still goes home (acquired() == released()).
          loop->arena.Release(std::move(done.bytes));
          continue;
        }
        Connection* c = it->second.get();
        c->in_flight -= std::min(c->in_flight, done.num_requests);
        if (!done.bytes.empty() && !c->evicted) {
          c->outq.push_back(std::move(done.bytes));
        } else {
          // Empty batch, or an evicted peer that will never read it.
          loop->arena.Release(std::move(done.bytes));
        }
        c->last_activity_nanos = done_nanos;
        service::NetActivity activity;
        DispatchIfReady(loop, c, &activity);
        if (!activity.empty()) stats_->RecordNet(loop->index, activity);
        FlushWrites(loop, c);  // May close c.
        it = loop->conns.find(done.conn_id);
        if (it != loop->conns.end()) MaybeEvict(loop, it->second.get());
        it = loop->conns.find(done.conn_id);
        if (it != loop->conns.end()) {
          RescheduleTimer(loop, it->second.get(), done_nanos);
        }
      }
      finished.clear();
    }

    for (const ReadyEvent& ev : events) {
      if (loop->listen_h >= 0 && ev.handle == loop->listen_h) {
        if (ev.readable) AcceptNew(loop);
        continue;
      }
      auto hit = loop->by_handle.find(ev.handle);
      if (hit == loop->by_handle.end()) continue;
      const uint64_t id = hit->second;
      if (ev.error) {
        CloseConnection(loop, id);
        continue;
      }
      if (ev.readable || ev.hangup) {
        auto it = loop->conns.find(id);
        if (it != loop->conns.end()) HandleReadable(loop, it->second.get());
      }
      auto it = loop->conns.find(id);
      if (it != loop->conns.end() && !it->second->flushed()) {
        FlushWrites(loop, it->second.get());
      }
    }
  }
}

void Server::RegisterConnection(Loop* loop, int handle) {
  const uint64_t id = loop->next_conn_id++;
  auto conn = std::make_unique<Connection>(id, handle);
  conn->last_activity_nanos = Now();
  Connection* raw = conn.get();
  loop->conns.emplace(id, std::move(conn));
  loop->by_handle[handle] = id;
  RescheduleTimer(loop, raw, raw->last_activity_nanos);  // Arm the idle timer.
}

void Server::AcceptNew(Loop* loop) {
  service::NetActivity activity;
  for (;;) {
    const int h = loop->backend->Accept(loop->listen_h);
    if (h < 0) break;  // Nothing pending: wait for the next readiness.
    // Global connection cap: one shared atomic across all loops, so N loops
    // cannot collectively accept N× the limit. fetch_add claims a slot;
    // losing the claim means refuse at the door.
    if (open_conns_.fetch_add(1, std::memory_order_relaxed) >=
        config_.max_connections) {
      open_conns_.fetch_sub(1, std::memory_order_relaxed);
      loop->backend->Close(h);
      continue;
    }
    ++activity.connections_accepted;
    RegisterConnection(loop, h);
  }
  if (!activity.empty()) stats_->RecordNet(loop->index, activity);
}

// The loop-side staging buffer for small frames the loop itself emits
// (pongs, protocol-error frames); committed into the output queue by
// FlushWrites so it rides the same scatter-gather path as batch responses.
static std::vector<uint8_t>* StagedOut(WireArena* arena,
                                       std::vector<uint8_t>* staged) {
  if (staged->empty()) *staged = arena->Acquire();
  return staged;
}

void Server::HandleReadable(Loop* loop, Connection* conn) {
  const uint64_t conn_id = conn->id;
  const int64_t now = Now();
  service::NetActivity activity;
  // Two scatter segments per backend Read (readv on the real backends): a
  // burst larger than one buffer still lands in a single call.
  uint8_t buf_a[65536];
  uint8_t buf_b[65536];
  for (;;) {
    iovec iov[2] = {{buf_a, sizeof(buf_a)}, {buf_b, sizeof(buf_b)}};
    const IoResult r = loop->backend->Read(conn->handle, iov, 2);
    if (r.kind == IoResult::Kind::kOk) {
      activity.bytes_in += r.bytes;
      conn->last_activity_nanos = now;
      conn->decoder.Feed(buf_a, std::min(r.bytes, sizeof(buf_a)));
      if (r.bytes > sizeof(buf_a)) {
        conn->decoder.Feed(buf_b, r.bytes - sizeof(buf_a));
      }
      // A short read means the input is drained for now.
      if (r.bytes < sizeof(buf_a) + sizeof(buf_b)) break;
      continue;
    }
    if (r.kind == IoResult::Kind::kEof) {
      conn->read_closed = true;
      break;
    }
    if (r.kind == IoResult::Kind::kWouldBlock) break;
    // Hard read error: the peer is gone; drop what cannot be delivered.
    if (!activity.empty()) stats_->RecordNet(loop->index, activity);
    CloseConnection(loop, conn->id);
    return;
  }

  Frame& frame = loop->frame;
  size_t frames_this_call = 0;
  for (;;) {
    const FrameDecoder::Event event = conn->decoder.Next(&frame);
    if (event == FrameDecoder::Event::kFrame) {
      ++activity.frames_decoded;
      ++frames_this_call;
      HandleFrame(loop, conn, frame);
      continue;
    }
    if (event == FrameDecoder::Event::kError) {
      // Defined protocol-error state: report the typed error on request_id 0,
      // flush everything already owed, then close. Never resync on garbage.
      ++activity.protocol_errors;
      AppendStatusFrame(StagedOut(&loop->arena, &conn->loop_out), 0,
                        conn->decoder.error());
      conn->read_closed = true;
      conn->close_after_flush = true;
    }
    break;  // kNeedMore or kError.
  }

  // Read-progress tracking: the window anchors at the *start* of the
  // buffered partial frame. A frame decoded this call means any leftover
  // partial belongs to a new frame, so the anchor resets; a byte-drip that
  // completes nothing does not move it.
  const bool was_mid = conn->mid_frame;
  conn->mid_frame = !conn->read_closed && !conn->decoder.poisoned() &&
                    conn->decoder.buffered_bytes() > 0;
  if (conn->mid_frame && (!was_mid || frames_this_call > 0)) {
    conn->frame_start_nanos = now;
  }

  DispatchIfReady(loop, conn, &activity);
  if (!activity.empty()) stats_->RecordNet(loop->index, activity);
  FlushWrites(loop, conn);  // May close conn.
  auto it = loop->conns.find(conn_id);
  if (it != loop->conns.end()) MaybeEvict(loop, it->second.get());
  it = loop->conns.find(conn_id);
  if (it != loop->conns.end()) RescheduleTimer(loop, it->second.get(), now);
}

void Server::HandleFrame(Loop* loop, Connection* conn, const Frame& frame) {
  switch (frame.header.type) {
    case FrameType::kPing: {
      AppendFrame(StagedOut(&loop->arena, &conn->loop_out), FrameType::kPong,
                  frame.header.request_id, nullptr, 0);
      return;
    }
    case FrameType::kRequest: {
      util::Result<WireRequest> decoded =
          DecodeRequest(frame.payload.data(), frame.payload.size());
      if (!decoded.ok()) {
        // Payload-level error on an intact frame boundary: answer it and
        // keep the connection (the stream itself is still well-formed).
        service::NetActivity activity;
        ++activity.protocol_errors;
        stats_->RecordNet(loop->index, activity);
        AppendStatusFrame(StagedOut(&loop->arena, &conn->loop_out),
                          frame.header.request_id, decoded.status());
        return;
      }
      if (conn->outstanding() >= config_.max_pipeline) {
        // Server-side admission shed: bound the per-connection backlog with a
        // typed rejection, never an unbounded buffer or a closed socket.
        service::QueryOutcome outcome;
        outcome.ok = false;
        outcome.shed = true;
        stats_->Record(outcome);
        AppendStatusFrame(StagedOut(&loop->arena, &conn->loop_out),
                          frame.header.request_id,
                          util::Status::ResourceExhausted(util::Format(
                              "connection pipeline full (%zu in flight)",
                              conn->outstanding())));
        return;
      }
      PendingRequest pending;
      pending.request_id = frame.header.request_id;
      pending.request.dataset = std::move(decoded->dataset);
      pending.request.kind = decoded->kind;
      pending.request.q = std::move(decoded->q);
      if (decoded->deadline_budget_nanos > 0) {
        // Decode-time deadline mapping: the client's relative budget starts
        // ticking here, so admission rejection and the deadline fallback
        // see exactly what an in-process caller would have passed.
        pending.request.deadline = util::Deadline::AfterNanos(
            static_cast<int64_t>(decoded->deadline_budget_nanos), config_.clock);
      }
      conn->pending.push_back(std::move(pending));
      return;
    }
    default: {
      service::NetActivity activity;
      ++activity.protocol_errors;
      stats_->RecordNet(loop->index, activity);
      AppendStatusFrame(
          StagedOut(&loop->arena, &conn->loop_out), frame.header.request_id,
          util::Status::InvalidArgument(util::Format(
              "wire protocol: unexpected frame type %u from client",
              static_cast<unsigned>(frame.header.type))));
      return;
    }
  }
}

void Server::DispatchIfReady(Loop* loop, Connection* conn,
                             service::NetActivity* activity) {
  if (conn->evicted || conn->in_flight > 0 || conn->pending.empty()) return;
  // Run to completion: the loop answers the leading run of model-routed
  // requests itself, since a model answer costs less than the two thread
  // hand-offs of an executor round trip. The first request the router
  // declines ends the run; it and every request after it go to the
  // executors as one batch, so responses stay in request order.
  size_t served = 0;
  for (; served < conn->pending.size(); ++served) {
    const PendingRequest& item = conn->pending[served];
    const std::optional<service::ExecResult> result =
        router_->TryExecuteInline(item.request);
    if (!result) break;
    AppendResultFrame(StagedOut(&loop->arena, &conn->loop_out),
                      item.request_id, *result);
  }
  activity->answered_on_loop += static_cast<int64_t>(served);
  conn->pending.erase(
      conn->pending.begin(),
      conn->pending.begin() + static_cast<std::ptrdiff_t>(served));
  if (conn->pending.empty()) return;
  // The loop's staged frames go ahead of the batch's in the output queue.
  CommitStaged(conn);

  BatchJob job;
  job.loop_index = loop->index;
  job.conn_id = conn->id;
  job.items = std::move(conn->pending);
  conn->pending.clear();
  conn->in_flight = job.items.size();
  activity->dispatched_to_executors += static_cast<int64_t>(job.items.size());
  // The response buffer is lent to the executor here and comes back with
  // the completion; after the flush it returns to this loop's arena.
  job.buf = loop->arena.Acquire();
  executors_->Submit(
      [this, job = std::move(job)]() mutable { RunBatch(&job); });
}

void Server::CommitStaged(Connection* conn) {
  if (!conn->loop_out.empty()) {
    conn->outq.push_back(std::move(conn->loop_out));
    conn->loop_out.clear();
  }
}

void Server::FlushWrites(Loop* loop, Connection* conn) {
  // Commit the loop's staged frames so they flush in arrival order with the
  // batch responses.
  CommitStaged(conn);

  service::NetActivity activity;
  while (!conn->outq.empty()) {
    // Scatter-gather: one backend Write drains up to kMaxIov queued chunks —
    // a whole pipelined batch of response frames — instead of one write per
    // frame (sendmsg(MSG_NOSIGNAL) on the real backends).
    iovec iov[kMaxIov];
    size_t niov = 0;
    size_t skip = conn->out_pos;
    for (auto& chunk : conn->outq) {
      if (niov == kMaxIov) break;
      iov[niov].iov_base = chunk.data() + skip;
      iov[niov].iov_len = chunk.size() - skip;
      ++niov;
      skip = 0;
    }
    const IoResult r =
        loop->backend->Write(conn->handle, iov, static_cast<int>(niov));
    if (r.kind == IoResult::Kind::kOk) {
      activity.bytes_out += r.bytes;
      size_t left = r.bytes;
      while (left > 0) {
        std::vector<uint8_t>& front = conn->outq.front();
        const size_t avail = front.size() - conn->out_pos;
        if (left >= avail) {
          left -= avail;
          conn->out_pos = 0;
          loop->arena.Release(std::move(front));
          conn->outq.pop_front();
        } else {
          conn->out_pos += left;
          left = 0;
        }
      }
      continue;
    }
    if (r.kind == IoResult::Kind::kWouldBlock) break;
    // Write error (or a nonsensical EOF): the peer is unreachable.
    if (!activity.empty()) stats_->RecordNet(loop->index, activity);
    CloseConnection(loop, conn->id);
    return;
  }
  if (!activity.empty()) {
    stats_->RecordNet(loop->index, activity);
    conn->last_activity_nanos = Now();
  }
  UpdatePendingAccounting(loop, conn);
}

void Server::CloseConnection(Loop* loop, uint64_t id) {
  auto it = loop->conns.find(id);
  if (it == loop->conns.end()) return;
  Connection* c = it->second.get();
  loop->backend->Deregister(c->handle);
  loop->backend->Close(c->handle);
  loop->by_handle.erase(c->handle);
  // Unflushed chunks — the committed queue *and* the uncommitted staging
  // buffer — go home to the arena, not to the allocator.
  for (std::vector<uint8_t>& chunk : c->outq) {
    loop->arena.Release(std::move(chunk));
  }
  if (!c->loop_out.empty()) {
    loop->arena.Release(std::move(c->loop_out));
  }
  loop->pending_out_total -= c->pending_out;
  loop->conns.erase(it);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  service::NetActivity activity;
  ++activity.connections_closed;
  stats_->RecordNet(loop->index, activity);
}

// --------------------------------------------- lifecycle timers & eviction --

int64_t Server::Now() const {
  return (config_.clock != nullptr ? *config_.clock
                                   : util::SystemClock::Default())
      .NowNanos();
}

int64_t Server::NextDeadline(const Connection& c, int64_t now) const {
  if (c.evicted) {
    // Goodbye grace: a reader slow enough to be evicted may never take the
    // going-away frame; bound how long we hold the slot open for it.
    const int64_t grace_millis = config_.read_progress_timeout_millis > 0
                                     ? config_.read_progress_timeout_millis
                                     : config_.idle_timeout_millis;
    return grace_millis > 0 ? c.evicted_nanos + grace_millis * 1000000 : -1;
  }
  if (c.read_closed || c.close_after_flush) {
    // Finishing: the reap loop closes it once flushed. The idle window still
    // bounds a peer that never drains its last responses.
    return config_.idle_timeout_millis > 0
               ? c.last_activity_nanos + config_.idle_timeout_millis * 1000000
               : -1;
  }
  if (c.mid_frame && config_.read_progress_timeout_millis > 0) {
    return c.frame_start_nanos + config_.read_progress_timeout_millis * 1000000;
  }
  if (config_.idle_timeout_millis > 0) {
    const int64_t idle = config_.idle_timeout_millis * 1000000;
    // Busy connections are not idle; re-examine one window from now.
    if (c.outstanding() > 0 || !c.flushed()) return now + idle;
    return c.last_activity_nanos + idle;
  }
  return -1;
}

void Server::ArmTimer(Loop* loop, Connection* conn, int64_t deadline) {
  conn->armed_deadline = deadline;
  loop->timers.emplace(deadline, TimerEntry{conn->id, ++conn->timer_gen});
}

void Server::RescheduleTimer(Loop* loop, Connection* conn, int64_t now) {
  const int64_t desired = NextDeadline(*conn, now);
  if (desired < 0) return;  // A stale armed entry no-ops at pop time.
  if (conn->armed_deadline < 0 || desired < conn->armed_deadline) {
    ArmTimer(loop, conn, desired);
  }
}

void Server::ProcessTimers(Loop* loop, int64_t now) {
  service::NetActivity activity;
  while (!loop->timers.empty() && loop->timers.begin()->first <= now) {
    const TimerEntry entry = loop->timers.begin()->second;
    loop->timers.erase(loop->timers.begin());
    auto it = loop->conns.find(entry.conn_id);
    if (it == loop->conns.end()) continue;    // Connection already gone.
    Connection* c = it->second.get();
    if (entry.gen != c->timer_gen) continue;  // Rearmed since; stale.
    c->armed_deadline = -1;
    const int64_t desired = NextDeadline(*c, now);
    if (desired < 0) continue;
    if (desired > now) {
      // The connection made progress since arming; push the deadline out.
      ArmTimer(loop, c, desired);
      continue;
    }
    // A real expiry: count the specific limit that fired, then close.
    if (c->evicted) {
      // Already counted backpressure_closed at eviction; the grace ran out.
    } else if (c->mid_frame && config_.read_progress_timeout_millis > 0) {
      ++activity.read_timeout_closed;
    } else {
      ++activity.idle_closed;
    }
    CloseConnection(loop, c->id);
  }
  if (!activity.empty()) stats_->RecordNet(loop->index, activity);
}

size_t Server::PendingBytes(const Connection& c) {
  size_t total = c.loop_out.size();
  for (const std::vector<uint8_t>& chunk : c.outq) total += chunk.size();
  return total - c.out_pos;
}

void Server::UpdatePendingAccounting(Loop* loop, Connection* conn) {
  const size_t fresh = PendingBytes(*conn);
  loop->pending_out_total += fresh;
  loop->pending_out_total -= conn->pending_out;
  conn->pending_out = fresh;
}

void Server::MaybeEvict(Loop* loop, Connection* conn) {
  const size_t conn_cap = config_.max_conn_pending_write_bytes;
  if (conn_cap > 0 && !conn->evicted && conn->pending_out > conn_cap) {
    Evict(loop, conn);  // May close conn; do not touch it again below.
  }
  const size_t loop_cap = config_.max_loop_pending_write_bytes;
  if (loop_cap == 0) return;
  // Aggregate cap: shed the heaviest writers until the loop fits again.
  // Already-evicted connections hold only their goodbye frame and are never
  // picked twice.
  while (loop->pending_out_total > loop_cap) {
    Connection* worst = nullptr;
    for (auto& entry : loop->conns) {
      Connection* c = entry.second.get();
      if (c->evicted) continue;
      if (worst == nullptr || c->pending_out > worst->pending_out) worst = c;
    }
    if (worst == nullptr || worst->pending_out == 0) break;
    Evict(loop, worst);
  }
}

void Server::Evict(Loop* loop, Connection* conn) {
  service::NetActivity activity;
  ++activity.backpressure_closed;
  stats_->RecordNet(loop->index, activity);

  // The queued responses are undeliverable — this peer is not reading. They
  // go home to the arena *now*, so eviction caps memory immediately instead
  // of when the socket finally dies.
  for (std::vector<uint8_t>& chunk : conn->outq) {
    loop->arena.Release(std::move(chunk));
  }
  conn->outq.clear();
  conn->out_pos = 0;
  if (!conn->loop_out.empty()) {
    loop->arena.Release(std::move(conn->loop_out));
    conn->loop_out.clear();
  }
  conn->pending.clear();  // Undispatched requests die with the connection.

  // One typed goodbye so a recovering peer learns *why* (and that a retry
  // elsewhere is safe), then close as soon as it flushes — or when the
  // grace timer fires, for a reader that never resumes.
  AppendStatusFrame(
      StagedOut(&loop->arena, &conn->loop_out), 0,
      util::Status::Unavailable(
          "write backpressure: pending responses exceeded the server cap"));
  conn->evicted = true;
  conn->evicted_nanos = Now();
  conn->read_closed = true;
  conn->close_after_flush = true;
  UpdatePendingAccounting(loop, conn);

  const uint64_t id = conn->id;
  const int64_t evicted_nanos = conn->evicted_nanos;
  FlushWrites(loop, conn);  // Best effort; may close the connection.
  auto it = loop->conns.find(id);
  if (it != loop->conns.end()) {
    RescheduleTimer(loop, it->second.get(), evicted_nanos);
  }
}

}  // namespace net
}  // namespace qreg
