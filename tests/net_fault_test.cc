// Fault-injection battery for net::Server on the deterministic SimBackend
// (DESIGN.md §12.6). Every scheduled fault — byte-at-a-time delivery, EAGAIN
// mid-header, ECONNRESET mid-pipelined-batch, short-write flushes, EOF
// mid-frame, reordered readiness — must leave the server in its *defined*
// state: decoders resume bit-for-bit, dispatched batches still execute,
// every arena buffer comes home (acquired() == released() after Shutdown),
// frame order survives partial flushes, and the net_* counters are exact,
// not approximate. CI runs this file across ASan and TSan with
// --gtest_repeat=3: a schedule that is not deterministic fails there.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/backend_sim.h"
#include "net/server.h"
#include "net/wire.h"
#include "test_support.h"

namespace qreg {
namespace net {
namespace {

using testsupport::MixedWorkload;
using testsupport::SharedCatalog;

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

service::RouterConfig RouterCfg(size_t threads) {
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kHybrid;
  cfg.enable_cache = false;  // Cache hits would change AnswerSource.
  cfg.num_threads = threads;
  return cfg;
}

ServerConfig SimConfig(SimTransport* transport) {
  ServerConfig cfg;
  cfg.backend = BackendKind::kSim;
  cfg.sim = transport;
  cfg.event_loops = 1;
  cfg.executor_threads = 1;
  return cfg;
}

WireRequest ToWire(const service::Request& request) {
  WireRequest wire;
  wire.dataset = request.dataset;
  wire.kind = request.kind;
  wire.q = request.q;
  return wire;
}

std::vector<uint8_t> RequestFrame(const WireRequest& wire, uint64_t id) {
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kRequest, id, EncodeRequest(wire));
  return out;
}

// Spins until `cond` holds or ~2s pass (counter flushes race the test
// thread; observe them with a bounded wait, never a bare sleep).
template <typename Cond>
bool WaitFor(Cond cond) {
  for (int i = 0; i < 2000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

// Drains the server's output stream on `conn` into `decoder` until `want`
// frames have been decoded (appended to *frames) or ~5s pass. Also sums the
// raw bytes taken into *bytes_taken when provided (exact-counter asserts).
bool CollectFrames(SimConn* conn, FrameDecoder* decoder, size_t want,
                   std::vector<Frame>* frames, size_t* bytes_taken = nullptr) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    Frame frame;
    while (frames->size() < want &&
           decoder->Next(&frame) == FrameDecoder::Event::kFrame) {
      frames->push_back(std::move(frame));
      frame = Frame();
    }
    if (frames->size() >= want) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    conn->WaitForFromServer(1, 50);
    const std::vector<uint8_t> bytes = conn->TakeFromServer();
    if (bytes_taken != nullptr) *bytes_taken += bytes.size();
    decoder->Feed(bytes.data(), bytes.size());
  }
}

// Decodes a kAnswer frame's payload and asserts it is bit-for-bit the
// reference router's answer for `request`.
void ExpectAnswerMatchesReference(const Frame& frame,
                                  const service::Request& request,
                                  service::QueryRouter* ref) {
  ASSERT_EQ(frame.header.type, FrameType::kAnswer);
  const util::Result<service::Answer> got =
      DecodeAnswer(frame.payload.data(), frame.payload.size());
  ASSERT_TRUE(got.ok()) << got.status();
  const service::ExecResult want = ref->Execute(request);
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(got->kind, want->kind);
  EXPECT_EQ(got->source, want->source);
  EXPECT_TRUE(BitEq(got->mean, want->mean));
  EXPECT_EQ(got->exec.tuples_matched, want->exec.tuples_matched);
  ASSERT_EQ(got->pieces.size(), want->pieces.size());
  for (size_t p = 0; p < want->pieces.size(); ++p) {
    EXPECT_TRUE(BitEq(got->pieces[p].intercept, want->pieces[p].intercept));
    ASSERT_EQ(got->pieces[p].slope.size(), want->pieces[p].slope.size());
    for (size_t s = 0; s < want->pieces[p].slope.size(); ++s) {
      EXPECT_TRUE(BitEq(got->pieces[p].slope[s], want->pieces[p].slope[s]));
    }
  }
}

TEST(NetFaultTest, ByteAtATimeDeliveryDecodesBitForBit) {
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  service::QueryRouter ref(SharedCatalog(), RouterCfg(0));
  Server server(&router, SimConfig(&transport));
  ASSERT_TRUE(server.Start().ok());

  // Every server-side read delivers exactly one byte, forever: the decoder
  // crosses every possible partial-header and partial-payload boundary.
  FaultSchedule schedule;
  schedule.default_read_cap = 1;
  SimConn* conn = transport.Connect(schedule);
  ASSERT_NE(conn, nullptr);

  const std::vector<service::Request> requests = MixedWorkload(6, /*seed=*/41);
  size_t sent_bytes = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::vector<uint8_t> frame = RequestFrame(ToWire(requests[i]), i + 1);
    sent_bytes += frame.size();
    conn->SendToServer(frame);
  }

  FrameDecoder decoder;
  std::vector<Frame> frames;
  size_t received_bytes = 0;
  ASSERT_TRUE(CollectFrames(conn, &decoder, requests.size(), &frames,
                            &received_bytes));
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(frames[i].header.request_id, i + 1);  // Pipeline order holds.
    ExpectAnswerMatchesReference(frames[i], requests[i], &ref);
  }

  // Counters are exact under the schedule, not merely monotone: the loop
  // read the stream one byte per call but bytes_in still totals precisely
  // what the client sent, and frames_decoded counts each frame once.
  EXPECT_TRUE(WaitFor([&] {
    const service::ServiceSnapshot snap = router.Stats();
    return snap.net.bytes_in == static_cast<int64_t>(sent_bytes) &&
           snap.net.frames_decoded ==
               static_cast<int64_t>(requests.size()) &&
           snap.net.bytes_out == static_cast<int64_t>(received_bytes);
  })) << "bytes_in=" << router.Stats().net.bytes_in << " want=" << sent_bytes;
  EXPECT_EQ(router.Stats().net.protocol_errors, 0);

  server.Shutdown();
  EXPECT_EQ(server.loop_arena(0).acquired(), server.loop_arena(0).released());
}

TEST(NetFaultTest, EagainMidHeaderLeavesDecoderResumable) {
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  service::QueryRouter ref(SharedCatalog(), RouterCfg(0));
  Server server(&router, SimConfig(&transport));
  ASSERT_TRUE(server.Start().ok());

  // 10 bytes land (mid-header: the header is 24), then the connection goes
  // spuriously ready twice — both reads EAGAIN with the partial header
  // buffered. The decoder must hold its 10 bytes and resume cleanly when
  // the rest arrives.
  FaultSchedule schedule;
  schedule.reads = {FaultSchedule::Deliver(10), FaultSchedule::WouldBlock(),
                    FaultSchedule::WouldBlock()};
  SimConn* conn = transport.Connect(schedule);
  ASSERT_NE(conn, nullptr);

  const std::vector<service::Request> requests = MixedWorkload(1, /*seed=*/43);
  conn->SendToServer(RequestFrame(ToWire(requests[0]), 7));

  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(CollectFrames(conn, &decoder, 1, &frames));
  EXPECT_EQ(frames[0].header.request_id, 7u);
  ExpectAnswerMatchesReference(frames[0], requests[0], &ref);
  EXPECT_EQ(router.Stats().net.protocol_errors, 0);
  EXPECT_EQ(router.Stats().net.frames_decoded, 1);

  server.Shutdown();
  EXPECT_EQ(server.loop_arena(0).acquired(), server.loop_arena(0).released());
}

TEST(NetFaultTest, ResetMidBatchCompletesDispatchedRequestsAndReleasesArena) {
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  Server server(&router, SimConfig(&transport));
  ASSERT_TRUE(server.Start().ok());

  // The whole pipelined batch decodes and dispatches; the very first
  // response write hits ECONNRESET. The batch must still execute to
  // completion (the router is not entangled with the connection's fate) and
  // the response buffer must return to the arena even though its bytes are
  // undeliverable.
  FaultSchedule schedule;
  schedule.writes = {FaultSchedule::Reset()};
  SimConn* conn = transport.Connect(schedule);
  ASSERT_NE(conn, nullptr);

  const std::vector<service::Request> requests = MixedWorkload(4, /*seed=*/47);
  std::vector<uint8_t> wire;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::vector<uint8_t> frame = RequestFrame(ToWire(requests[i]), i + 1);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  conn->SendToServer(wire);  // One atomic burst → one dispatched batch.

  // The reset tears the connection down server-side...
  ASSERT_TRUE(conn->WaitForServerClose());
  // ...but every dispatched request was executed first.
  EXPECT_TRUE(WaitFor([&] {
    return router.Stats().total_queries ==
           static_cast<int64_t>(requests.size());
  })) << "executed " << router.Stats().total_queries;
  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().net.connections_closed == 1; }));
  EXPECT_EQ(router.Stats().net.frames_decoded,
            static_cast<int64_t>(requests.size()));

  server.Shutdown();
  // The leak invariant survives a mid-batch reset: the buffer the executor
  // filled came home via CloseConnection, not the allocator.
  EXPECT_GE(server.loop_arena(0).acquired(), 1u);
  EXPECT_EQ(server.loop_arena(0).acquired(), server.loop_arena(0).released());
}

TEST(NetFaultTest, ShortWriteFlushRetriesPreserveFrameOrder) {
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  service::QueryRouter ref(SharedCatalog(), RouterCfg(0));
  Server server(&router, SimConfig(&transport));
  ASSERT_TRUE(server.Start().ok());

  // Every flush is mangled: a 5-byte sliver, a spurious EAGAIN (parking the
  // connection until the next writability), a 7-byte sliver, another EAGAIN,
  // then 9-byte slivers forever. The client must still observe one
  // contiguous, in-order byte stream.
  FaultSchedule schedule;
  schedule.writes = {FaultSchedule::Deliver(5), FaultSchedule::WouldBlock(),
                     FaultSchedule::Deliver(7), FaultSchedule::WouldBlock()};
  schedule.default_write_cap = 9;
  SimConn* conn = transport.Connect(schedule);
  ASSERT_NE(conn, nullptr);

  const std::vector<service::Request> requests = MixedWorkload(3, /*seed=*/53);
  std::vector<uint8_t> wire;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::vector<uint8_t> frame = RequestFrame(ToWire(requests[i]), i + 1);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  conn->SendToServer(wire);

  FrameDecoder decoder;
  std::vector<Frame> frames;
  size_t received_bytes = 0;
  ASSERT_TRUE(CollectFrames(conn, &decoder, requests.size(), &frames,
                            &received_bytes));
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(frames[i].header.request_id, i + 1) << "frame order broke";
    ExpectAnswerMatchesReference(frames[i], requests[i], &ref);
  }
  EXPECT_TRUE(WaitFor([&] {
    return router.Stats().net.bytes_out ==
           static_cast<int64_t>(received_bytes);
  }));

  server.Shutdown();
  EXPECT_EQ(server.loop_arena(0).acquired(), server.loop_arena(0).released());
}

TEST(NetFaultTest, EofMidFrameTearsDownWithoutProtocolError) {
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  Server server(&router, SimConfig(&transport));
  ASSERT_TRUE(server.Start().ok());

  SimConn* conn = transport.Connect();
  ASSERT_NE(conn, nullptr);

  // A valid frame prefix (magic + version intact), truncated mid-header,
  // then EOF. That is an orderly disconnect, not a protocol violation: no
  // error frame, no protocol_errors, just a clean close.
  const std::vector<uint8_t> frame =
      RequestFrame(WireRequest::Q1("r1", query::Query({0.4, 0.6}, 0.12)), 1);
  conn->SendToServer(frame.data(), 10);
  conn->CloseWrite();

  ASSERT_TRUE(conn->WaitForServerClose());
  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().net.connections_closed == 1; }));
  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_EQ(snap.net.protocol_errors, 0);
  EXPECT_EQ(snap.net.frames_decoded, 0);
  EXPECT_EQ(snap.net.bytes_in, 10);
  EXPECT_EQ(conn->from_server_bytes(), 0u);  // EOF answers nothing.

  server.Shutdown();
  EXPECT_EQ(server.loop_arena(0).acquired(), server.loop_arena(0).released());
}

TEST(NetFaultTest, GarbageStreamGetsTypedErrorFrameThenClose) {
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  Server server(&router, SimConfig(&transport));
  ASSERT_TRUE(server.Start().ok());

  // Deliver the garbage one byte per read for good measure: the hardened
  // decoder poisons the stream as soon as the 4 magic bytes are buffered —
  // it never waits for a full header's worth of garbage.
  FaultSchedule schedule;
  schedule.default_read_cap = 1;
  SimConn* conn = transport.Connect(schedule);
  ASSERT_NE(conn, nullptr);

  const char garbage[] = "this is definitely not a QREG frame header";
  conn->SendToServer(reinterpret_cast<const uint8_t*>(garbage),
                     sizeof(garbage));

  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(CollectFrames(conn, &decoder, 1, &frames));
  ASSERT_EQ(frames[0].header.type, FrameType::kError);
  EXPECT_EQ(frames[0].header.request_id, 0u);  // Stream-level, not per-request.
  util::Status transported;
  ASSERT_TRUE(DecodeStatus(frames[0].payload.data(), frames[0].payload.size(),
                           &transported)
                  .ok());
  EXPECT_EQ(transported.code(), util::StatusCode::kInvalidArgument);

  ASSERT_TRUE(conn->WaitForServerClose());
  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().net.protocol_errors == 1; }));

  server.Shutdown();
  EXPECT_EQ(server.loop_arena(0).acquired(), server.loop_arena(0).released());
}

TEST(NetFaultTest, OversizedFramePoisonPersistsAcrossLaterValidFrames) {
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  Server server(&router, SimConfig(&transport));
  ASSERT_TRUE(server.Start().ok());

  SimConn* conn = transport.Connect();
  ASSERT_NE(conn, nullptr);

  // A frame whose header announces a payload over the 16 MiB ceiling — the
  // decoder poisons from the header alone, before buffering a byte of it.
  const std::vector<service::Request> requests = MixedWorkload(1, /*seed=*/67);
  std::vector<uint8_t> oversized = RequestFrame(ToWire(requests[0]), 1);
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(oversized.data() + 16, &huge, sizeof(huge));  // payload_len.

  // The poison must *persist*: a perfectly well-formed frame follows in the
  // same burst, and the server must not decode it — one typed error frame,
  // one protocol_errors tick, then close. A decoder that resynchronizes
  // after garbage would answer the second frame and fail this test.
  std::vector<uint8_t> burst = oversized;
  const std::vector<uint8_t> valid = RequestFrame(ToWire(requests[0]), 2);
  burst.insert(burst.end(), valid.begin(), valid.end());
  conn->SendToServer(burst);

  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(CollectFrames(conn, &decoder, 1, &frames));
  ASSERT_EQ(frames[0].header.type, FrameType::kError);
  EXPECT_EQ(frames[0].header.request_id, 0u);
  util::Status transported;
  ASSERT_TRUE(DecodeStatus(frames[0].payload.data(), frames[0].payload.size(),
                           &transported)
                  .ok());
  EXPECT_EQ(transported.code(), util::StatusCode::kOutOfRange);

  ASSERT_TRUE(conn->WaitForServerClose());
  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().net.protocol_errors == 1; }));
  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_EQ(snap.net.protocol_errors, 1);  // Exactly one, not one per frame.
  EXPECT_EQ(snap.net.frames_decoded, 0);   // The valid frame died unparsed.
  EXPECT_EQ(snap.total_queries, 0);

  server.Shutdown();
  EXPECT_EQ(server.loop_arena(0).acquired(), server.loop_arena(0).released());
}

// Flattens a response frame sequence into comparable bytes, zeroing the one
// legitimately nondeterministic field (exec.nanos, the wall-clock serving
// latency encoded in every answer). Everything else — frame order, ids,
// types, full answer payloads — must be identical run to run.
std::vector<uint8_t> NormalizedStream(const std::vector<Frame>& frames) {
  std::vector<uint8_t> out;
  for (const Frame& f : frames) {
    if (f.header.type == FrameType::kAnswer) {
      util::Result<service::Answer> ans =
          DecodeAnswer(f.payload.data(), f.payload.size());
      EXPECT_TRUE(ans.ok()) << ans.status();
      if (ans.ok()) {
        ans->exec.nanos = 0;
        AppendFrame(&out, f.header.type, f.header.request_id,
                    EncodeAnswer(*ans));
        continue;
      }
    }
    AppendFrame(&out, f.header.type, f.header.request_id, f.payload);
  }
  return out;
}

TEST(NetFaultTest, ReorderedReadinessIsDeterministicAcrossRuns) {
  // Two connections, readiness ranks inverted relative to arrival order, a
  // fault-laced schedule on each. The entire scenario runs three times; the
  // per-connection responses (normalized only for the encoded wall-clock
  // latency) must be identical run to run — that is the determinism CI's
  // --gtest_repeat leans on. On conn A the server promises each frame's
  // bytes, not the order of a pong and an answer (see below), so A's frames
  // are compared keyed by request id.
  std::vector<std::vector<uint8_t>> golden_a, golden_b;
  for (int run = 0; run < 3; ++run) {
    SimTransport transport;
    service::QueryRouter router(SharedCatalog(), RouterCfg(1));
    Server server(&router, SimConfig(&transport));
    ASSERT_TRUE(server.Start().ok());

    // First-connected gets the *larger* rank: Wait() must serve B first
    // whenever both are ready — scripted readiness reordering.
    FaultSchedule sched_a;
    sched_a.readiness_rank = 2;
    sched_a.default_read_cap = 3;
    FaultSchedule sched_b;
    sched_b.readiness_rank = 1;
    sched_b.reads = {FaultSchedule::Deliver(10), FaultSchedule::WouldBlock()};
    SimConn* conn_a = transport.Connect(sched_a);
    SimConn* conn_b = transport.Connect(sched_b);
    ASSERT_NE(conn_a, nullptr);
    ASSERT_NE(conn_b, nullptr);

    const std::vector<service::Request> requests =
        MixedWorkload(2, /*seed=*/61);
    std::vector<uint8_t> wire_a = RequestFrame(ToWire(requests[0]), 11);
    {
      std::vector<uint8_t> ping;
      AppendFrame(&ping, FrameType::kPing, 12, nullptr, 0);
      wire_a.insert(wire_a.end(), ping.begin(), ping.end());
    }
    const std::vector<uint8_t> wire_b = RequestFrame(ToWire(requests[1]), 21);
    conn_a->SendToServer(wire_a);
    conn_b->SendToServer(wire_b);

    FrameDecoder dec_a, dec_b;
    std::vector<Frame> frames_a, frames_b;
    ASSERT_TRUE(CollectFrames(conn_a, &dec_a, 2, &frames_a));
    ASSERT_TRUE(CollectFrames(conn_b, &dec_b, 1, &frames_b));
    // Pings are answered by the loop; a request is answered by the loop
    // when model-routed and otherwise round-trips through the executor
    // pool, and A's bytes arrive 3 at a time: an executor may finish
    // request 11 before the loop has read the trailing ping, so the answer
    // and the pong may arrive in either order. Both must arrive.
    std::sort(frames_a.begin(), frames_a.end(),
              [](const Frame& x, const Frame& y) {
                return x.header.request_id < y.header.request_id;
              });
    EXPECT_EQ(frames_a[0].header.request_id, 11u);
    EXPECT_EQ(frames_a[0].header.type, FrameType::kAnswer);
    EXPECT_EQ(frames_a[1].header.request_id, 12u);
    EXPECT_EQ(frames_a[1].header.type, FrameType::kPong);
    EXPECT_EQ(frames_b[0].header.request_id, 21u);
    EXPECT_EQ(frames_b[0].header.type, FrameType::kAnswer);

    golden_a.push_back(NormalizedStream(frames_a));
    golden_b.push_back(NormalizedStream(frames_b));
    server.Shutdown();
    EXPECT_EQ(server.loop_arena(0).acquired(),
              server.loop_arena(0).released());
  }
  EXPECT_EQ(golden_a[0], golden_a[1]);
  EXPECT_EQ(golden_a[0], golden_a[2]);
  EXPECT_EQ(golden_b[0], golden_b[1]);
  EXPECT_EQ(golden_b[0], golden_b[2]);
}

TEST(NetFaultTest, ExpiredDeadlineBudgetRejectedOverSim) {
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  Server server(&router, SimConfig(&transport));
  ASSERT_TRUE(server.Start().ok());

  // Deliver the doomed request byte-at-a-time for good measure: the budget
  // maps to a deadline when the *frame* decodes, not per read call.
  FaultSchedule schedule;
  schedule.default_read_cap = 1;
  SimConn* conn = transport.Connect(schedule);
  ASSERT_NE(conn, nullptr);

  // A 1ns budget is expired by the time admission runs (same guarantee the
  // socket-path deadline test leans on): typed kDeadlineExceeded frame.
  WireRequest wire = WireRequest::Q1("r1", query::Query({0.4, 0.6}, 0.12));
  wire.deadline_budget_nanos = 1;
  conn->SendToServer(RequestFrame(wire, 99));

  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(CollectFrames(conn, &decoder, 1, &frames));
  ASSERT_EQ(frames[0].header.type, FrameType::kError);
  EXPECT_EQ(frames[0].header.request_id, 99u);
  util::Status transported;
  ASSERT_TRUE(DecodeStatus(frames[0].payload.data(), frames[0].payload.size(),
                           &transported)
                  .ok());
  EXPECT_EQ(transported.code(), util::StatusCode::kDeadlineExceeded);

  server.Shutdown();
  EXPECT_EQ(server.loop_arena(0).acquired(), server.loop_arena(0).released());
}

// ---------------------------------------------------------------------------
// Run to completion: the event loop answers the leading run of model-routed
// requests itself and sends only the rest to the executors.

// The first `n` MixedWorkload requests (seeded) that `ref` answers from the
// model — in-region under the hybrid policy.
std::vector<service::Request> InRegionRequests(service::QueryRouter* ref,
                                               size_t n, uint64_t seed) {
  std::vector<service::Request> out;
  for (const service::Request& r : MixedWorkload(200, seed)) {
    if (out.size() == n) break;
    const service::ExecResult want = ref->Execute(r);
    if (want.ok() && want->source == service::AnswerSource::kModel) {
      out.push_back(r);
    }
  }
  return out;
}

// Out of region for the shared model: θ far above the trained radii, so the
// vigilance test sends it to the exact engine, yet the ball covers rows.
service::Request OutOfRegionQ1() {
  return service::Request::Q1("r1", query::Query({0.5, 0.5}, 0.5));
}

TEST(NetFaultTest, RunToCompletionCountersArePinned) {
  testsupport::FakeClock clock(1000000000);  // Lifecycle timers never fire.
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  service::QueryRouter ref(SharedCatalog(), RouterCfg(0));
  ServerConfig cfg = SimConfig(&transport);
  cfg.clock = &clock;
  Server server(&router, cfg);
  ASSERT_TRUE(server.Start().ok());
  SimConn* conn = transport.Connect();
  ASSERT_NE(conn, nullptr);

  const std::vector<service::Request> in = InRegionRequests(&ref, 5, 71);
  ASSERT_EQ(in.size(), 5u);
  const service::Request out = OutOfRegionQ1();
  {
    const service::ExecResult exact = ref.Execute(out);
    ASSERT_TRUE(exact.ok()) << exact.status();
    ASSERT_EQ(exact->source, service::AnswerSource::kExact);
  }

  // Burst 1 — in, in, out, in — is one atomic read: the loop answers the
  // leading two, and the out-of-region request ends the run, so it and the
  // in-region request behind it go to the executors as one batch.
  const std::vector<service::Request> burst1 = {in[0], in[1], out, in[2]};
  std::vector<uint8_t> wire;
  for (size_t i = 0; i < burst1.size(); ++i) {
    const std::vector<uint8_t> frame = RequestFrame(ToWire(burst1[i]), i + 1);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  conn->SendToServer(wire);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(CollectFrames(conn, &decoder, burst1.size(), &frames));
  for (size_t i = 0; i < burst1.size(); ++i) {
    EXPECT_EQ(frames[i].header.request_id, i + 1) << "response order broke";
    ExpectAnswerMatchesReference(frames[i], burst1[i], &ref);
  }
  EXPECT_TRUE(WaitFor([&] {
    const service::ServiceSnapshot snap = router.Stats();
    return snap.net.answered_on_loop == 2 &&
           snap.net.dispatched_to_executors == 2;
  })) << "on loop " << router.Stats().net.answered_on_loop << ", executors "
      << router.Stats().net.dispatched_to_executors;

  // Burst 2 — in, in — arrives with no batch in flight: both on the loop.
  wire.clear();
  for (size_t i = 0; i < 2; ++i) {
    const std::vector<uint8_t> frame = RequestFrame(ToWire(in[3 + i]), 5 + i);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  conn->SendToServer(wire);
  ASSERT_TRUE(CollectFrames(conn, &decoder, burst1.size() + 2, &frames));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(frames[4 + i].header.request_id, 5 + i);
    ExpectAnswerMatchesReference(frames[4 + i], in[3 + i], &ref);
  }

  server.Shutdown();
  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_EQ(snap.net.answered_on_loop, 4);
  EXPECT_EQ(snap.net.dispatched_to_executors, 2);
  ASSERT_EQ(snap.net_loops.size(), 1u);
  EXPECT_EQ(snap.net_loops[0].answered_on_loop, 4);
  EXPECT_EQ(snap.net_loops[0].dispatched_to_executors, 2);
  EXPECT_EQ(snap.net.frames_decoded, 6);
  // Loop answers are recorded exactly as Execute records them.
  EXPECT_EQ(snap.total_queries, 6);
  EXPECT_EQ(snap.model_answers, 5);
  EXPECT_EQ(snap.exact_fallbacks, 1);
  EXPECT_EQ(snap.errors, 0);
  EXPECT_EQ(server.loop_arena(0).acquired(), server.loop_arena(0).released());
}

// Everything the router declines still reaches the executors and comes back
// with the same typed result and the same stats as in-process Execute.
TEST(NetFaultTest, DeclinedRequestsReachTheExecutorsUnchanged) {
  // A catalog of its own: "drift" is the shared dataset with drift
  // maintenance on (probes never due here), "cold" is registered after
  // TrainAll and so has no model.
  testsupport::EngineFixture* f = testsupport::SharedServiceFixture();
  service::ModelCatalog catalog;
  service::CatalogOptions drift_opts = testsupport::DefaultCatalogOptions();
  drift_opts.drift.enabled = true;
  drift_opts.drift.config.probe_queries = 20;
  drift_opts.drift.report_interval = 1 << 30;
  ASSERT_TRUE(catalog
                  .Register("drift", &f->dataset->table, f->kdtree.get(),
                            drift_opts)
                  .ok());
  ASSERT_TRUE(catalog.TrainAll().ok());
  ASSERT_TRUE(catalog
                  .Register("cold", &f->dataset->table, f->kdtree.get(),
                            testsupport::DefaultCatalogOptions())
                  .ok());

  service::QueryRouter shared_ref(SharedCatalog(), RouterCfg(0));
  const service::Request in = InRegionRequests(&shared_ref, 1, 73).at(0);
  service::Request on_drift = in;
  on_drift.dataset = "drift";
  service::Request on_cold = in;
  on_cold.dataset = "cold";
  service::Request expired = in;
  expired.deadline = util::Deadline::AfterNanos(1);
  WireRequest expired_wire = ToWire(in);
  expired_wire.deadline_budget_nanos = 1;  // Expired by admission time.
  service::Request wrong_dim = in;
  wrong_dim.q = query::Query({0.4, 0.6, 0.5}, 0.12);

  struct Case {
    const char* name;
    service::ModelCatalog* catalog;
    service::RoutePolicy policy;
    service::Request request;
    WireRequest wire;
  };
  const service::RoutePolicy kHybrid = service::RoutePolicy::kHybrid;
  const std::vector<Case> cases = {
      {"drift-enabled", &catalog, kHybrid, on_drift, ToWire(on_drift)},
      {"expired budget", SharedCatalog(), kHybrid, expired, expired_wire},
      {"wrong dimension", SharedCatalog(), kHybrid, wrong_dim,
       ToWire(wrong_dim)},
      {"untrained", &catalog, kHybrid, on_cold, ToWire(on_cold)},
      {"exact-only", SharedCatalog(), service::RoutePolicy::kExactOnly, in,
       ToWire(in)},
  };

  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    service::RouterConfig cfg = RouterCfg(1);
    cfg.policy = k.policy;
    service::QueryRouter router(k.catalog, cfg);
    cfg.num_threads = 0;
    service::QueryRouter ref(k.catalog, cfg);

    SimTransport transport;
    Server server(&router, SimConfig(&transport));
    ASSERT_TRUE(server.Start().ok());
    SimConn* conn = transport.Connect();
    ASSERT_NE(conn, nullptr);
    conn->SendToServer(RequestFrame(k.wire, 9));
    FrameDecoder decoder;
    std::vector<Frame> frames;
    ASSERT_TRUE(CollectFrames(conn, &decoder, 1, &frames));
    server.Shutdown();
    EXPECT_EQ(server.loop_arena(0).acquired(),
              server.loop_arena(0).released());
    ASSERT_EQ(frames[0].header.request_id, 9u);

    const service::ExecResult want = ref.Execute(k.request);
    if (k.catalog == &catalog && k.request.dataset == "drift") {
      // Model-routed, so only the drift check sent it to the executors.
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ(want->source, service::AnswerSource::kModel);
    }
    if (want.ok()) {
      ExpectAnswerMatchesReference(frames[0], k.request, &ref);
    } else {
      ASSERT_EQ(frames[0].header.type, FrameType::kError);
      util::Status got;
      ASSERT_TRUE(DecodeStatus(frames[0].payload.data(),
                               frames[0].payload.size(), &got)
                      .ok());
      EXPECT_EQ(got.code(), want.status().code()) << got;
    }

    const service::ServiceSnapshot snap = router.Stats();
    EXPECT_EQ(snap.net.answered_on_loop, 0);
    EXPECT_EQ(snap.net.dispatched_to_executors, 1);
    // The reference ran the request twice (the answer check re-executes it).
    const service::ServiceSnapshot ref_snap = ref.Stats();
    const int64_t runs = want.ok() ? 2 : 1;
    EXPECT_EQ(snap.total_queries * runs, ref_snap.total_queries);
    EXPECT_EQ(snap.errors * runs, ref_snap.errors);
    EXPECT_EQ(snap.model_answers * runs, ref_snap.model_answers);
    EXPECT_EQ(snap.exact_fallbacks * runs, ref_snap.exact_fallbacks);
    EXPECT_EQ(snap.deadline_exceeded * runs, ref_snap.deadline_exceeded);
    EXPECT_EQ(snap.shed, 0);
  }
}

}  // namespace
}  // namespace net
}  // namespace qreg
