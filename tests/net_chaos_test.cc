// Deterministic chaos battery for the server's self-defense machinery
// (DESIGN.md §12.7): connection lifecycle timeouts and write backpressure,
// driven entirely in virtual time. Every scenario runs on the SimBackend
// with a FakeClock injected through ServerConfig::clock — the test advances
// the clock, calls SimTransport::Poke() so the loop re-reads it, and the
// timer wheel fires exactly the deadline that should fire. No real sleeps
// decide anything.
//
// The invariants under attack:
//   - a slow-loris dripping header bytes cannot outlive the read-progress
//     window (it anchors at frame *start*, not at the last byte),
//   - a silent connection is idle-closed exactly once, with the idle counter
//     (never the read-timeout counter) taking the blame,
//   - a reader that stops reading is evicted at the pending-write cap with a
//     typed kUnavailable goodbye, and its eviction never perturbs a healthy
//     sibling's answers (bit-for-bit vs the in-process reference),
//   - every teardown path — timeout, eviction, grace expiry, reset storm —
//     frees what it queued (ASan's leak check covers it).
//
// CI runs this file across ASan and TSan with --gtest_repeat=3: a scenario
// that is not deterministic fails there.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "net/backend_sim.h"
#include "net/server.h"
#include "net/wire.h"
#include "test_support.h"

namespace qreg {
namespace net {
namespace {

using testsupport::FakeClock;
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

constexpr int64_t kMillis = 1000000;  // Nanos per millisecond.

// One loop, one executor, virtual clock. Individual tests tighten the
// specific limit they attack; everything else stays far away.
ServerConfig ChaosConfig(SimTransport* transport, const FakeClock* clock) {
  ServerConfig cfg;
  cfg.backend = BackendKind::kSim;
  cfg.sim = transport;
  cfg.event_loops = 1;
  cfg.executor_threads = 1;
  cfg.clock = clock;
  cfg.idle_timeout_millis = 60000;
  cfg.read_progress_timeout_millis = 10000;
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

// Spins until `cond` holds or ~2s (real) pass. Real time only ever bounds
// *observation* of work the server does eagerly; expiries themselves are
// pure virtual-time.
template <typename Cond>
bool WaitFor(Cond cond) {
  for (int i = 0; i < 2000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

// Drains the server's output on `conn` into `decoder` until `want` frames
// decode or ~5s pass.
bool CollectFrames(SimConn* conn, FrameDecoder* decoder, size_t want,
                   std::vector<Frame>* frames) {
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
}

// Round-trips `request` on a fresh healthy connection and asserts the answer
// matches the reference — the "chaos never hurt the innocent" probe.
void ProbeHealthy(SimTransport* transport, const service::Request& request,
                  service::QueryRouter* ref, uint64_t id) {
  SimConn* conn = transport->Connect();
  ASSERT_NE(conn, nullptr);
  conn->SendToServer(RequestFrame(ToWire(request), id));
  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(CollectFrames(conn, &decoder, 1, &frames));
  EXPECT_EQ(frames[0].header.request_id, id);
  ExpectAnswerMatchesReference(frames[0], request, ref);
  conn->CloseWrite();  // Finish cleanly so drain never waits on us.
  ASSERT_TRUE(conn->WaitForServerClose());
}

TEST(NetChaosTest, SlowLorisDiesAtFrameStartAnchoredReadTimeout) {
  FakeClock clock(1000 * kMillis);
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  service::QueryRouter ref(SharedCatalog(), RouterCfg(0));
  Server server(&router, ChaosConfig(&transport, &clock));
  ASSERT_TRUE(server.Start().ok());

  const std::vector<service::Request> requests = MixedWorkload(2, /*seed=*/71);
  ProbeHealthy(&transport, requests[0], &ref, 1);

  // The attack: drip one header byte every 4 virtual seconds. Every
  // inter-byte gap is comfortably under the 10s read-progress window — a
  // last-byte-anchored timeout would never fire. The window anchors at the
  // *first* byte of the frame, so the third gap crosses it.
  SimConn* victim = transport.Connect();
  ASSERT_NE(victim, nullptr);
  const std::vector<uint8_t> frame = RequestFrame(ToWire(requests[1]), 2);
  const int64_t base_in = router.Stats().net.bytes_in;
  for (int i = 0; i < 3; ++i) {
    victim->SendToServer(frame.data() + i, 1);
    // The drip byte must be *read* (anchoring/holding the window) before
    // virtual time moves, or the anchor itself would drift.
    ASSERT_TRUE(WaitFor([&] {
      return router.Stats().net.bytes_in == base_in + i + 1;
    }));
    clock.AdvanceNanos(4000 * kMillis);
    transport.Poke();
  }
  // 12 virtual seconds since the frame started: the wheel fires.
  ASSERT_TRUE(victim->WaitForServerClose());

  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().net.read_timeout_closed == 1; }));
  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_EQ(snap.net.read_timeout_closed, 1);
  EXPECT_EQ(snap.net.idle_closed, 0);
  EXPECT_EQ(snap.net.backpressure_closed, 0);
  EXPECT_EQ(snap.net.protocol_errors, 0);  // Slow is not malformed.

  server.Shutdown();
}

TEST(NetChaosTest, HalfOpenStallDiesAtReadTimeoutNotIdle) {
  FakeClock clock(1000 * kMillis);
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  service::QueryRouter ref(SharedCatalog(), RouterCfg(0));
  Server server(&router, ChaosConfig(&transport, &clock));
  ASSERT_TRUE(server.Start().ok());

  const std::vector<service::Request> requests = MixedWorkload(2, /*seed=*/73);

  // A half-open peer: 10 bytes of a valid frame, then silence forever — no
  // EOF, no reset. The mid-frame read-progress window (10s) must reap it
  // long before the idle window (60s) would.
  SimConn* victim = transport.Connect();
  ASSERT_NE(victim, nullptr);
  const std::vector<uint8_t> frame = RequestFrame(ToWire(requests[1]), 2);
  victim->SendToServer(frame.data(), 10);
  ASSERT_TRUE(WaitFor([&] { return router.Stats().net.bytes_in == 10; }));

  clock.AdvanceNanos(10001 * kMillis);
  transport.Poke();
  ASSERT_TRUE(victim->WaitForServerClose());
  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().net.read_timeout_closed == 1; }));
  EXPECT_EQ(router.Stats().net.idle_closed, 0);

  // The server is unharmed: a healthy probe still answers bit-for-bit.
  ProbeHealthy(&transport, requests[0], &ref, 1);

  server.Shutdown();
}

TEST(NetChaosTest, SilentConnectionIsIdleClosedExactlyOnce) {
  FakeClock clock(1000 * kMillis);
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  service::QueryRouter ref(SharedCatalog(), RouterCfg(0));
  ServerConfig cfg = ChaosConfig(&transport, &clock);
  cfg.idle_timeout_millis = 30000;
  Server server(&router, cfg);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<service::Request> requests = MixedWorkload(1, /*seed=*/79);

  // The victim connects and never sends a byte. A healthy probe completes
  // and closes first, so when virtual time jumps the idle window only the
  // victim is left to expire.
  SimConn* victim = transport.Connect();
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(
      WaitFor([&] { return router.Stats().net.connections_accepted == 1; }));
  ProbeHealthy(&transport, requests[0], &ref, 1);
  ASSERT_TRUE(
      WaitFor([&] { return router.Stats().net.connections_closed == 1; }));

  clock.AdvanceNanos(30001 * kMillis);
  transport.Poke();
  ASSERT_TRUE(victim->WaitForServerClose());

  EXPECT_TRUE(WaitFor([&] { return router.Stats().net.idle_closed == 1; }));
  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_EQ(snap.net.idle_closed, 1);
  EXPECT_EQ(snap.net.read_timeout_closed, 0);  // Not mid-frame: idle's kill.
  EXPECT_EQ(snap.net.connections_closed, 2);

  server.Shutdown();
}

// The per-request answer frame the server will produce for `request`, sized
// with exec.nanos == 0 — a *lower bound* on the real frame (exec.nanos rides
// a varint, so the live value can only widen it). Cap math built on this
// bound is deterministic whatever the serving latency.
size_t MinAnswerFrameBytes(const service::Request& request,
                           service::QueryRouter* ref) {
  service::ExecResult result = ref->Execute(request);
  EXPECT_TRUE(result.ok()) << result.status();
  service::Answer answer = *result;
  answer.exec.nanos = 0;
  std::vector<uint8_t> out;
  AppendFrame(&out, FrameType::kAnswer, 1, EncodeAnswer(answer));
  return out.size();
}

TEST(NetChaosTest, StalledReaderEvictedAtConnCapWithUnavailableGoodbye) {
  FakeClock clock(1000 * kMillis);
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  service::QueryRouter ref(SharedCatalog(), RouterCfg(0));

  const std::vector<service::Request> requests = MixedWorkload(3, /*seed=*/83);
  const size_t answer_bytes = MinAnswerFrameBytes(requests[1], &ref);

  ServerConfig cfg = ChaosConfig(&transport, &clock);
  // One pipelined answer already busts the per-connection cap.
  cfg.max_conn_pending_write_bytes = answer_bytes / 2;
  Server server(&router, cfg);
  ASSERT_TRUE(server.Start().ok());

  // The victim pipelines two requests and stops reading: every flush parks
  // on EAGAIN, pending bytes cross the cap, and the server must evict —
  // freeing the queued answers and queueing one typed
  // kUnavailable goodbye.
  FaultSchedule stalled;
  stalled.stall_writes = true;
  SimConn* victim = transport.Connect(stalled);
  ASSERT_NE(victim, nullptr);
  std::vector<uint8_t> burst = RequestFrame(ToWire(requests[1]), 11);
  const std::vector<uint8_t> second = RequestFrame(ToWire(requests[2]), 12);
  burst.insert(burst.end(), second.begin(), second.end());
  victim->SendToServer(burst);

  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().net.backpressure_closed == 1; }));

  // A healthy sibling on the same loop is untouched by the eviction.
  ProbeHealthy(&transport, requests[0], &ref, 1);

  // The victim resumes reading in time (virtual time never moved, so the
  // goodbye grace never expired) and learns *why* it was dropped: one
  // stream-level kError frame carrying kUnavailable, then close.
  victim->ResumeWrites();
  FrameDecoder decoder;
  std::vector<Frame> frames;
  ASSERT_TRUE(CollectFrames(victim, &decoder, 1, &frames));
  ASSERT_EQ(frames[0].header.type, FrameType::kError);
  EXPECT_EQ(frames[0].header.request_id, 0u);  // Stream-level, not per-request.
  util::Status transported;
  ASSERT_TRUE(DecodeStatus(frames[0].payload.data(), frames[0].payload.size(),
                           &transported)
                  .ok());
  EXPECT_EQ(transported.code(), util::StatusCode::kUnavailable);
  ASSERT_TRUE(victim->WaitForServerClose());

  EXPECT_EQ(router.Stats().net.backpressure_closed, 1);
  EXPECT_EQ(router.Stats().net.idle_closed, 0);
  EXPECT_EQ(router.Stats().net.read_timeout_closed, 0);

  server.Shutdown();
}

TEST(NetChaosTest, AggregateCapEvictsHeaviestWriterOnly) {
  FakeClock clock(1000 * kMillis);
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  service::QueryRouter ref(SharedCatalog(), RouterCfg(0));

  const std::vector<service::Request> requests = MixedWorkload(2, /*seed=*/89);
  const size_t answer_bytes = MinAnswerFrameBytes(requests[1], &ref);

  ServerConfig cfg = ChaosConfig(&transport, &clock);
  cfg.max_conn_pending_write_bytes = 0;  // Per-conn cap off: aggregate only.
  cfg.max_loop_pending_write_bytes = answer_bytes * 4;
  Server server(&router, cfg);
  ASSERT_TRUE(server.Start().ok());

  // The heavy writer pipelines six copies of the same request and stalls:
  // ≥ 6 × answer_bytes pending against a 4 × answer_bytes loop cap. The
  // aggregate limit must pick *it* — the heaviest writer — and leave the
  // healthy sibling alone.
  FaultSchedule stalled;
  stalled.stall_writes = true;
  SimConn* heavy = transport.Connect(stalled);
  ASSERT_NE(heavy, nullptr);
  std::vector<uint8_t> burst;
  for (uint64_t id = 1; id <= 6; ++id) {
    const std::vector<uint8_t> f = RequestFrame(ToWire(requests[1]), id);
    burst.insert(burst.end(), f.begin(), f.end());
  }
  heavy->SendToServer(burst);

  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().net.backpressure_closed == 1; }));
  ProbeHealthy(&transport, requests[0], &ref, 100);
  EXPECT_EQ(router.Stats().net.backpressure_closed, 1);  // Exactly one victim.

  heavy->ResumeWrites();  // Take the goodbye so drain never waits on us.
  ASSERT_TRUE(heavy->WaitForServerClose());

  server.Shutdown();
}

TEST(NetChaosTest, ResetStormLeavesHealthyTrafficBitForBit) {
  FakeClock clock(1000 * kMillis);
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  service::QueryRouter ref(SharedCatalog(), RouterCfg(0));
  Server server(&router, ChaosConfig(&transport, &clock));
  ASSERT_TRUE(server.Start().ok());

  const std::vector<service::Request> requests = MixedWorkload(8, /*seed=*/97);

  // Five victims connect, send a full request (some dripped byte-at-a-time
  // for good measure), and slam the door with an RST at arbitrary points.
  // The storm and the healthy probes interleave; every probe must still
  // answer bit-for-bit, and every victim must be torn down cleanly.
  std::vector<SimConn*> victims;
  for (int v = 0; v < 5; ++v) {
    FaultSchedule sched;
    if (v % 2 == 0) sched.default_read_cap = 1;
    SimConn* conn = transport.Connect(sched);
    ASSERT_NE(conn, nullptr);
    conn->SendToServer(RequestFrame(ToWire(requests[3 + v % 3]),
                                    static_cast<uint64_t>(200 + v)));
    victims.push_back(conn);
  }
  victims[0]->Reset();  // Two die instantly, mid-decode or pre-decode.
  victims[1]->Reset();

  ProbeHealthy(&transport, requests[0], &ref, 1);
  victims[2]->Reset();
  ProbeHealthy(&transport, requests[1], &ref, 2);
  victims[3]->Reset();
  victims[4]->Reset();
  ProbeHealthy(&transport, requests[2], &ref, 3);

  for (SimConn* victim : victims) {
    ASSERT_TRUE(victim->WaitForServerClose());
  }
  // 5 victims + 3 probes, all accounted closed; resets are transport
  // deaths, not protocol violations.
  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().net.connections_closed == 8; }));
  EXPECT_EQ(router.Stats().net.protocol_errors, 0);

  server.Shutdown();
}

// The full soak: one server, every attack at once, virtual time marching
// forward. Each victim must die by exactly its own counter — and the grace
// path (an evicted reader that *never* resumes) is exercised here, where the
// clock jump expires the goodbye window.
TEST(NetChaosTest, ChaosSoakKillsEachVictimByItsOwnCounter) {
  FakeClock clock(1000 * kMillis);
  SimTransport transport;
  service::QueryRouter router(SharedCatalog(), RouterCfg(1));
  service::QueryRouter ref(SharedCatalog(), RouterCfg(0));

  const std::vector<service::Request> requests = MixedWorkload(6, /*seed=*/31);
  const size_t answer_bytes = MinAnswerFrameBytes(requests[4], &ref);

  ServerConfig cfg = ChaosConfig(&transport, &clock);
  cfg.idle_timeout_millis = 60000;
  cfg.read_progress_timeout_millis = 10000;
  cfg.max_conn_pending_write_bytes = answer_bytes / 2;
  Server server(&router, cfg);
  ASSERT_TRUE(server.Start().ok());

  // Cast: a silent idler, a slow loris, a stalled reader (who will never
  // resume — the grace timer must reap it), two reset victims, and healthy
  // probes woven through.
  SimConn* idler = transport.Connect();
  ASSERT_NE(idler, nullptr);

  FaultSchedule stalled;
  stalled.stall_writes = true;
  SimConn* deaf = transport.Connect(stalled);
  ASSERT_NE(deaf, nullptr);
  deaf->SendToServer(RequestFrame(ToWire(requests[4]), 41));

  SimConn* loris = transport.Connect();
  ASSERT_NE(loris, nullptr);
  const std::vector<uint8_t> loris_frame =
      RequestFrame(ToWire(requests[5]), 51);

  SimConn* rst_a = transport.Connect();
  SimConn* rst_b = transport.Connect();
  ASSERT_NE(rst_a, nullptr);
  ASSERT_NE(rst_b, nullptr);
  rst_a->SendToServer(RequestFrame(ToWire(requests[3]), 61));

  ProbeHealthy(&transport, requests[0], &ref, 1);
  rst_a->Reset();
  rst_b->Reset();

  // The eviction lands in real time (no clock motion needed)...
  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().net.backpressure_closed == 1; }));

  // ...then the loris drips under a frame-start-anchored window.
  const int64_t base_in = router.Stats().net.bytes_in;
  for (int i = 0; i < 3; ++i) {
    loris->SendToServer(loris_frame.data() + i, 1);
    ASSERT_TRUE(WaitFor([&] {
      return router.Stats().net.bytes_in == base_in + i + 1;
    }));
    clock.AdvanceNanos(4000 * kMillis);
    transport.Poke();
  }
  // 12 virtual seconds in: the loris (frame started 12s ago) and the deaf
  // reader (goodbye grace was 10s) are both gone. The idler (60s) survives.
  ASSERT_TRUE(loris->WaitForServerClose());
  ASSERT_TRUE(deaf->WaitForServerClose());

  ProbeHealthy(&transport, requests[1], &ref, 2);

  // March virtual time past the idle window; only the idler is left to die.
  clock.AdvanceNanos(60000 * kMillis);
  transport.Poke();
  ASSERT_TRUE(idler->WaitForServerClose());

  ProbeHealthy(&transport, requests[2], &ref, 3);

  EXPECT_TRUE(WaitFor([&] { return router.Stats().net.idle_closed == 1; }));
  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_EQ(snap.net.idle_closed, 1);           // The idler.
  EXPECT_EQ(snap.net.read_timeout_closed, 1);   // The loris.
  EXPECT_EQ(snap.net.backpressure_closed, 1);   // The deaf reader.
  EXPECT_EQ(snap.net.protocol_errors, 0);
  EXPECT_EQ(snap.net.connections_accepted, 8);  // 5 victims + 3 probes.

  server.Shutdown();
}

}  // namespace
}  // namespace net
}  // namespace qreg
