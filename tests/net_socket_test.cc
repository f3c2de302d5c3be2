// End-to-end socket tests: a real net::Server on a loopback port, driven by
// net::Client. Pipelined batches must come back positionally aligned and
// bit-for-bit equal to in-process QueryRouter::Execute; expired client
// deadlines are rejected at admission without touching the δ-cache; a
// saturated server sheds with typed kResourceExhausted frames (never a
// dropped connection); shutdown drains everything already decoded; malformed
// streams get a typed error frame and a clean close; a query with no finite
// distance to any prototype gets a typed error frame on a connection that
// keeps serving; a port already held is a typed Start() failure that leaves
// no listener behind.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "net/backend.h"
#include "net/client.h"
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

// Spins until `cond` holds or ~2s pass (server-side counters are updated by
// the event loop; tests observe them with a bounded wait, never a bare sleep).
template <typename Cond>
bool WaitFor(Cond cond) {
  for (int i = 0; i < 2000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

WireRequest ToWire(const service::Request& request) {
  WireRequest wire;
  wire.dataset = request.dataset;
  wire.kind = request.kind;
  wire.q = request.q;
  return wire;
}

// Core determinism check, shared by the single-loop, multi-loop, and
// occupied-port tests: a pipelined batch striped across
// `client_conns` connections must come back positionally aligned and
// bit-for-bit equal to the synchronous in-process reference, whatever the
// server's loop topology.
void RunBitForBitOverWire(ServerConfig server_cfg, size_t client_conns) {
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kHybrid;
  cfg.enable_cache = false;  // Cache hits would change AnswerSource.
  cfg.num_threads = 2;
  service::QueryRouter wire_router(SharedCatalog(), cfg);

  service::RouterConfig sync_cfg = cfg;
  sync_cfg.num_threads = 0;  // Fully synchronous reference.
  service::QueryRouter ref_router(SharedCatalog(), sync_cfg);

  Server server(&wire_router, server_cfg);
  const util::Result<Endpoint> ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();
  ASSERT_EQ(server.num_loops(), server_cfg.event_loops);

  // One connection lands on exactly one event loop, so only several of them
  // reach every loop of a multi-loop server.
  std::vector<std::unique_ptr<Client>> clients(client_conns);
  for (std::unique_ptr<Client>& client : clients) {
    client = std::make_unique<Client>();
    ASSERT_TRUE(client->Connect(ep->address, ep->port).ok());
  }

  const std::vector<service::Request> requests =
      MixedWorkload(120, /*seed=*/101);
  std::vector<WireRequest> wire_batch;
  for (const service::Request& r : requests) wire_batch.push_back(ToWire(r));

  // Request j rides connection j % client_conns; every connection pipelines
  // its stripe on its own thread, and the answers scatter back into batch
  // order.
  std::vector<std::vector<WireRequest>> stripes(client_conns);
  for (size_t j = 0; j < wire_batch.size(); ++j) {
    stripes[j % client_conns].push_back(wire_batch[j]);
  }
  std::vector<std::vector<util::Result<service::Answer>>> stripe_results(
      client_conns);
  {
    std::vector<std::thread> threads;
    threads.reserve(client_conns);
    for (size_t s = 0; s < client_conns; ++s) {
      threads.emplace_back([&, s] {
        stripe_results[s] = clients[s]->ExecuteBatch(stripes[s]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::vector<util::Result<service::Answer>> over_wire;
  for (size_t j = 0; j < wire_batch.size(); ++j) {
    over_wire.push_back(
        std::move(stripe_results[j % client_conns][j / client_conns]));
  }
  ASSERT_EQ(over_wire.size(), requests.size());

  for (size_t i = 0; i < requests.size(); ++i) {
    const auto in_process = ref_router.Execute(requests[i]);
    ASSERT_EQ(over_wire[i].ok(), in_process.ok()) << "slot " << i;
    if (!in_process.ok()) {
      EXPECT_EQ(over_wire[i].status().code(), in_process.status().code());
      continue;
    }
    const service::Answer& got = *over_wire[i];
    const service::Answer& want = *in_process;
    EXPECT_EQ(got.kind, want.kind) << "slot " << i;
    EXPECT_EQ(got.source, want.source) << "slot " << i;
    EXPECT_TRUE(BitEq(got.mean, want.mean)) << "slot " << i;
    EXPECT_TRUE(BitEq(got.cache_delta, want.cache_delta)) << "slot " << i;
    EXPECT_EQ(got.used_fallback, want.used_fallback) << "slot " << i;
    EXPECT_EQ(got.exec.tuples_matched, want.exec.tuples_matched) << "slot " << i;
    ASSERT_EQ(got.pieces.size(), want.pieces.size()) << "slot " << i;
    for (size_t p = 0; p < want.pieces.size(); ++p) {
      EXPECT_TRUE(BitEq(got.pieces[p].intercept, want.pieces[p].intercept));
      EXPECT_EQ(got.pieces[p].prototype_id, want.pieces[p].prototype_id);
      EXPECT_TRUE(BitEq(got.pieces[p].weight, want.pieces[p].weight));
      ASSERT_EQ(got.pieces[p].slope.size(), want.pieces[p].slope.size());
      for (size_t s = 0; s < want.pieces[p].slope.size(); ++s) {
        EXPECT_TRUE(BitEq(got.pieces[p].slope[s], want.pieces[p].slope[s]));
      }
    }
  }

  // Wire-level counters reach the router's service snapshot. The event loops
  // flush their activity batches after the client may already have read the
  // bytes, hence the bounded wait rather than an immediate snapshot.
  EXPECT_TRUE(WaitFor([&] {
    const service::ServiceSnapshot snap = wire_router.Stats();
    return snap.net.connections_accepted >=
               static_cast<int64_t>(client_conns) &&
           snap.net.frames_decoded >= static_cast<int64_t>(requests.size()) &&
           snap.net.bytes_in > 0 && snap.net.bytes_out > 0;
  }));

  // Per-loop attribution must roll up to exactly the aggregate counters.
  {
    const service::ServiceSnapshot snap = wire_router.Stats();
    ASSERT_FALSE(snap.net_loops.empty());
    EXPECT_LE(snap.net_loops.size(), server.num_loops());
    service::NetActivity sum;
    for (const service::NetActivity& l : snap.net_loops) sum += l;
    EXPECT_EQ(sum.frames_decoded, snap.net.frames_decoded);
    EXPECT_EQ(sum.connections_accepted, snap.net.connections_accepted);
    EXPECT_EQ(sum.bytes_in, snap.net.bytes_in);
    EXPECT_EQ(sum.bytes_out, snap.net.bytes_out);
  }

  for (std::unique_ptr<Client>& client : clients) client->Close();
  server.Shutdown();
}

TEST(NetServerTest, PipelinedBatchMatchesInProcessBitForBit) {
  RunBitForBitOverWire(ServerConfig(), /*client_conns=*/1);
}

TEST(NetServerTest, MultiLoopPipelinedBatchesMatchInProcessBitForBit) {
  ServerConfig cfg;
  cfg.event_loops = 4;
  RunBitForBitOverWire(cfg, /*client_conns=*/8);
}

// A port another server holds is a typed Start() failure at every loop
// count — there is no fallback topology — and the failed Start() leaves
// nothing bound: once the holder shuts down, a fresh four-loop server on
// that port serves every connection. A leaked SO_REUSEPORT listener would
// swallow some of those connections and stall the batch.
TEST(NetServerTest, OccupiedPortFailsStartAndLeavesNoListenerBehind) {
  service::RouterConfig rcfg;
  rcfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), rcfg);

  Server holder(&router);
  const util::Result<Endpoint> held = holder.Start();
  ASSERT_TRUE(held.ok()) << held.status();

  for (size_t loops : {size_t{1}, size_t{4}}) {
    ServerConfig cfg;
    cfg.port = held->port;
    cfg.event_loops = loops;
    Server second(&router, cfg);
    const util::Result<Endpoint> ep = second.Start();
    ASSERT_FALSE(ep.ok()) << "loops=" << loops;
    EXPECT_EQ(ep.status().code(), util::StatusCode::kIoError) << ep.status();
    EXPECT_FALSE(second.running());
    EXPECT_EQ(second.num_loops(), 0u);
  }
  holder.Shutdown();

  ServerConfig fresh;
  fresh.port = held->port;
  fresh.event_loops = 4;
  RunBitForBitOverWire(fresh, /*client_conns=*/8);
}

TEST(NetServerTest, ConfigValidateRejectsBadConfigsBeforeAnySocket) {
  service::RouterConfig rcfg;
  rcfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), rcfg);

  {
    ServerConfig cfg;
    cfg.executor_threads = 0;
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument);
    Server server(&router, cfg);
    const auto ep = server.Start();
    ASSERT_FALSE(ep.ok());
    EXPECT_EQ(ep.status().code(), util::StatusCode::kInvalidArgument);
  }
  {
    ServerConfig cfg;
    cfg.event_loops = 0;
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    ServerConfig cfg;
    cfg.event_loops = kMaxEventLoops + 1;
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    ServerConfig cfg;
    cfg.bind_address = "not-an-address";
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument);
    Server server(&router, cfg);
    EXPECT_EQ(server.Start().status().code(),
              util::StatusCode::kInvalidArgument);
  }
  {
    ServerConfig cfg;
    cfg.max_connections = 0;
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    // A zero pipeline bound would shed every request the server decodes.
    ServerConfig cfg;
    cfg.max_pipeline = 0;
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument);
    Server server(&router, cfg);
    EXPECT_EQ(server.Start().status().code(),
              util::StatusCode::kInvalidArgument);
  }
  {
    // A negative drain timeout would turn every Shutdown() into an instant
    // force-close; reject it as the typo it is.
    ServerConfig cfg;
    cfg.drain_timeout_millis = -1;
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument);
    Server server(&router, cfg);
    EXPECT_EQ(server.Start().status().code(),
              util::StatusCode::kInvalidArgument);
  }
  {
    // kSim without a transport has nothing to simulate on.
    ServerConfig cfg;
    cfg.backend = BackendKind::kSim;
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument);
    Server server(&router, cfg);
    EXPECT_EQ(server.Start().status().code(),
              util::StatusCode::kInvalidArgument);
  }
  {
    // Negative lifecycle timeouts are typos, not choices (0 = disabled).
    ServerConfig cfg;
    cfg.idle_timeout_millis = -1;
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    ServerConfig cfg;
    cfg.read_progress_timeout_millis = -5;
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument);
  }
  {
    // A per-connection write cap above the per-loop aggregate could never
    // fire — one connection would always trip the loop cap first. Reject
    // the inverted pair outright.
    ServerConfig cfg;
    cfg.max_conn_pending_write_bytes = 1024;
    cfg.max_loop_pending_write_bytes = 512;
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument);
    Server server(&router, cfg);
    EXPECT_EQ(server.Start().status().code(),
              util::StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(ServerConfig().Validate().ok());
  {
    // drain_timeout_millis == 0 is legal: "force-close immediately" is a
    // choice, not a typo.
    ServerConfig cfg;
    cfg.drain_timeout_millis = 0;
    EXPECT_TRUE(cfg.Validate().ok());
  }
  {
    // Disabling one or both write caps is legal, as is conn-cap-only.
    ServerConfig cfg;
    cfg.idle_timeout_millis = 0;
    cfg.read_progress_timeout_millis = 0;
    cfg.max_conn_pending_write_bytes = 1024;
    cfg.max_loop_pending_write_bytes = 0;
    EXPECT_TRUE(cfg.Validate().ok());
  }
}

TEST(NetServerTest, StartReturnsBoundEndpoint) {
  service::RouterConfig rcfg;
  rcfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), rcfg);

  ServerConfig cfg;
  cfg.event_loops = 2;
  Server server(&router, cfg);
  const util::Result<Endpoint> ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();
  EXPECT_EQ(ep->address, "127.0.0.1");
  EXPECT_GT(ep->port, 0);  // Ephemeral bind resolved to a concrete port.
  EXPECT_EQ(ep->ToString(), "127.0.0.1:" + std::to_string(ep->port));
  EXPECT_EQ(server.num_loops(), 2u);

  // The endpoint is connectable as reported.
  Client client;
  ASSERT_TRUE(client.Connect(ep->address, ep->port).ok());
  EXPECT_TRUE(client.Ping().ok());
  client.Close();
  server.Shutdown();
}

TEST(NetServerTest, MultiLoopShutdownDrainsEveryLoopsDecodedRequests) {
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kHybrid;
  cfg.enable_cache = false;
  cfg.num_threads = 2;
  service::QueryRouter router(SharedCatalog(), cfg);

  ServerConfig server_cfg;
  server_cfg.event_loops = 4;
  Server server(&router, server_cfg);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();

  // Several connections (landing on different loops) each pipeline requests
  // without reading a single response.
  constexpr size_t kConns = 6;
  constexpr int kPerConn = 20;
  std::vector<std::unique_ptr<Client>> clients(kConns);
  for (std::unique_ptr<Client>& client : clients) {
    client = std::make_unique<Client>();
    ASSERT_TRUE(client->Connect(ep->address, ep->port).ok());
  }
  const std::vector<service::Request> requests =
      MixedWorkload(kPerConn, /*seed=*/77);
  for (size_t c = 0; c < kConns; ++c) {
    for (int i = 0; i < kPerConn; ++i) {
      WireRequest wire = ToWire(requests[static_cast<size_t>(i)]);
      wire.kind = service::QueryKind::kQ1MeanValue;  // Small answer frames.
      ASSERT_TRUE(
          clients[c]->SendRequest(wire, static_cast<uint64_t>(i) + 1).ok());
    }
  }

  // Wait until every loop has decoded its share, then shut down: drain
  // semantics require every decoded request on every loop to be answered
  // and flushed before its connection closes.
  ASSERT_TRUE(WaitFor([&] {
    return router.Stats().net.frames_decoded >=
           static_cast<int64_t>(kConns) * kPerConn;
  }));
  server.Shutdown();

  for (size_t c = 0; c < kConns; ++c) {
    int answered = 0;
    for (;;) {
      uint64_t id = 0;
      auto response = clients[c]->ReadResponse(&id);
      if (!response.ok() &&
          response.status().code() == util::StatusCode::kIoError) {
        break;  // Clean EOF after the drained responses.
      }
      ASSERT_TRUE(response.ok()) << "conn " << c << ": " << response.status();
      ++answered;
      if (answered == kPerConn) break;
    }
    EXPECT_EQ(answered, kPerConn) << "conn " << c;
  }

  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_EQ(snap.net.protocol_errors, 0);
  EXPECT_EQ(snap.net.connections_closed, static_cast<int64_t>(kConns));
}

TEST(NetServerTest, GlobalConnectionCapHoldsAcrossLoops) {
  service::RouterConfig rcfg;
  rcfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), rcfg);

  ServerConfig cfg;
  cfg.event_loops = 4;
  cfg.max_connections = 6;  // Global cap, NOT per loop.
  Server server(&router, cfg);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();

  // 24 concurrent connects spread across 4 accept-sharded loops. If the cap
  // were per-loop state, up to 4×6 could survive; the shared atomic must
  // hold the global line at 6.
  constexpr size_t kAttempts = 24;
  std::vector<std::unique_ptr<Client>> clients(kAttempts);
  std::vector<int> alive(kAttempts, 0);
  {
    std::vector<std::thread> threads;
    threads.reserve(kAttempts);
    for (size_t i = 0; i < kAttempts; ++i) {
      threads.emplace_back([&, i] {
        clients[i] = std::make_unique<Client>();
        if (!clients[i]->Connect(ep->address, ep->port).ok()) return;
        // An over-cap connection is closed right after accept: the ping
        // sees EOF. A surviving one pongs.
        alive[i] = clients[i]->Ping().ok() ? 1 : 0;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  int survivors = 0;
  for (int a : alive) survivors += a;
  EXPECT_LE(survivors, 6);
  EXPECT_GE(survivors, 1);

  // Freed capacity is reusable: after closing everything, a fresh
  // connection works (the shared count was decremented on every close).
  for (auto& c : clients) c->Close();
  Client fresh;
  ASSERT_TRUE(WaitFor([&] {
    fresh.Close();
    return fresh.Connect(ep->address, ep->port).ok() && fresh.Ping().ok();
  }));
  fresh.Close();
  server.Shutdown();
}

TEST(NetServerTest, ExpiredClientDeadlineRejectedAtAdmissionWithoutCacheTouch) {
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kExactOnly;  // The cache's only path.
  cfg.enable_cache = true;
  cfg.cache.delta_min = 0.9;
  cfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), cfg);

  Server server(&router);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();
  Client client;
  ASSERT_TRUE(client.Connect(ep->address, ep->port).ok());

  // Warm the service (and the cache) with an unbounded request.
  WireRequest warm = WireRequest::Q1("r1", query::Query({0.4, 0.6}, 0.12));
  auto warm_answer = client.Execute(warm);
  ASSERT_TRUE(warm_answer.ok()) << warm_answer.status();

  const int64_t lookups_before = router.CacheStats().lookups;
  ASSERT_GT(lookups_before, 0);  // Else the check below is vacuous.

  // A 1ns budget is expired by the time admission runs: typed rejection, and
  // the δ-cache must not even be consulted (a hit may never mask the status).
  WireRequest expired = warm;
  expired.deadline_budget_nanos = 1;
  auto rejected = client.Execute(expired);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(router.CacheStats().lookups, lookups_before);

  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_GE(snap.deadline_exceeded, 1);

  client.Close();
  server.Shutdown();
}

TEST(NetServerTest, PipelinedExactBurstOnOneWorkerIsAllAnswered) {
  service::RouterConfig cfg;
  // Exact-only, so every request reaches the executors: the event loop
  // answers model-routed requests itself.
  cfg.policy = service::RoutePolicy::kExactOnly;
  cfg.enable_cache = false;  // Every answer is a fresh scan.
  cfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), cfg);
  cfg.num_threads = 0;
  service::QueryRouter ref(SharedCatalog(), cfg);

  Server server(&router);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();
  Client client;
  ASSERT_TRUE(client.Connect(ep->address, ep->port).ok());

  const std::vector<service::Request> requests = MixedWorkload(200, /*seed=*/33);
  std::vector<WireRequest> batch;
  for (const service::Request& r : requests) batch.push_back(ToWire(r));

  // One helper worker and a 200-deep pipeline: the executors' batches run on
  // their own threads with the worker helping, so nothing is refused.
  const auto results = client.ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const service::ExecResult want = ref.Execute(requests[i]);
    ASSERT_EQ(results[i].ok(), want.ok()) << "slot " << i << ": "
                                          << results[i].status();
    if (!want.ok()) {
      EXPECT_EQ(results[i].status().code(), want.status().code());
      continue;
    }
    EXPECT_EQ(results[i]->source, service::AnswerSource::kExact);
    EXPECT_TRUE(BitEq(results[i]->mean, want->mean)) << "slot " << i;
    ASSERT_EQ(results[i]->pieces.size(), want->pieces.size()) << "slot " << i;
    for (size_t p = 0; p < want->pieces.size(); ++p) {
      EXPECT_TRUE(BitEq(results[i]->pieces[p].intercept,
                        want->pieces[p].intercept));
      ASSERT_EQ(results[i]->pieces[p].slope.size(),
                want->pieces[p].slope.size());
      for (size_t s = 0; s < want->pieces[p].slope.size(); ++s) {
        EXPECT_TRUE(
            BitEq(results[i]->pieces[p].slope[s], want->pieces[p].slope[s]));
      }
    }
  }
  EXPECT_EQ(router.Stats().shed, 0);

  // The connection still round-trips.
  auto after = client.Execute(ToWire(requests[0]));
  const service::ExecResult want_after = ref.Execute(requests[0]);
  ASSERT_EQ(after.ok(), want_after.ok());
  if (after.ok()) {
    EXPECT_TRUE(BitEq(after->mean, want_after->mean));
  }

  client.Close();
  server.Shutdown();
}

// Run to completion over a real socket: a pipelined in-region batch is
// answered entirely by the event loop — no executor hand-off — and every
// answer is bit-for-bit the in-process one.
TEST(NetServerTest, InRegionPipelinedBatchIsAnsweredOnTheLoop) {
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kHybrid;
  cfg.enable_cache = false;
  cfg.num_threads = 2;
  service::QueryRouter router(SharedCatalog(), cfg);
  cfg.num_threads = 0;
  service::QueryRouter ref(SharedCatalog(), cfg);

  std::vector<service::Request> in_region;
  for (const service::Request& r : MixedWorkload(200, /*seed=*/91)) {
    const service::ExecResult want = ref.Execute(r);
    if (want.ok() && want->source == service::AnswerSource::kModel) {
      in_region.push_back(r);
    }
  }
  ASSERT_GE(in_region.size(), 32u);

  Server server(&router);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();
  Client client;
  ASSERT_TRUE(client.Connect(ep->address, ep->port).ok());
  std::vector<WireRequest> batch;
  for (const service::Request& r : in_region) batch.push_back(ToWire(r));
  const auto results = client.ExecuteBatch(batch);
  ASSERT_EQ(results.size(), in_region.size());
  for (size_t i = 0; i < in_region.size(); ++i) {
    const service::ExecResult want = ref.Execute(in_region[i]);
    ASSERT_TRUE(results[i].ok()) << "slot " << i << ": " << results[i].status();
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(results[i]->source, service::AnswerSource::kModel);
    EXPECT_TRUE(BitEq(results[i]->mean, want->mean)) << "slot " << i;
    ASSERT_EQ(results[i]->pieces.size(), want->pieces.size()) << "slot " << i;
    for (size_t p = 0; p < want->pieces.size(); ++p) {
      EXPECT_TRUE(BitEq(results[i]->pieces[p].intercept,
                        want->pieces[p].intercept));
      EXPECT_TRUE(BitEq(results[i]->pieces[p].weight, want->pieces[p].weight));
      ASSERT_EQ(results[i]->pieces[p].slope.size(),
                want->pieces[p].slope.size());
      for (size_t s = 0; s < want->pieces[p].slope.size(); ++s) {
        EXPECT_TRUE(
            BitEq(results[i]->pieces[p].slope[s], want->pieces[p].slope[s]));
      }
    }
  }

  // The loop records its counters before it flushes the answers.
  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_EQ(snap.net.answered_on_loop, static_cast<int64_t>(in_region.size()));
  EXPECT_EQ(snap.net.dispatched_to_executors, 0);
  EXPECT_EQ(snap.model_answers, static_cast<int64_t>(in_region.size()));
  EXPECT_EQ(snap.total_queries, static_cast<int64_t>(in_region.size()));

  client.Close();
  server.Shutdown();
}

// In-region, out-of-region, in-region: the responses come back in request
// order whichever thread answered each, and the exact answer is unchanged.
TEST(NetServerTest, MixedBurstComesBackInRequestOrder) {
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kHybrid;
  cfg.enable_cache = false;
  cfg.num_threads = 2;
  service::QueryRouter router(SharedCatalog(), cfg);
  cfg.num_threads = 0;
  service::QueryRouter ref(SharedCatalog(), cfg);

  std::vector<service::Request> in_region;
  for (const service::Request& r : MixedWorkload(40, /*seed=*/93)) {
    const service::ExecResult want = ref.Execute(r);
    if (want.ok() && want->source == service::AnswerSource::kModel) {
      in_region.push_back(r);
    }
  }
  ASSERT_GE(in_region.size(), 2u);
  // θ far above the trained radii: exact-routed, and the ball covers rows.
  const service::Request out =
      service::Request::Q2("r1", query::Query({0.5, 0.5}, 0.5));
  const std::vector<service::Request> burst = {in_region[0], out,
                                               in_region[1]};
  const std::vector<service::AnswerSource> sources = {
      service::AnswerSource::kModel, service::AnswerSource::kExact,
      service::AnswerSource::kModel};

  Server server(&router);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();
  Client client;
  ASSERT_TRUE(client.Connect(ep->address, ep->port).ok());
  for (size_t i = 0; i < burst.size(); ++i) {
    ASSERT_TRUE(client.SendRequest(ToWire(burst[i]), i + 1).ok());
  }
  for (size_t i = 0; i < burst.size(); ++i) {
    uint64_t id = 0;
    const auto got = client.ReadResponse(&id);
    EXPECT_EQ(id, i + 1) << "response order broke";
    ASSERT_TRUE(got.ok()) << got.status();
    const service::ExecResult want = ref.Execute(burst[i]);
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(got->source, sources[i]) << "slot " << i;
    EXPECT_EQ(got->source, want->source) << "slot " << i;
    EXPECT_TRUE(BitEq(got->mean, want->mean)) << "slot " << i;
    EXPECT_EQ(got->exec.tuples_matched, want->exec.tuples_matched);
    ASSERT_EQ(got->pieces.size(), want->pieces.size()) << "slot " << i;
    for (size_t p = 0; p < want->pieces.size(); ++p) {
      EXPECT_TRUE(BitEq(got->pieces[p].intercept, want->pieces[p].intercept));
      ASSERT_EQ(got->pieces[p].slope.size(), want->pieces[p].slope.size());
      for (size_t s = 0; s < want->pieces[p].slope.size(); ++s) {
        EXPECT_TRUE(BitEq(got->pieces[p].slope[s], want->pieces[p].slope[s]));
      }
    }
  }

  // How the three frames split across reads decides where the last one
  // ran; the first always runs on the loop, the exact one never does.
  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_GE(snap.net.answered_on_loop, 1);
  EXPECT_GE(snap.net.dispatched_to_executors, 1);
  EXPECT_EQ(snap.net.answered_on_loop + snap.net.dispatched_to_executors, 3);
  EXPECT_EQ(snap.exact_fallbacks, 1);
  EXPECT_EQ(snap.model_answers, 2);

  client.Close();
  server.Shutdown();
}

TEST(NetServerTest, ServerPipelineCapShedsAtAdmission) {
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kHybrid;
  cfg.enable_cache = false;
  cfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), cfg);

  ServerConfig server_cfg;
  server_cfg.max_pipeline = 8;  // Tiny per-connection backlog bound.
  Server server(&router, server_cfg);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();
  Client client;
  ASSERT_TRUE(client.Connect(ep->address, ep->port).ok());

  const std::vector<service::Request> requests = MixedWorkload(64, /*seed=*/55);
  std::vector<WireRequest> batch;
  for (const service::Request& r : requests) batch.push_back(ToWire(r));
  const auto results = client.ExecuteBatch(batch);

  int64_t ok = 0, shed = 0;
  for (const auto& r : results) {
    if (r.ok()) ++ok;
    if (!r.ok() && r.status().code() == util::StatusCode::kResourceExhausted) ++shed;
  }
  EXPECT_EQ(ok + shed, static_cast<int64_t>(batch.size()));
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);  // 64 frames into an 8-deep pipeline must shed.

  client.Close();
  server.Shutdown();
}

TEST(NetServerTest, ShutdownDrainsDecodedRequestsThenCloses) {
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kHybrid;
  cfg.enable_cache = false;
  cfg.num_threads = 2;
  service::QueryRouter router(SharedCatalog(), cfg);

  Server server(&router);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();
  Client client;
  ASSERT_TRUE(client.Connect(ep->address, ep->port).ok());

  // Pipeline 50 small Q1s without reading a single response.
  constexpr int kRequests = 50;
  const std::vector<service::Request> requests =
      MixedWorkload(kRequests, /*seed=*/77);
  for (int i = 0; i < kRequests; ++i) {
    WireRequest wire = ToWire(requests[static_cast<size_t>(i)]);
    wire.kind = service::QueryKind::kQ1MeanValue;  // Small answer frames.
    ASSERT_TRUE(client.SendRequest(wire, static_cast<uint64_t>(i) + 1).ok());
  }

  // Wait until the server has *decoded* all 50, then shut down: drain
  // semantics require every decoded request to be answered and flushed.
  ASSERT_TRUE(WaitFor(
      [&] { return router.Stats().net.frames_decoded >= kRequests; }));
  server.Shutdown();

  int answered = 0;
  for (;;) {
    uint64_t id = 0;
    auto response = client.ReadResponse(&id);
    if (!response.ok() &&
        response.status().code() == util::StatusCode::kIoError) {
      break;  // Clean EOF after the drained responses.
    }
    ASSERT_TRUE(response.ok()) << response.status();
    ++answered;
    if (answered == kRequests) break;
  }
  EXPECT_EQ(answered, kRequests);

  // And the drained server refused nothing mid-flight: no protocol errors,
  // connection accounted closed.
  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_EQ(snap.net.protocol_errors, 0);
  EXPECT_TRUE(WaitFor([&] {
    return router.Stats().net.connections_closed >= 1;
  }));
}

TEST(NetServerTest, MalformedStreamGetsTypedErrorFrameAndCleanClose) {
  service::RouterConfig cfg;
  cfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), cfg);
  Server server(&router);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();

  // Raw socket: send garbage that cannot be a frame header.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep->port);
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char garbage[64] = "this is definitely not a QREG frame header......";
  ASSERT_EQ(::write(fd, garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));

  // The server answers with one typed kError frame (request_id 0), then EOF.
  FrameDecoder decoder;
  Frame frame;
  bool got_error_frame = false;
  bool got_eof = false;
  uint8_t buf[4096];
  for (int i = 0; i < 2000 && !got_eof; ++i) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      decoder.Feed(buf, static_cast<size_t>(n));
      while (decoder.Next(&frame) == FrameDecoder::Event::kFrame) {
        ASSERT_EQ(frame.header.type, FrameType::kError);
        EXPECT_EQ(frame.header.request_id, 0u);
        util::Status transported;
        ASSERT_TRUE(DecodeStatus(frame.payload.data(), frame.payload.size(),
                                 &transported)
                        .ok());
        EXPECT_EQ(transported.code(), util::StatusCode::kInvalidArgument);
        got_error_frame = true;
      }
    } else if (n == 0) {
      got_eof = true;
    } else {
      break;
    }
  }
  ::close(fd);
  EXPECT_TRUE(got_error_frame);
  EXPECT_TRUE(got_eof);
  EXPECT_TRUE(WaitFor([&] { return router.Stats().net.protocol_errors >= 1; }));

  // The poisoned connection took nothing else down: a fresh client works.
  Client client;
  ASSERT_TRUE(client.Connect(ep->address, ep->port).ok());
  ASSERT_TRUE(client.Ping().ok());
  auto answer = client.Execute(
      WireRequest::Q1("r1", query::Query({0.4, 0.6}, 0.12)));
  EXPECT_TRUE(answer.ok()) << answer.status();

  client.Close();
  server.Shutdown();
}

TEST(NetServerTest, OversizedFramePoisonPersistsOverSocket) {
  service::RouterConfig cfg;
  cfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), cfg);
  Server server(&router);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();

  // One burst: a frame whose header announces a payload over the 16 MiB
  // ceiling, followed by a perfectly well-formed request. The poison must
  // persist — exactly one typed kError frame (kOutOfRange, request_id 0),
  // then EOF; the valid frame is never decoded, let alone answered.
  std::vector<uint8_t> burst;
  AppendFrame(&burst, FrameType::kRequest, 1,
              EncodeRequest(WireRequest::Q1("r1", query::Query({0.4, 0.6},
                                                               0.12))));
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(burst.data() + 16, &huge, sizeof(huge));  // payload_len field.
  AppendFrame(&burst, FrameType::kRequest, 2,
              EncodeRequest(WireRequest::Q1("r1", query::Query({0.4, 0.6},
                                                               0.12))));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep->port);
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));

  FrameDecoder decoder;
  Frame frame;
  int error_frames = 0;
  bool got_eof = false;
  uint8_t buf[4096];
  for (int i = 0; i < 2000 && !got_eof; ++i) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      decoder.Feed(buf, static_cast<size_t>(n));
      while (decoder.Next(&frame) == FrameDecoder::Event::kFrame) {
        ASSERT_EQ(frame.header.type, FrameType::kError);
        EXPECT_EQ(frame.header.request_id, 0u);
        util::Status transported;
        ASSERT_TRUE(DecodeStatus(frame.payload.data(), frame.payload.size(),
                                 &transported)
                        .ok());
        EXPECT_EQ(transported.code(), util::StatusCode::kOutOfRange);
        ++error_frames;
      }
    } else if (n == 0) {
      got_eof = true;
    } else {
      break;
    }
  }
  ::close(fd);
  EXPECT_EQ(error_frames, 1);
  EXPECT_TRUE(got_eof);
  EXPECT_TRUE(WaitFor([&] { return router.Stats().net.protocol_errors == 1; }));
  EXPECT_EQ(router.Stats().net.frames_decoded, 0);
  EXPECT_EQ(router.Stats().total_queries, 0);

  server.Shutdown();
}

TEST(NetClientTest, RecvTimeoutReturnsTypedDeadlineExceededOnStalledServer) {
  // A listener that never accepts: the TCP handshake still completes via
  // the backlog, so the client connects and sends — and before the
  // poll-with-timeout receive path, ReadResponse would park in read()
  // forever. Now the silence comes back as a typed kDeadlineExceeded.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);

  Client client;
  client.set_recv_timeout_millis(50);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());

  const auto result =
      client.Execute(WireRequest::Q1("r1", query::Query({0.4, 0.6}, 0.12)));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  // The timed-out stream is desynced (the answer could still arrive later),
  // so the client closes it.
  EXPECT_FALSE(client.connected());
  ::close(lfd);
}

TEST(NetServerTest, UnknownDatasetComesBackAsTypedNotFound) {
  service::RouterConfig cfg;
  cfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), cfg);
  Server server(&router);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();
  Client client;
  ASSERT_TRUE(client.Connect(ep->address, ep->port).ok());

  auto answer = client.Execute(
      WireRequest::Q1("no-such-dataset", query::Query({0.5, 0.5}, 0.1)));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), util::StatusCode::kNotFound);

  client.Close();
  server.Shutdown();
}

// A finite center whose squared distance to every prototype overflows to
// +inf: the model-only router refuses it with kInvalidArgument. Over the
// wire that is one kError frame for the request's id, and the same
// connection goes on serving.
TEST(NetServerTest, QueryWithNoFiniteDistanceGetsTypedErrorFrame) {
  service::RouterConfig cfg;
  cfg.policy = service::RoutePolicy::kModelOnly;
  cfg.enable_cache = false;
  cfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), cfg);
  Server server(&router);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 5;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep->port);
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Sends one request frame and reads back the one response frame.
  FrameDecoder decoder;
  const auto round_trip = [&](uint64_t request_id, const WireRequest& request,
                              Frame* response) {
    std::vector<uint8_t> out;
    AppendRequestFrame(&out, request_id, request);
    if (::write(fd, out.data(), out.size()) !=
        static_cast<ssize_t>(out.size())) {
      return false;
    }
    uint8_t buf[4096];
    while (decoder.Next(response) != FrameDecoder::Event::kFrame) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) return false;
      decoder.Feed(buf, static_cast<size_t>(n));
    }
    return true;
  };

  Frame frame;
  ASSERT_TRUE(round_trip(
      7, WireRequest::Q1("r1", query::Query({1e200, 1e200}, 0.1)), &frame));
  ASSERT_EQ(frame.header.type, FrameType::kError);
  EXPECT_EQ(frame.header.request_id, 7u);
  util::Status transported;
  ASSERT_TRUE(
      DecodeStatus(frame.payload.data(), frame.payload.size(), &transported)
          .ok());
  EXPECT_EQ(transported.code(), util::StatusCode::kInvalidArgument);

  ASSERT_TRUE(round_trip(
      8, WireRequest::Q1("r1", query::Query({0.4, 0.6}, 0.12)), &frame));
  ASSERT_EQ(frame.header.type, FrameType::kAnswer);
  EXPECT_EQ(frame.header.request_id, 8u);
  auto answer = DecodeAnswer(frame.payload.data(), frame.payload.size());
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->source, service::AnswerSource::kModel);
  ::close(fd);

  const service::ServiceSnapshot snap = router.Stats();
  EXPECT_EQ(snap.net.answered_on_loop, 2);
  EXPECT_EQ(snap.errors, 1);
  EXPECT_EQ(snap.net.protocol_errors, 0);
  server.Shutdown();
}

TEST(NetServerTest, PingPongAndServerIsSingleUse) {
  service::RouterConfig cfg;
  cfg.num_threads = 1;
  service::QueryRouter router(SharedCatalog(), cfg);
  Server server(&router);
  const auto ep = server.Start();
  ASSERT_TRUE(ep.ok()) << ep.status();
  EXPECT_TRUE(server.running());

  Client client;
  ASSERT_TRUE(client.Connect(ep->address, ep->port).ok());
  EXPECT_TRUE(client.Ping().ok());
  client.Close();
  server.Shutdown();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.Start().status().code(),
            util::StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------- client failures --

TEST(NetClientTest, ResetConnectionFailsEveryBatchSlotAndDisconnects) {
  // A throwaway listener accepts the client's connection and resets it
  // (SO_LINGER{1,0} close sends RST, not FIN). The stream is dead, so every
  // slot of the next batch fails as a transport error and the client closes
  // its socket: connected() is a truthful liveness signal.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  const int accepted = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(accepted, 0);
  struct linger hard_reset = {1, 0};
  ::setsockopt(accepted, SOL_SOCKET, SO_LINGER, &hard_reset,
               sizeof(hard_reset));
  ::close(accepted);

  const std::vector<service::Request> requests = MixedWorkload(4, /*seed=*/17);
  std::vector<WireRequest> batch;
  for (const service::Request& r : requests) batch.push_back(ToWire(r));
  const auto results = client.ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_FALSE(results[i].ok()) << "slot " << i;
    EXPECT_EQ(results[i].status().code(), util::StatusCode::kIoError)
        << "slot " << i << ": " << results[i].status();
  }
  EXPECT_FALSE(client.connected());
  ::close(lfd);
}

TEST(NetClientTest, BatchOnNeverConnectedClientIsTypedFailedPrecondition) {
  Client client;
  const auto results = client.ExecuteBatch(
      {WireRequest::Q1("r1", query::Query({0.5}, 0.1)),
       WireRequest::Q1("r1", query::Query({0.4}, 0.1))});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
  }
  EXPECT_FALSE(client.connected());
}

}  // namespace
}  // namespace net
}  // namespace qreg
