#include "layer_trace.h"

#include <algorithm>
#include <string>

#include "service/answer_cache.h"
#include "service/service_stats.h"
#include "util/timer.h"

namespace qreg {
namespace perfbench {

namespace {

constexpr int64_t kProbeLimit = 5000;
constexpr size_t kMicroLimit = 20000;
constexpr double kExactBudgetSeconds = 1.5;

// Keeps timed results observable so the compiler cannot drop the work.
volatile double g_sink = 0.0;

const char* Group(service::QueryKind kind) {
  return kind == service::QueryKind::kQ1MeanValue ? "Q1" : "Q2";
}

double PerCall(int64_t nanos, size_t calls) {
  return calls > 0 ? static_cast<double>(nanos) / static_cast<double>(calls) : 0.0;
}

// The hybrid router's path for an uncached request (every workload routes
// kHybrid): true = model.
bool RoutesToModel(const service::RouterConfig& cfg, const core::LlmModel& model,
                   double vigilance, const query::Query& q, int64_t* core_ns) {
  const int64_t t = util::NowNanos();
  const double dist = model.NearestPrototypeDistance(q);
  *core_ns += util::NowNanos() - t;
  return dist <= cfg.rho_scale * vigilance;
}

// Model or exact answer for `item`, in the cache's payload shape.
service::CachedAnswer ComputeAnswer(const Item& item, bool use_model,
                             const core::LlmModel& model,
                             const query::ExactEngine& engine) {
  service::CachedAnswer a;
  a.q = item.q;
  const bool q1 = item.kind == service::QueryKind::kQ1MeanValue;
  if (use_model) {
    if (q1) {
      a.mean = model.PredictMean(item.q).value();
    } else {
      a.pieces = model.RegressionQuery(item.q).value();
    }
  } else if (q1) {
    auto r = engine.MeanValue(item.q);
    a.mean = r.ok() ? r->mean : 0.0;
  } else {
    auto fit = engine.Regression(item.q);
    if (fit.ok()) {
      core::LocalLinearModel m;
      m.intercept = fit->intercept;
      m.slope = fit->slope;
      a.pieces.push_back(std::move(m));
    }
  }
  return a;
}

// One request's calls into the router's children, each timed.
struct ChildSpans {
  int64_t lookup_ns = 0;
  int64_t insert_ns = 0;
  int64_t core_ns = 0;
  int64_t query_ns = 0;
  bool looked_up = false;
  bool inserted = false;
};

// What the router does for `item`, call by call: the cache lookup (when the
// cache is on), the hybrid route test, the model or exact answer, and the
// cache insert of a miss.
ChildSpans ReplayChildren(const WorkloadSpec& spec, const Item& item,
                          const core::LlmModel& model, double vigilance,
                          const query::ExactEngine& engine,
                          service::AnswerCache* cache) {
  ChildSpans c;
  const bool cached = spec.router.enable_cache;
  int64_t t = 0;
  if (cached) {
    service::CachedAnswer hit;
    t = util::NowNanos();
    const bool found = cache->Lookup(Group(item.kind), item.q, &hit);
    c.lookup_ns = util::NowNanos() - t;
    c.looked_up = true;
    if (found) return c;
  }
  int64_t route_ns = 0;
  const bool use_model = RoutesToModel(spec.router, model, vigilance, item.q, &route_ns);
  t = util::NowNanos();
  service::CachedAnswer a = ComputeAnswer(item, use_model, model, engine);
  const int64_t answer_ns = util::NowNanos() - t;
  c.core_ns = route_ns + (use_model ? answer_ns : 0);
  c.query_ns = use_model ? 0 : answer_ns;
  if (!cached) return c;
  t = util::NowNanos();
  cache->Insert(Group(item.kind), std::move(a));
  c.insert_ns = util::NowNanos() - t;
  c.inserted = true;
  return c;
}

void AddNetMicro(const std::vector<net::WireRequest>& wire,
                 const std::vector<service::Answer>& answers, MetricSet* out) {
  const size_t n = std::min(wire.size(), kMicroLimit);
  std::vector<uint8_t> stream;
  std::vector<uint8_t> buf;
  int64_t encode_ns = 0;
  for (size_t i = 0; i < n; ++i) {
    buf.clear();
    const int64_t t = util::NowNanos();
    const std::vector<uint8_t> payload = net::EncodeRequest(wire[i]);
    net::AppendFrame(&buf, net::FrameType::kRequest, i + 1, payload);
    encode_ns += util::NowNanos() - t;
    stream.insert(stream.end(), buf.begin(), buf.end());
  }
  out->Add("net.request_encode_ns", PerCall(encode_ns, n), "ns");
  out->Add("net.bytes_per_request",
           n > 0 ? static_cast<double>(stream.size()) / static_cast<double>(n) : 0.0,
           "bytes");

  // Decode the recorded request stream as a server loop would: socket-sized
  // chunks into a FrameDecoder, then each payload into a request.
  constexpr size_t kChunk = 64 * 1024;
  net::FrameDecoder decoder;
  net::Frame frame;
  size_t frames = 0;
  int64_t t = util::NowNanos();
  for (size_t off = 0; off < stream.size(); off += kChunk) {
    decoder.Feed(stream.data() + off, std::min(kChunk, stream.size() - off));
    while (decoder.Next(&frame) == net::FrameDecoder::Event::kFrame) {
      auto req = net::DecodeRequest(frame.payload.data(), frame.payload.size());
      if (req.ok()) g_sink = g_sink + req->q.theta;
      ++frames;
    }
  }
  out->Add("net.frame_decode_ns", PerCall(util::NowNanos() - t, frames), "ns");

  size_t answer_bytes = 0;
  t = util::NowNanos();
  for (size_t i = 0; i < answers.size(); ++i) {
    buf.clear();
    net::AppendAnswerFrame(&buf, i + 1, answers[i]);
    answer_bytes += buf.size();
  }
  out->Add("net.answer_encode_ns", PerCall(util::NowNanos() - t, answers.size()),
           "ns");
  out->Add("net.bytes_per_answer",
           answers.empty() ? 0.0
                           : static_cast<double>(answer_bytes) /
                                 static_cast<double>(answers.size()),
           "bytes");
}

void AddCoreMicro(const std::vector<Item>& items, const core::LlmModel& model,
                  MetricSet* out) {
  const size_t n = std::min(items.size(), kMicroLimit);
  int64_t t = util::NowNanos();
  for (size_t i = 0; i < n; ++i) {
    g_sink = g_sink + model.NearestPrototypeDistance(items[i].q);
  }
  out->Add("core.nearest_prototype_ns", PerCall(util::NowNanos() - t, n), "ns");
  int64_t mean_ns = 0, regression_ns = 0;
  size_t q1 = 0, q2 = 0;
  for (size_t i = 0; i < n; ++i) {
    t = util::NowNanos();
    if (items[i].kind == service::QueryKind::kQ1MeanValue) {
      auto r = model.PredictMean(items[i].q);
      mean_ns += util::NowNanos() - t;
      if (r.ok()) g_sink = g_sink + *r;
      ++q1;
    } else {
      auto r = model.RegressionQuery(items[i].q);
      regression_ns += util::NowNanos() - t;
      if (r.ok()) g_sink = g_sink + static_cast<double>(r->size());
      ++q2;
    }
  }
  out->Add("core.predict_mean_ns", PerCall(mean_ns, q1), "ns");
  out->Add("core.regression_query_ns", PerCall(regression_ns, q2), "ns");
  out->Add("core.prototypes", model.num_prototypes(), "count");
}

void AddQueryMicro(const std::vector<Item>& items, const query::ExactEngine& engine,
                   size_t per_kind, MetricSet* out) {
  int64_t mean_ns = 0, regression_ns = 0, tuples = 0;
  size_t q1 = 0, q2 = 0;
  const int64_t start = util::NowNanos();
  for (size_t i = 0; i < items.size() && (q1 < per_kind || q2 < per_kind); ++i) {
    if (SecondsSince(start) > kExactBudgetSeconds) break;
    query::ExecStats stats;
    const bool is_q1 = items[i].kind == service::QueryKind::kQ1MeanValue;
    if ((is_q1 && q1 >= per_kind) || (!is_q1 && q2 >= per_kind)) continue;
    const int64_t t = util::NowNanos();
    if (is_q1) {
      auto r = engine.MeanValue(items[i].q, &stats);
      mean_ns += util::NowNanos() - t;
      if (r.ok()) g_sink = g_sink + r->mean;
      ++q1;
    } else {
      auto r = engine.Regression(items[i].q, &stats);
      regression_ns += util::NowNanos() - t;
      if (r.ok()) g_sink = g_sink + r->intercept;
      ++q2;
    }
    tuples += stats.tuples_examined;
  }
  out->Add("query.mean_value_us", PerCall(mean_ns, q1) / 1e3, "us");
  out->Add("query.regression_us", PerCall(regression_ns, q2) / 1e3, "us");
  out->Add("query.tuples_examined_per_query",
           PerCall(tuples, q1 + q2), "count");
  const int64_t busy = mean_ns + regression_ns;
  out->Add("query.tuples_per_s",
           busy > 0 ? static_cast<double>(tuples) / (static_cast<double>(busy) / 1e9)
                    : 0.0,
           "1/s");
}

double StatsRecordNs() {
  constexpr int kRecords = 200000;
  service::ServiceStats stats;
  service::QueryOutcome o;
  o.ok = true;
  const int64_t t = util::NowNanos();
  for (int i = 0; i < kRecords; ++i) {
    o.latency_nanos = 1000 + i % 977;
    stats.Record(o);
  }
  return PerCall(util::NowNanos() - t, kRecords);
}

}  // namespace

LayerShares TraceLayers(const WorkloadSpec& spec, const ServiceStack& stack,
                        const std::vector<Item>& items,
                        const std::vector<net::WireRequest>& wire,
                        LoadDriver* driver, Tally* probe_tally, MetricSet* out) {
  LayerShares shares;
  const core::LlmModel& model = *stack.snapshot.model;
  const query::ExactEngine& engine = *stack.snapshot.engine;
  const double vigilance = stack.snapshot.vigilance;
  const bool cached = spec.router.enable_cache;

  // --- net: one request in flight, so the span holds no queueing.
  Phase probe;
  probe.max_requests = std::min<int64_t>(spec.replay_requests, kProbeLimit);
  probe.connections = 1;
  probe.depth = 1;
  probe.record = true;
  probe.trace = true;
  const PhaseResult pr = driver->Run(probe);
  *probe_tally += pr.tally;
  std::vector<double> outside;
  for (size_t i = 0; i < pr.latency_ms.size() && i < pr.exec_ms.size(); ++i) {
    outside.push_back(pr.latency_ms[i] - pr.exec_ms[i]);
  }
  // The median, not the mean: one round trip's typical cost. A mean would
  // also fold in the host's scheduling stalls, which are not the wire's work.
  const double outside_ms = Median(outside);
  out->Add("net.outside_router_ms_p50", outside_ms, "ms");
  shares.self_ns[static_cast<int>(Layer::kNet)] = outside_ms * 1e6;

  // Replay range: a cached workload first fills its cache untimed.
  const size_t warm =
      cached ? std::min(items.size(), 8 * spec.router.cache.capacity_per_shard) : 0;
  const size_t end =
      std::min(items.size(), warm + static_cast<size_t>(spec.replay_requests));
  const size_t measured = end - warm;
  std::vector<service::Request> requests;
  for (size_t i = 0; i < end; ++i) requests.push_back(ToRequest(items[i]));

  // --- service: the whole router, in process, with the same configuration,
  // and beside it the router's children called one by one in the router's
  // order, on a cache of their own that sees the same calls. Both run on the
  // same request back to back, so a slow stretch of the host slows both and
  // cancels in the difference (the router's self time); which of the two
  // goes first alternates, so neither always finds the data in CPU caches.
  service::QueryRouter router(stack.catalog.get(), spec.router);
  service::AnswerCache cache(cached ? spec.router.cache : service::AnswerCacheConfig());
  std::vector<double> execute_us;
  std::vector<service::Answer> answers;
  int64_t router_ns = 0, lookup_ns = 0, insert_ns = 0, core_ns = 0, query_ns = 0;
  size_t lookups = 0, inserts = 0;
  for (size_t i = 0; i < end; ++i) {
    const bool timed = i >= warm;
    const bool router_first = i % 2 == 0;
    ChildSpans c;
    if (!router_first) c = ReplayChildren(spec, items[i], model, vigilance, engine, &cache);
    const int64_t t = util::NowNanos();
    service::ExecResult r = router.Execute(requests[i]);
    const int64_t dt = util::NowNanos() - t;
    if (router_first) c = ReplayChildren(spec, items[i], model, vigilance, engine, &cache);
    if (!timed) continue;
    router_ns += dt;
    execute_us.push_back(static_cast<double>(dt) / 1e3);
    if (r.ok() && answers.size() < kMicroLimit) answers.push_back(std::move(r).value());
    lookup_ns += c.lookup_ns;
    lookups += c.looked_up ? 1 : 0;
    insert_ns += c.insert_ns;
    inserts += c.inserted ? 1 : 0;
    core_ns += c.core_ns;
    query_ns += c.query_ns;
  }
  out->Add("service.router_execute_us_p50", Median(execute_us), "us");
  out->Add("service.stats_record_ns", StatsRecordNs(), "ns");

  if (!cached) {
    // The cache is bypassed here; measure what it would cost on this
    // traffic, for reference only (not a share of this workload).
    const size_t n = std::min(end, kMicroLimit / 4);
    for (size_t i = 0; i < n; ++i) {
      service::CachedAnswer hit;
      int64_t t = util::NowNanos();
      const bool found = cache.Lookup(Group(items[i].kind), items[i].q, &hit);
      lookup_ns += util::NowNanos() - t;
      ++lookups;
      if (found) continue;
      service::CachedAnswer a = ComputeAnswer(items[i], true, model, engine);
      t = util::NowNanos();
      cache.Insert(Group(items[i].kind), std::move(a));
      insert_ns += util::NowNanos() - t;
      ++inserts;
    }
  }
  out->Add("service.cache_lookup_ns", PerCall(lookup_ns, lookups), "ns");
  out->Add("service.cache_insert_ns", PerCall(insert_ns, inserts), "ns");

  const double per = measured > 0 ? static_cast<double>(measured) : 1.0;
  const int64_t cache_ns = cached ? lookup_ns + insert_ns : 0;
  shares.self_ns[static_cast<int>(Layer::kCache)] = static_cast<double>(cache_ns) / per;
  shares.self_ns[static_cast<int>(Layer::kCore)] = static_cast<double>(core_ns) / per;
  shares.self_ns[static_cast<int>(Layer::kQuery)] = static_cast<double>(query_ns) / per;
  shares.self_ns[static_cast<int>(Layer::kService)] =
      std::max<double>(0.0, static_cast<double>(router_ns - cache_ns - core_ns - query_ns)) /
      per;

  double total = 0.0;
  for (double ns : shares.self_ns) total += ns;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    if (shares.self_ns[l] > shares.self_ns[static_cast<int>(shares.largest)]) {
      shares.largest = static_cast<Layer>(l);
    }
    out->Add(std::string("layer.") + LayerName(static_cast<Layer>(l)) + "_self_ns",
             shares.self_ns[l], "ns");
    out->Add(std::string("layer.") + LayerName(static_cast<Layer>(l)) + "_share",
             total > 0.0 ? shares.self_ns[l] / total : 0.0, "ratio");
  }
  out->Add("layer.target_is_largest", shares.largest == spec.target ? 1.0 : 0.0,
           "bool");

  AddNetMicro(wire, answers, out);
  AddCoreMicro(items, model, out);
  AddQueryMicro(items, engine, spec.replay_requests >= 200 ? 200 : 10, out);
  return shares;
}

}  // namespace perfbench
}  // namespace qreg
