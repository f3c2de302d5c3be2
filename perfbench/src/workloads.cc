#include "workloads.h"

#include <algorithm>

#include "bench/bench_common.h"
#include "stack.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace qreg {
namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kNet: return "net";
    case Layer::kService: return "service";
    case Layer::kCache: return "cache";
    case Layer::kCore: return "core";
    case Layer::kQuery: return "query";
    case Layer::kCount: break;
  }
  return "?";
}

Scale MakeScale(bool smoke) {
  Scale s;
  s.smoke = smoke;
  if (smoke) {
    s.rows = 20000;
    s.train_pairs = 1000;
    s.accuracy_q1 = 100;
    s.accuracy_q2 = 40;
  }
  return s;
}

util::Result<WorkloadSpec> FindWorkload(const std::string& name,
                                        const Scale& scale) {
  const bool smoke = scale.smoke;
  WorkloadSpec w;
  w.name = name;
  // Synchronous router on the server's single executor: the router's own
  // pool never queues, so nothing is ever shed by the overload policy.
  w.router.policy = service::RoutePolicy::kHybrid;
  w.router.num_threads = 0;
  w.router.enable_cache = false;
  if (name == "model_hot") {
    w.target = Layer::kNet;
    w.traffic = Traffic::kUniformInRegion;
    w.accuracy = Traffic::kUniformInRegion;
    // One client thread, so the loop, the executor and the client keep
    // three of four cores busy; with two client threads all four were busy
    // and throughput swung with any other work on the host.
    w.connections = 1;
    w.depth = 16;
    w.distinct_requests = smoke ? 2000 : 100000;
    w.warmup_requests = smoke ? 400 : 20000;
    w.check_stride = smoke ? 5 : 50;
    w.check_limit = smoke ? 100 : 2000;
    w.replay_requests = smoke ? 400 : 20000;
  } else if (name == "exact_heavy") {
    w.target = Layer::kQuery;
    w.traffic = Traffic::kLargeBalls;
    w.accuracy = Traffic::kUniformInRegion;
    // One request in flight per connection, one executor per connection:
    // every executor stays busy and no request queues behind another. A
    // third executor stretched p99 (three scans beside the wire threads on
    // four cores).
    w.executors = 2;
    w.connections = 2;
    w.depth = 1;
    w.distinct_requests = smoke ? 200 : 4000;
    w.warmup_requests = smoke ? 20 : 100;
    w.check_stride = smoke ? 5 : 40;
    w.check_limit = smoke ? 20 : 100;
    w.replay_requests = smoke ? 20 : 200;
  } else if (name == "cache_churn") {
    w.target = Layer::kCache;
    w.traffic = Traffic::kHotSpotInRegion;
    w.accuracy = Traffic::kHotSpotInRegion;
    w.router.enable_cache = true;
    w.router.cache.delta_min = 0.93;
    w.router.cache.capacity_per_shard = smoke ? 64 : 1024;
    // Three executors read and write the cache at once: lookups run beside
    // inserts, which serialise on the shard lock.
    w.executors = 3;
    w.connections = 3;
    w.depth = 2;
    w.distinct_requests = smoke ? 2000 : 100000;
    w.warmup_requests = smoke ? 1000 : 10000;
    w.check_stride = smoke ? 5 : 50;
    w.check_limit = smoke ? 100 : 2000;
    w.replay_requests = smoke ? 1000 : 20000;
  } else {
    return util::Status::InvalidArgument(
        util::Format("unknown workload '%s'", name.c_str()));
  }
  return w;
}

namespace {

constexpr size_t kHotSpots = 8192;

/// Draws queries of one traffic shape. Hot spots depend only on the seed, so
/// the traffic and the accuracy sample (another `stream`) share them.
class Sampler {
 public:
  Sampler(Traffic traffic, size_t d, uint64_t seed, uint64_t stream)
      : traffic_(traffic), d_(d), rng_(seed * 0x9E3779B97F4A7C15ULL + stream) {
    if (traffic_ != Traffic::kHotSpotInRegion) return;
    util::Rng spots(seed ^ 0x5EED5EEDULL);
    // Radii stay within a narrow band around the profile's mean: the cache
    // sizes its grid cell from the first cached radius and probes a box
    // scaled by the largest, so a wide band would make the probe cost (grid
    // or linear scan) depend on the seed and drift over the run.
    for (size_t i = 0; i < kHotSpots; ++i) {
      query::Query h;
      for (size_t j = 0; j < d_; ++j) h.center.push_back(spots.Uniform(0.05, 0.95));
      h.theta = spots.Uniform(0.09, 0.11);
      hot_.push_back(std::move(h));
    }
  }

  query::Query Next() {
    const bench::DatasetProfile p = bench::R1Profile();
    query::Query q;
    switch (traffic_) {
      case Traffic::kUniformInRegion:
        for (size_t j = 0; j < d_; ++j) {
          q.center.push_back(rng_.Uniform(p.center_lo, p.center_hi));
        }
        // The floor keeps every ball non-empty at container-scale row counts.
        q.theta = std::max(0.02, rng_.Gaussian(p.theta_mean, p.theta_stddev));
        break;
      case Traffic::kLargeBalls:
        for (size_t j = 0; j < d_; ++j) {
          q.center.push_back(rng_.Uniform(p.center_lo, p.center_hi));
        }
        q.theta = std::max(0.7, rng_.Gaussian(0.75, 0.03));
        break;
      case Traffic::kHotSpotInRegion: {
        const query::Query& h = hot_[rng_.UniformInt(hot_.size())];
        for (size_t j = 0; j < d_; ++j) {
          q.center.push_back(h.center[j] + rng_.Gaussian(0.0, 0.01));
        }
        q.theta = h.theta * std::min(1.05, std::max(0.95, 1.0 + rng_.Gaussian(0.0, 0.02)));
        break;
      }
    }
    return q;
  }

 private:
  Traffic traffic_;
  size_t d_;
  util::Rng rng_;
  std::vector<query::Query> hot_;
};

bool Accept(Traffic traffic, const core::LlmModel& model, double vigilance,
            const query::Query& q) {
  const bool in_region = model.NearestPrototypeDistance(q) <= vigilance;
  return traffic == Traffic::kLargeBalls ? !in_region : in_region;
}

std::vector<query::Query> Draw(Sampler* sampler, Traffic traffic,
                               const core::LlmModel& model, double vigilance,
                               int64_t n) {
  std::vector<query::Query> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t attempts = 0;
       static_cast<int64_t>(out.size()) < n && attempts < 1000 * n; ++attempts) {
    query::Query q = sampler->Next();
    if (Accept(traffic, model, vigilance, q)) out.push_back(std::move(q));
  }
  return out;
}

}  // namespace

std::vector<Item> GenerateItems(Traffic traffic, const core::LlmModel& model,
                                double vigilance, uint64_t seed, int64_t n) {
  Sampler sampler(traffic, model.config().d, seed, /*stream=*/1);
  std::vector<query::Query> qs = Draw(&sampler, traffic, model, vigilance, n);
  std::vector<Item> items(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    items[i].kind = i % 2 == 0 ? service::QueryKind::kQ1MeanValue
                               : service::QueryKind::kQ2Regression;
    items[i].q = std::move(qs[i]);
  }
  return items;
}

std::vector<Item> GenerateAccuracySample(Traffic traffic,
                                         const core::LlmModel& model,
                                         double vigilance, uint64_t seed,
                                         int64_t q1, int64_t q2) {
  Sampler sampler(traffic, model.config().d, seed, /*stream=*/2);
  std::vector<query::Query> qs = Draw(&sampler, traffic, model, vigilance, q1 + q2);
  std::vector<Item> items(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    items[i].kind = static_cast<int64_t>(i) < q1 ? service::QueryKind::kQ1MeanValue
                                                 : service::QueryKind::kQ2Regression;
    items[i].q = std::move(qs[i]);
  }
  return items;
}

service::Request ToRequest(const Item& item) {
  return item.kind == service::QueryKind::kQ1MeanValue
             ? service::Request::Q1(kDataset, item.q)
             : service::Request::Q2(kDataset, item.q);
}

}  // namespace perfbench
}  // namespace qreg
