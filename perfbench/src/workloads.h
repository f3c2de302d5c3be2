// The three workloads. Each sends the same kind of traffic over the same
// wire front door, but concentrates the server's work in a different layer:
//
//   model_hot    net        hybrid routing, cache off, in-region traffic: the
//                           model answers in microseconds, so framing,
//                           syscalls and the router dominate.
//   exact_heavy  query      hybrid routing, cache off, balls so large that
//                           every one lies outside the model's trained region
//                           and scans hundreds of thousands of rows.
//   cache_churn  cache      hybrid routing, δ-cache on, hot-spot traffic whose
//                           working set exceeds the cache: hits, inserts,
//                           copy-on-write group copies and evictions all run
//                           in the timed phase.
//
// Requests are generated from the seed before timing starts; Q1 and Q2
// alternate.

#ifndef QREG_PERFBENCH_WORKLOADS_H_
#define QREG_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/llm_model.h"
#include "query/query.h"
#include "service/query_router.h"
#include "util/status.h"

namespace qreg {
namespace perfbench {

enum class Traffic {
  kUniformInRegion,   ///< R1 profile, kept only inside the trained region.
  kLargeBalls,        ///< θ ≈ 0.75: outside the trained region by design.
  kHotSpotInRegion,   ///< Gaussian clusters around seeded hot spots.
};

enum class Layer { kNet = 0, kService, kCache, kCore, kQuery, kCount };
const char* LayerName(Layer layer);

struct WorkloadSpec {
  std::string name;
  Layer target = Layer::kNet;
  service::RouterConfig router;
  Traffic traffic = Traffic::kUniformInRegion;
  /// Accuracy sample shape (q1_nrmse, q2_fvu). Served by the model or the
  /// cache on every workload, so neither metric is identically zero.
  Traffic accuracy = Traffic::kUniformInRegion;
  /// Server executor threads, and client connections (one thread each).
  /// Compute-bound workloads spread their work over several executors, so a
  /// stretch of slowness on one vCPU of a shared host moves only part of it.
  size_t executors = 1;
  size_t connections = 1;
  size_t depth = 8;                ///< Requests in flight per connection.
  int64_t distinct_requests = 0;   ///< Generated; the timed phase cycles them.
  int64_t warmup_requests = 0;     ///< Untimed, before the timed phase.
  size_t check_stride = 1;         ///< Every k-th request of the first pass…
  size_t check_limit = 0;          ///< …up to this many, is checked.
  int64_t replay_requests = 0;     ///< Traced in-process replay sample.
};

/// Sizes for a full run or a smoke run (tiny data, short phases).
struct Scale {
  bool smoke = false;
  int64_t rows = 300000;
  int64_t train_pairs = 15000;
  int64_t accuracy_q1 = 4000;
  int64_t accuracy_q2 = 1000;
};
Scale MakeScale(bool smoke);

util::Result<WorkloadSpec> FindWorkload(const std::string& name, const Scale& scale);

/// One generated request.
struct Item {
  service::QueryKind kind = service::QueryKind::kQ1MeanValue;
  query::Query q;
};

/// `n` requests of the given shape from `seed`, alternating Q1/Q2. The
/// in-region shapes keep only queries whose nearest prototype lies within
/// `vigilance` (the router's hybrid test at rho_scale 1); kLargeBalls keeps
/// only queries outside it.
std::vector<Item> GenerateItems(Traffic traffic, const core::LlmModel& model,
                                double vigilance, uint64_t seed, int64_t n);

/// The accuracy sample: `q1` Q1 requests followed by `q2` Q2 requests.
std::vector<Item> GenerateAccuracySample(Traffic traffic,
                                         const core::LlmModel& model,
                                         double vigilance, uint64_t seed,
                                         int64_t q1, int64_t q2);

service::Request ToRequest(const Item& item);

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_WORKLOADS_H_
