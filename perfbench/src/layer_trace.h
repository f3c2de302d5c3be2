// The traced run's per-layer measurements. Spans are taken from this
// benchmark's own files, around the public calls into each layer, kept in
// memory and reduced at the end:
//
//   net      an unpipelined wire probe: the median of client latency minus
//            the answer's exec.nanos (the router's span) is the wire's self
//            time, both ends included; plus encode/decode of the recorded
//            frames.
//   service  QueryRouter::Execute in process minus its children below.
//   cache    AnswerCache::Lookup / Insert on a cache with the workload's
//            configuration, replayed in request order.
//   core     LlmModel::NearestPrototypeDistance and PredictMean /
//            RegressionQuery for in-region requests.
//   query    ExactEngine::MeanValue / Regression for out-of-region requests.
//
// Self time per request of each layer over the same replayed requests gives
// the layer shares; the workload's target layer must hold the largest.

#ifndef QREG_PERFBENCH_LAYER_TRACE_H_
#define QREG_PERFBENCH_LAYER_TRACE_H_

#include <vector>

#include "common.h"
#include "stack.h"
#include "wire_load.h"
#include "workloads.h"

namespace qreg {
namespace perfbench {

struct LayerShares {
  double self_ns[static_cast<int>(Layer::kCount)] = {};
  Layer largest = Layer::kNet;
};

/// Runs the probe and the replays and appends the per-layer metrics to
/// `out`. `driver` must be connected to `stack`'s server.
LayerShares TraceLayers(const WorkloadSpec& spec, const ServiceStack& stack,
                        const std::vector<Item>& items,
                        const std::vector<net::WireRequest>& wire,
                        LoadDriver* driver, Tally* probe_tally, MetricSet* out);

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_LAYER_TRACE_H_
