#include "service/service_stats.h"

#include <algorithm>

#include "eval/metrics.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace qreg {
namespace service {

ServiceStats::ServiceStats(size_t latency_window)
    : window_(std::max<size_t>(latency_window, 1)) {
  latencies_.reserve(std::min<size_t>(window_, 4096));
}

void ServiceStats::Record(const QueryOutcome& o) {
  util::MutexLock lock(&mu_);
  ++total_;
  if (!o.ok) ++errors_;
  if (o.cache_hit) ++cache_hits_;
  if (o.used_exact) ++exact_;
  if (o.shed) ++shed_;
  if (o.deadline_exceeded) ++deadline_exceeded_;
  if (o.cancelled) ++cancelled_;
  if (o.degraded) ++degraded_;
  if (o.ok && !o.cache_hit && !o.used_exact) ++model_;
  latency_sum_nanos_ += o.latency_nanos;
  if (latencies_.size() < window_) {
    latencies_.push_back(o.latency_nanos);
  } else {
    latencies_[next_] = o.latency_nanos;
    next_ = (next_ + 1) % window_;
  }
}

void ServiceStats::RecordRetrain() {
  util::MutexLock lock(&mu_);
  ++retrains_;
}

void ServiceStats::RecordNet(size_t loop_index, const NetActivity& delta) {
  util::MutexLock lock(&mu_);
  net_ += delta;
  if (net_loops_.size() <= loop_index) net_loops_.resize(loop_index + 1);
  net_loops_[loop_index] += delta;
}

ServiceSnapshot ServiceStats::Snapshot() const {
  util::MutexLock lock(&mu_);
  ServiceSnapshot s;
  s.total_queries = total_;
  s.errors = errors_;
  s.cache_hits = cache_hits_;
  s.exact_fallbacks = exact_;
  s.model_answers = model_;
  s.shed = shed_;
  s.deadline_exceeded = deadline_exceeded_;
  s.cancelled = cancelled_;
  s.degraded = degraded_;
  s.retrains = retrains_;
  s.net = net_;
  s.net_loops = net_loops_;
  s.elapsed_seconds = clock_.ElapsedSeconds();
  s.qps = s.elapsed_seconds > 0.0
              ? static_cast<double>(total_) / s.elapsed_seconds
              : 0.0;
  s.mean_ms = total_ > 0 ? static_cast<double>(latency_sum_nanos_) / 1e6 /
                               static_cast<double>(total_)
                         : 0.0;
  if (!latencies_.empty()) {
    std::vector<double> ms;
    ms.reserve(latencies_.size());
    for (int64_t n : latencies_) ms.push_back(static_cast<double>(n) / 1e6);
    s.p50_ms = eval::Percentile(ms, 50.0);
    s.p99_ms = eval::Percentile(std::move(ms), 99.0);
  }
  return s;
}

void ServiceStats::Reset() {
  util::MutexLock lock(&mu_);
  clock_.Restart();
  latencies_.clear();
  next_ = 0;
  total_ = errors_ = cache_hits_ = exact_ = model_ = shed_ = 0;
  deadline_exceeded_ = cancelled_ = degraded_ = retrains_ = 0;
  net_ = NetActivity();
  net_loops_.clear();
  latency_sum_nanos_ = 0;
}

void ServiceSnapshot::PrintTo(std::ostream& os) const {
  const auto count = [](int64_t v) {
    return util::Format("%lld", static_cast<long long>(v));
  };
  util::TablePrinter t({"metric", "value"});
  t.AddRow({"queries", count(total_queries)});
  t.AddRow({"errors", count(errors)});
  t.AddRow({"shed", count(shed)});
  t.AddRow({"deadline exceeded", count(deadline_exceeded)});
  t.AddRow({"cancelled", count(cancelled)});
  t.AddRow({"degraded (fallback)", count(degraded)});
  t.AddRow({"retrains", count(retrains)});
  t.AddRow({"net connections accepted", count(net.connections_accepted)});
  t.AddRow({"net connections closed", count(net.connections_closed)});
  t.AddRow({"net frames decoded", count(net.frames_decoded)});
  t.AddRow({"net protocol errors", count(net.protocol_errors)});
  t.AddRow({"net bytes in", count(net.bytes_in)});
  t.AddRow({"net bytes out", count(net.bytes_out)});
  t.AddRow({"net idle closed", count(net.idle_closed)});
  t.AddRow({"net read-timeout closed", count(net.read_timeout_closed)});
  t.AddRow({"net backpressure closed", count(net.backpressure_closed)});
  t.AddRow({"net answered on loop", count(net.answered_on_loop)});
  t.AddRow({"net dispatched to executors", count(net.dispatched_to_executors)});
  for (size_t i = 0; i < net_loops.size(); ++i) {
    const NetActivity& l = net_loops[i];
    t.AddRow({util::Format("net loop %zu (conns/frames/bytes out/on loop/"
                           "to executors)",
                           i),
              util::Format("%lld / %lld / %lld / %lld / %lld",
                           static_cast<long long>(l.connections_accepted),
                           static_cast<long long>(l.frames_decoded),
                           static_cast<long long>(l.bytes_out),
                           static_cast<long long>(l.answered_on_loop),
                           static_cast<long long>(l.dispatched_to_executors))});
  }
  t.AddRow({"qps", util::Format("%.1f", qps)});
  t.AddRow({"mean latency (ms)", util::Format("%.4f", mean_ms)});
  t.AddRow({"p50 latency (ms)", util::Format("%.4f", p50_ms)});
  t.AddRow({"p99 latency (ms)", util::Format("%.4f", p99_ms)});
  t.AddRow({"cache hit rate", util::Format("%.3f", CacheHitRate())});
  t.AddRow({"exact fallback rate", util::Format("%.3f", ExactFallbackRate())});
  t.AddRow({"model answer rate",
            util::Format("%.3f", total_queries > 0
                                     ? static_cast<double>(model_answers) /
                                           static_cast<double>(total_queries)
                                     : 0.0)});
  t.Print(os);
}

}  // namespace service
}  // namespace qreg
