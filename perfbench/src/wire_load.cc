#include "wire_load.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common.h"
#include "util/timer.h"

namespace qreg {
namespace perfbench {

namespace {

constexpr int kWindows = 40;
// Share of slices dropped at each end, by rate, before throughput is taken.
constexpr double kTrim = 0.2;

// Histogram buckets: [0, 100 ns), then ×1.001 per bucket up to ~100 s.
constexpr double kMinNanos = 100.0;
constexpr double kGrowth = 1.001;
constexpr size_t kBuckets = 20800;
constexpr uint64_t kSlotBits = 8;  // Request id = (sequence << 8) | slot.

// A silent server fails the run instead of hanging it.
constexpr int kRecvTimeoutMillis = 30000;

void Classify(const util::Status& status, Tally* t) {
  switch (status.code()) {
    case util::StatusCode::kResourceExhausted: ++t->shed; break;
    case util::StatusCode::kNotFound: ++t->not_found; break;
    default: ++t->other_errors; break;
  }
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::Add(int64_t nanos) {
  const double v = static_cast<double>(nanos);
  size_t b = 0;
  if (v >= kMinNanos) {
    b = 1 + static_cast<size_t>(std::log(v / kMinNanos) / std::log(kGrowth));
  }
  ++buckets_[std::min(b, kBuckets - 1)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LatencyHistogram::QuantileMs(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  int64_t below = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0 || static_cast<double>(below + buckets_[b]) < rank) {
      below += buckets_[b];
      continue;
    }
    const double lo = b == 0 ? 0.0 : kMinNanos * std::pow(kGrowth, static_cast<double>(b - 1));
    const double hi = b == 0 ? kMinNanos : lo * kGrowth;
    const double frac = (rank - static_cast<double>(below) - 0.5) /
                        static_cast<double>(buckets_[b]);
    return (lo + (hi - lo) * frac) / 1e6;
  }
  return 0.0;
}

Tally& Tally::operator+=(const Tally& o) {
  sent += o.sent;
  answered += o.answered;
  shed += o.shed;
  dropped += o.dropped;
  not_found += o.not_found;
  other_errors += o.other_errors;
  for (int i = 0; i < 3; ++i) by_source[i] += o.by_source[i];
  check_violations += o.check_violations;
  return *this;
}

bool LoadDriver::PassesInlineCheck(const net::WireRequest& request,
                                   const service::Answer& answer) const {
  if (answer.kind != request.kind) return false;
  return answer.source != service::AnswerSource::kCache || delta_min_ <= 0.0 ||
         answer.cache_delta >= delta_min_;
}

LoadDriver::LoadDriver(const std::vector<net::WireRequest>* requests,
                       size_t connections, size_t check_stride,
                       size_t check_limit, double delta_min)
    : requests_(requests),
      conns_(connections),
      check_stride_(std::max<size_t>(check_stride, 1)),
      check_limit_(check_limit),
      delta_min_(delta_min) {
  for (size_t c = 0; c < conns_.size(); ++c) conns_[c].cursor = c;
}

util::Status LoadDriver::Connect(const net::Endpoint& endpoint) {
  for (Conn& c : conns_) {
    c.client = std::make_unique<net::Client>();
    c.client->set_recv_timeout_millis(kRecvTimeoutMillis);
    QREG_RETURN_NOT_OK(c.client->Connect(endpoint.address, endpoint.port));
  }
  return util::Status::OK();
}

void LoadDriver::RunConn(Conn* conn, const Phase& phase, int64_t budget,
                         int64_t start, int64_t deadline, ConnOut* out) {
  struct Slot {
    int64_t send_nanos = 0;
    size_t index = 0;
    bool capture = false;
  };
  const size_t depth = std::min<size_t>(std::max<size_t>(phase.depth, 1), 255);
  std::vector<Slot> slots(depth);
  std::vector<size_t> free_slots;
  for (size_t s = 0; s < depth; ++s) free_slots.push_back(depth - 1 - s);
  const size_t n = requests_->size();
  const size_t stride = conns_.size();
  Tally& t = out->tally;
  if (deadline > 0) out->slices.resize(kWindows);
  const double slice_nanos = static_cast<double>(deadline - start) / kWindows;
  if (conn->dead) return;

  for (;;) {
    while (!free_slots.empty() && (budget < 0 || t.sent < budget) &&
           (deadline <= 0 || util::NowNanos() < deadline)) {
      const size_t s = free_slots.back();
      free_slots.pop_back();
      Slot& slot = slots[s];
      slot.index = conn->cursor;
      slot.capture = !conn->wrapped && slot.index % check_stride_ == 0 &&
                     slot.index / check_stride_ < check_limit_;
      conn->cursor += stride;
      if (conn->cursor >= n) {
        conn->cursor %= n;
        conn->wrapped = true;
      }
      const uint64_t id = (conn->seq++ << kSlotBits) | s;
      slot.send_nanos = util::NowNanos();
      if (!conn->client->SendRequest((*requests_)[slot.index], id).ok()) {
        conn->dead = true;
        break;
      }
      ++t.sent;
    }
    const int64_t outstanding =
        static_cast<int64_t>(depth) - static_cast<int64_t>(free_slots.size());
    if (conn->dead) {
      t.dropped += outstanding - 1 >= 0 ? outstanding - 1 : 0;  // Unsent slot.
      return;
    }
    if (outstanding == 0) return;

    uint64_t id = 0;
    util::Result<service::Answer> r = conn->client->ReadResponse(&id);
    const int64_t now = util::NowNanos();
    const size_t s = static_cast<size_t>(id & ((1u << kSlotBits) - 1));
    if (id == 0 || s >= depth) {
      // Transport failure: everything in flight is lost.
      conn->dead = true;
      t.dropped += outstanding;
      return;
    }
    Slot& slot = slots[s];
    free_slots.push_back(s);
    if (!r.ok()) {
      Classify(r.status(), &t);
      continue;
    }
    ++t.answered;
    const service::Answer& a = *r;
    ++t.by_source[static_cast<int>(a.source)];
    if (!PassesInlineCheck((*requests_)[slot.index], a)) ++t.check_violations;
    if (phase.record && (deadline <= 0 || now < deadline)) {
      out->latency.Add(now - slot.send_nanos);
      if (deadline > 0) {
        const int w = static_cast<int>(static_cast<double>(now - start) / slice_nanos);
        Slice& sl = out->slices[static_cast<size_t>(std::min(std::max(w, 0), kWindows - 1))];
        if (sl.latency.count() == 0) sl.first_nanos = now;
        sl.last_nanos = now;
        sl.latency.Add(now - slot.send_nanos);
      }
      if (phase.trace) {
        out->latency_ms.push_back(static_cast<double>(now - slot.send_nanos) / 1e6);
        out->exec_ms.push_back(static_cast<double>(a.exec.nanos) / 1e6);
      }
    }
    if (slot.capture) conn->captured.emplace_back(slot.index, a);
  }
}

PhaseResult LoadDriver::Run(const Phase& phase) {
  const size_t used = std::min(std::max<size_t>(phase.connections, 1), conns_.size());
  std::vector<ConnOut> outs(used);
  const int64_t budget =
      phase.max_requests < 0
          ? -1
          : (phase.max_requests + static_cast<int64_t>(used) - 1) /
                static_cast<int64_t>(used);
  const int64_t start = util::NowNanos();
  const int64_t deadline =
      phase.seconds > 0.0 ? start + static_cast<int64_t>(phase.seconds * 1e9) : 0;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < used; ++c) {
    threads.emplace_back(
        [&, c] { RunConn(&conns_[c], phase, budget, start, deadline, &outs[c]); });
  }
  for (std::thread& th : threads) th.join();

  PhaseResult res;
  std::vector<Slice> slices(deadline > 0 ? kWindows : 0);
  for (ConnOut& o : outs) {
    res.tally += o.tally;
    res.latency.Merge(o.latency);
    res.latency_ms.insert(res.latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    res.exec_ms.insert(res.exec_ms.end(), o.exec_ms.begin(), o.exec_ms.end());
    for (size_t w = 0; w < slices.size(); ++w) {
      const Slice& from = o.slices[w];
      if (from.latency.count() == 0) continue;
      Slice& to = slices[w];
      to.first_nanos = to.latency.count() == 0 ? from.first_nanos
                                               : std::min(to.first_nanos, from.first_nanos);
      to.last_nanos = std::max(to.last_nanos, from.last_nanos);
      to.latency.Merge(from.latency);
    }
  }
  if (slices.empty()) return res;

  // Rate between the slice's first and last completion: a continuous
  // reading, not a count quantized by the slice length.
  std::vector<double> rates;
  for (const Slice& sl : slices) {
    const int64_t n = sl.latency.count();
    const int64_t span = sl.last_nanos - sl.first_nanos;
    rates.push_back(n >= 2 && span > 0 ? static_cast<double>(n - 1) * 1e9 / span
                                       : static_cast<double>(n) / (phase.seconds / kWindows));
  }
  res.slice_qps = rates;

  // Throughput: the mean rate of the slices between the fastest and the
  // slowest fifth.
  std::vector<double> sorted = rates;
  std::sort(sorted.begin(), sorted.end());
  const size_t cut = static_cast<size_t>(kTrim * static_cast<double>(sorted.size()));
  res.qps = Mean(std::vector<double>(sorted.begin() + static_cast<int64_t>(cut),
                                     sorted.end() - static_cast<int64_t>(cut)));

  // Latency: p50 and p99 within each group of consecutive slices (as many
  // groups, up to one per slice, as keep kMinGroupSamples each), then the
  // median over the groups, so a burst of host stalls confined to a few
  // groups moves neither figure.
  constexpr int64_t kMinGroupSamples = 1000;
  int groups = 1;
  for (int g : {40, 20, 10, 8, 5, 4, 2}) {
    if (res.latency.count() / g >= kMinGroupSamples) {
      groups = g;
      break;
    }
  }
  std::vector<double> p50s, p99s;
  for (int g = 0; g < groups; ++g) {
    LatencyHistogram merged;
    for (int w = g * kWindows / groups; w < (g + 1) * kWindows / groups; ++w) {
      merged.Merge(slices[static_cast<size_t>(w)].latency);
    }
    p50s.push_back(merged.QuantileMs(0.50));
    p99s.push_back(merged.QuantileMs(0.99));
  }
  res.p50_ms = Median(p50s);
  res.p99_ms = Median(p99s);
  res.latency_groups = groups;
  return res;
}

std::vector<util::Result<service::Answer>> LoadDriver::ExecuteAll(
    const std::vector<net::WireRequest>& batch, Tally* tally) {
  constexpr size_t kChunk = 32;  // Far below ServerConfig::max_pipeline.
  std::vector<util::Result<service::Answer>> results;
  results.reserve(batch.size());
  net::Client* client = conns_.front().client.get();
  for (size_t i = 0; i < batch.size(); i += kChunk) {
    const std::vector<net::WireRequest> chunk(
        batch.begin() + static_cast<int64_t>(i),
        batch.begin() + static_cast<int64_t>(std::min(batch.size(), i + kChunk)));
    std::vector<util::Result<service::Answer>> answers = client->ExecuteBatch(chunk);
    for (size_t j = 0; j < answers.size(); ++j) {
      util::Result<service::Answer>& r = answers[j];
      ++tally->sent;
      if (r.ok()) {
        ++tally->answered;
        ++tally->by_source[static_cast<int>(r->source)];
        if (!PassesInlineCheck(chunk[j], *r)) ++tally->check_violations;
      } else if (r.status().code() == util::StatusCode::kIoError) {
        ++tally->dropped;
      } else {
        Classify(r.status(), tally);
      }
      results.push_back(std::move(r));
    }
  }
  return results;
}

std::vector<std::pair<size_t, service::Answer>> LoadDriver::TakeCaptured() {
  std::vector<std::pair<size_t, service::Answer>> all;
  for (Conn& c : conns_) {
    for (auto& p : c.captured) all.push_back(std::move(p));
    c.captured.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return all;
}

}  // namespace perfbench
}  // namespace qreg
