#include "checks.h"

#include <cmath>
#include <cstring>

#include "common.h"
#include "eval/fvu_eval.h"
#include "util/string_util.h"

namespace qreg {
namespace perfbench {

namespace {

constexpr int64_t kBruteForceLimit = 20;

bool SameBits(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

bool SameAnswer(const service::Answer& a, const service::Answer& b) {
  if (a.kind != b.kind || a.source != b.source ||
      a.used_fallback != b.used_fallback || !SameBits(a.mean, b.mean) ||
      !SameBits(a.cache_delta, b.cache_delta) ||
      a.pieces.size() != b.pieces.size()) {
    return false;
  }
  for (size_t i = 0; i < a.pieces.size(); ++i) {
    const core::LocalLinearModel& p = a.pieces[i];
    const core::LocalLinearModel& q = b.pieces[i];
    if (p.prototype_id != q.prototype_id || !SameBits(p.intercept, q.intercept) ||
        !SameBits(p.weight, q.weight) || p.slope.size() != q.slope.size()) {
      return false;
    }
    for (size_t j = 0; j < p.slope.size(); ++j) {
      if (!SameBits(p.slope[j], q.slope[j])) return false;
    }
  }
  return true;
}

// Mean of u over the rows inside the L2 ball, by a plain scan.
std::pair<double, int64_t> BruteForceMean(const storage::Table& table,
                                          const query::Query& q) {
  const size_t d = table.dimension();
  const double r2 = q.theta * q.theta;
  double sum = 0.0;
  int64_t count = 0;
  for (int64_t id = 0; id < table.num_rows(); ++id) {
    const double* x = table.x(id);
    double d2 = 0.0;
    for (size_t j = 0; j < d; ++j) d2 += (x[j] - q.center[j]) * (x[j] - q.center[j]);
    if (d2 <= r2) {
      sum += table.u(id);
      ++count;
    }
  }
  return {count > 0 ? sum / static_cast<double>(count) : 0.0, count};
}

}  // namespace

CheckResult CheckCaptured(
    const ServiceStack& stack, const WorkloadSpec& spec,
    const std::vector<Item>& items,
    const std::vector<std::pair<size_t, service::Answer>>& captured) {
  CheckResult res;
  service::RouterConfig cfg = spec.router;
  cfg.enable_cache = false;
  service::QueryRouter reference(stack.catalog.get(), cfg);
  for (const auto& [index, wire] : captured) {
    if (wire.source == service::AnswerSource::kCache) continue;
    const Item& item = items[index];
    service::ExecResult local = reference.Execute(ToRequest(item));
    ++res.compared;
    if (!local.ok() || !SameAnswer(wire, *local)) {
      ++res.mismatched;
      if (res.first_error.empty()) {
        res.first_error = util::Format(
            "request %zu: wire answer differs from in-process Execute (%s)",
            index, local.ok() ? "values" : local.status().ToString().c_str());
      }
    }
    if (wire.source == service::AnswerSource::kExact &&
        wire.kind == service::QueryKind::kQ1MeanValue &&
        res.brute_checked < kBruteForceLimit) {
      ++res.brute_checked;
      const auto [mean, count] = BruteForceMean(stack.table(), item.q);
      const bool same = count == wire.exec.tuples_matched &&
                        std::fabs(mean - wire.mean) <= 1e-9 * (1.0 + std::fabs(mean));
      if (!same) {
        ++res.brute_mismatched;
        if (res.first_error.empty()) {
          res.first_error = util::Format(
              "request %zu: exact mean %.17g over %lld rows, brute force %.17g "
              "over %lld rows",
              index, wire.mean, static_cast<long long>(wire.exec.tuples_matched),
              mean, static_cast<long long>(count));
        }
      }
    }
  }
  return res;
}

Accuracy ScoreAccuracy(const ServiceStack& stack, const std::vector<Item>& sample,
                       const std::vector<util::Result<service::Answer>>& served) {
  Accuracy acc;
  const query::ExactEngine& engine = *stack.snapshot.engine;
  const core::LlmModel& model = *stack.snapshot.model;
  const size_t d = stack.table().dimension();
  std::vector<double> exact_means, sq_errors, fvus;
  for (size_t i = 0; i < sample.size() && i < served.size(); ++i) {
    if (!served[i].ok()) continue;
    const query::Query& q = sample[i].q;
    const service::Answer& a = *served[i];
    if (sample[i].kind == service::QueryKind::kQ1MeanValue) {
      auto exact = engine.MeanValue(q);
      if (!exact.ok()) continue;
      exact_means.push_back(exact->mean);
      sq_errors.push_back((a.mean - exact->mean) * (a.mean - exact->mean));
      continue;
    }
    auto ids = engine.Select(q);
    if (!ids.ok() || ids->size() < 4 * (d + 1) || a.pieces.empty()) continue;
    std::vector<std::vector<double>> anchors;
    for (const core::LocalLinearModel& piece : a.pieces) {
      anchors.push_back(piece.prototype_id >= 0
                            ? model.prototypes()[static_cast<size_t>(
                                                     piece.prototype_id)]
                                  .w.center
                            : q.center);
    }
    auto fvu = eval::EvaluatePiecewiseFvuAt(a.pieces, anchors, stack.table(), *ids);
    if (fvu.ok()) fvus.push_back(fvu->mean_fvu);
  }
  acc.q1_scored = static_cast<int64_t>(sq_errors.size());
  acc.q2_scored = static_cast<int64_t>(fvus.size());
  const double mean_exact = Mean(exact_means);
  double var = 0.0;
  for (double m : exact_means) var += (m - mean_exact) * (m - mean_exact);
  const double spread =
      exact_means.empty() ? 0.0 : std::sqrt(var / static_cast<double>(exact_means.size()));
  acc.q1_nrmse = spread > 0.0 ? std::sqrt(Mean(sq_errors)) / spread : 0.0;
  acc.q2_fvu = Median(fvus);
  return acc;
}

}  // namespace perfbench
}  // namespace qreg
