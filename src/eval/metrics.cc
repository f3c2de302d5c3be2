#include "eval/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace qreg {
namespace eval {

double RmseAccumulator::Mse() const {
  return n_ > 0 ? sse_ / static_cast<double>(n_) : 0.0;
}

double RmseAccumulator::Rmse() const { return std::sqrt(Mse()); }

double FvuAccumulator::Tss() const {
  if (n_ == 0) return 0.0;
  const double mean = sum_ / static_cast<double>(n_);
  return std::max(0.0, sum_sq_ - static_cast<double>(n_) * mean * mean);
}

double FvuAccumulator::Fvu() const {
  const double tss = Tss();
  if (tss > 0.0) return ssr_ / tss;
  return ssr_ > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
}

double Rmse(const std::vector<double>& actual, const std::vector<double>& predicted) {
  assert(actual.size() == predicted.size());
  RmseAccumulator acc;
  for (size_t i = 0; i < actual.size(); ++i) acc.Add(actual[i], predicted[i]);
  return acc.Rmse();
}

double Fvu(const std::vector<double>& actual, const std::vector<double>& predicted) {
  assert(actual.size() == predicted.size());
  FvuAccumulator acc;
  for (size_t i = 0; i < actual.size(); ++i) acc.Add(actual[i], predicted[i]);
  return acc.Fvu();
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace eval
}  // namespace qreg
