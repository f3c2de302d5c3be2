#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/timer.h"

namespace qreg {
namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t rank = (values.size() + 1) / 2;  // Nearest rank, 1-based.
  std::nth_element(values.begin(), values.begin() + static_cast<int64_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB.
    }
  }
  return 0.0;
}

double SecondsSince(int64_t start_nanos) {
  return static_cast<double>(util::NowNanos() - start_nanos) / 1e9;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN/Inf; a non-finite reading is reported as -1.
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
}  // namespace qreg
