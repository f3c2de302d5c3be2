// Small helpers shared by the benchmark's files: order statistics, the peak
// resident set, and the ordered metric set printed as the final JSON line.

#ifndef QREG_PERFBENCH_COMMON_H_
#define QREG_PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qreg {
namespace perfbench {

/// Nearest-rank median of `values`; 0 when empty.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set size (VmHWM) of this process in MiB; 0 if unreadable.
double PeakRssMb();

/// Seconds elapsed since `start_nanos` (a util::NowNanos() reading).
double SecondsSince(int64_t start_nanos);

/// Metrics in insertion order, each with its unit.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_COMMON_H_
