// Wall-clock timing helpers used by the exact query engine and benches.

#ifndef QREG_UTIL_TIMER_H_
#define QREG_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace qreg {
namespace util {

/// \brief Monotonic nanoseconds since an arbitrary epoch.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief Simple restartable stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(NowNanos()) {}

  void Restart() { start_ = NowNanos(); }

  int64_t ElapsedNanos() const { return NowNanos() - start_; }
  double ElapsedMicros() const { return static_cast<double>(ElapsedNanos()) / 1e3; }
  double ElapsedMillis() const { return static_cast<double>(ElapsedNanos()) / 1e6; }
  double ElapsedSeconds() const { return static_cast<double>(ElapsedNanos()) / 1e9; }

 private:
  int64_t start_;
};

}  // namespace util
}  // namespace qreg

#endif  // QREG_UTIL_TIMER_H_
