// Request-lifecycle primitives: per-query deadlines and cooperative
// cancellation, checked inside long-running scans so an abandoned or
// over-budget query stops burning cores and returns a typed status
// (kDeadlineExceeded / kCancelled) with partial-work accounting.
//
// Both types are cheap value types designed to be carried inside a request
// struct: a default-constructed Deadline never expires and a
// default-constructed CancellationToken can never be cancelled, so the
// common no-lifecycle path costs two trivially-false branches.

#ifndef QREG_UTIL_CANCELLATION_H_
#define QREG_UTIL_CANCELLATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "util/clock.h"
#include "util/status.h"

namespace qreg {
namespace util {

/// \brief Shared-state cancellation handle. Copies share one flag: any copy
/// can Cancel(), every copy observes it. Thread-safe.
class CancellationToken {
 public:
  /// A token that can never be cancelled (no shared state, no allocation).
  CancellationToken() = default;

  /// A token with live shared state that Cancel() trips.
  static CancellationToken Cancellable() {
    CancellationToken t;
    t.state_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// Trips the token (idempotent; no-op on a non-cancellable token).
  void Cancel() const {
    if (state_) state_->store(true, std::memory_order_release);
  }

  bool cancellable() const { return state_ != nullptr; }
  bool cancelled() const {
    return state_ != nullptr && state_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// \brief Absolute point on a (possibly injected) monotonic clock after
/// which a request should stop executing. Default-constructed = no deadline.
class Deadline {
 public:
  Deadline() = default;  ///< Never expires.

  /// Expires at the absolute instant `at_nanos` on `clock` (null = the
  /// system clock). The clock is borrowed and must outlive the deadline.
  static Deadline AtNanos(int64_t at_nanos, const Clock* clock = nullptr) {
    Deadline d;
    d.at_nanos_ = at_nanos;
    d.clock_ = clock;
    return d;
  }

  /// Expires `budget_nanos` from now on `clock` (null = the system clock).
  static Deadline AfterNanos(int64_t budget_nanos, const Clock* clock = nullptr) {
    const Clock& c = clock != nullptr ? *clock : SystemClock::Default();
    return AtNanos(c.NowNanos() + budget_nanos, clock);
  }
  static Deadline AfterMillis(int64_t ms, const Clock* clock = nullptr) {
    return AfterNanos(ms * 1000000, clock);
  }

  bool infinite() const { return at_nanos_ == kNoDeadline; }
  bool expired() const { return !infinite() && clock().NowNanos() >= at_nanos_; }

 private:
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

  const Clock& clock() const {
    return clock_ != nullptr ? *clock_ : SystemClock::Default();
  }

  int64_t at_nanos_ = kNoDeadline;
  const Clock* clock_ = nullptr;  // Borrowed; null = SystemClock::Default().
};

/// \brief The lifecycle bundle a scan checks between units of work.
///
/// Check() is evaluated once per claimed partition chunk (never per row), so
/// the overhead is a handful of atomic loads per ~8K-row chunk and an
/// expired or cancelled query returns within one chunk-claim of the trip.
struct ExecControl {
  Deadline deadline;
  CancellationToken cancel;

  /// Test-only: invoked with the chunk index immediately before that chunk's
  /// lifecycle check. Lets deterministic tests trip the deadline/token at an
  /// exact point in the scan (a gate, a FakeClock advance) without sleeps.
  /// Called concurrently from pool workers when the scan is parallel.
  std::function<void(size_t chunk)> on_chunk_for_testing;

  /// kCancelled if the token tripped, else kDeadlineExceeded if the deadline
  /// passed, else OK. Cancellation wins: an explicit abort is more
  /// actionable to the caller than a timeout that raced with it.
  Status Check() const {
    if (cancel.cancelled()) {
      return Status::Cancelled("query cancelled by caller");
    }
    if (deadline.expired()) {
      return Status::DeadlineExceeded("query deadline expired");
    }
    return Status::OK();
  }

  /// True when this control can ever fail a Check(): carrying it through a
  /// scan only pays when so.
  bool active() const {
    return cancel.cancellable() || !deadline.infinite() ||
           static_cast<bool>(on_chunk_for_testing);
  }
};

}  // namespace util
}  // namespace qreg

#endif  // QREG_UTIL_CANCELLATION_H_
