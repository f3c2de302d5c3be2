// Status / Result error model, in the style of Apache Arrow and RocksDB.
//
// Library code returns Status (or Result<T>) instead of throwing on expected
// failure modes (bad arguments, singular systems, I/O errors). Logic errors
// in release builds surface as StatusCode::kInternal.

#ifndef QREG_UTIL_STATUS_H_
#define QREG_UTIL_STATUS_H_

#include <cassert>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

namespace qreg {
namespace util {

/// \brief Machine-readable category of a Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kAlreadyExists = 4,
  kFailedPrecondition = 5,
  kIoError = 6,
  kNotImplemented = 7,
  kInternal = 8,
  kResourceExhausted = 9,
  kDeadlineExceeded = 10,
  kCancelled = 11,
  kUnavailable = 12,
};

/// \brief Human-readable name for a StatusCode ("OK", "Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

/// \brief Result of an operation that can fail without a value payload.
///
/// Cheap to copy in the OK case (no allocation); error states carry a message.
///
/// Class-level [[nodiscard]]: a dropped Status is a swallowed failure, so
/// every by-value return warns unless the caller checks it (or launders it
/// through an explicit cast when discarding really is intended).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// A bounded resource (queue, pool) is saturated; the caller may retry.
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  /// The request's deadline passed before the work completed.
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  /// The caller cancelled the request (util::CancellationToken).
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  /// The server is going away (drain, eviction) — safe to retry elsewhere.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// \brief Either a value of type T or a typed error E (Status by default).
///
/// The default `Result<T>` behaves exactly as before: the error alternative
/// is a bare Status. A custom error type carries structured evidence with
/// the failure (e.g. service::ExecError = Status + the partial work done
/// before the failure); it must expose a `util::Status status` member and be
/// implicitly constructible from Status so `return SomeStatus(...)` and
/// QREG_RETURN_NOT_OK / QREG_ASSIGN_OR_RETURN keep working unchanged in
/// functions returning the richer Result.
///
/// Accessing the value of an errored Result aborts in debug builds; callers
/// must check ok() (or use QREG_ASSIGN_OR_RETURN).
template <typename T, typename E = Status>
class [[nodiscard]] Result {
 public:
  /// Implicit from value (the common success path).
  Result(T value) : v_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status; `status` must not be OK.
  Result(Status status) : v_(E(std::move(status))) {  // NOLINT(runtime/explicit)
    assert(!this->status().ok() && "Result constructed from OK status");
  }
  /// Implicit from the typed error (no-op specialization when E == Status).
  template <typename U = E,
            typename = std::enable_if_t<!std::is_same_v<U, Status>>>
  Result(E error) : v_(std::move(error)) {  // NOLINT(runtime/explicit)
    assert(!this->status().ok() && "Result constructed from OK error");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  /// The Status of the error alternative (OK when this Result holds a value).
  /// For a custom E this is `error().status`, so call sites that only care
  /// about the code/message are insulated from the richer error type.
  const Status& status() const {
    static const Status kOk = Status::OK();
    if (ok()) return kOk;
    if constexpr (std::is_same_v<E, Status>) {
      return std::get<E>(v_);
    } else {
      return std::get<E>(v_).status;
    }
  }

  /// The full typed error. Only valid when !ok().
  const E& error() const& {
    assert(!ok());
    return std::get<E>(v_);
  }
  E&& error() && {
    assert(!ok());
    return std::get<E>(std::move(v_));
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(v_));
  }

  /// Returns the value or `fallback` if this Result holds an error.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, E> v_;
};

}  // namespace util
}  // namespace qreg

/// Propagates a non-OK Status from the evaluated expression.
#define QREG_RETURN_NOT_OK(expr)                 \
  do {                                           \
    ::qreg::util::Status _st = (expr);           \
    if (!_st.ok()) return _st;                   \
  } while (false)

/// Evaluates a Result expression; on error returns its Status, otherwise
/// assigns the value to `lhs`.
#define QREG_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                               \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

#define QREG_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define QREG_ASSIGN_OR_RETURN_NAME(x, y) QREG_ASSIGN_OR_RETURN_CONCAT(x, y)
#define QREG_ASSIGN_OR_RETURN(lhs, rexpr) \
  QREG_ASSIGN_OR_RETURN_IMPL(QREG_ASSIGN_OR_RETURN_NAME(_res_, __LINE__), lhs, rexpr)

#endif  // QREG_UTIL_STATUS_H_
