#ifndef SQP_COMMON_STATUS_H_
#define SQP_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace sqp {

/// Error codes used across the library. Mirrors the usual database-engine
/// convention (RocksDB/Arrow): recoverable failures are reported through
/// Status rather than exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kAlreadyExists,
  kResourceExhausted,
  kUnimplemented,
  /// The request is well-formed but cannot apply to this object as it
  /// is (e.g. an execution mode the compiled plan does not support).
  kFailedPrecondition,
  kParseError,
  kTypeError,
  kInternal,
};

/// Returns a human-readable name for a status code ("InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// A cheap, copyable success-or-error value. All fallible public APIs in
/// streamqp return Status (or Result<T> below); internal invariant
/// violations use assertions instead.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error wrapper. Holds T on success, a non-OK Status otherwise.
template <typename T>
class Result {
 public:
  /// Implicit from value: `return 42;` in a function returning Result<int>.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status. The status must not be OK.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

  /// Returns the contained value or `fallback` when in error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace sqp

/// Propagates a non-OK status from an expression, RocksDB-style.
#define SQP_RETURN_NOT_OK(expr)                  \
  do {                                           \
    ::sqp::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                   \
  } while (false)

#endif  // SQP_COMMON_STATUS_H_
