// Lightweight Status / Result<T> error handling.
//
// ParaStack uses Status for *expected* runtime failures (file not found,
// datanode dead, MPI count overflow) and assertions/exceptions only for
// programming errors, following the C++ Core Guidelines (E.*).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace pstk {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kUnavailable,   // e.g. node/datanode down
  kDataLoss,      // unrecoverable data loss
  kAborted,       // job aborted (e.g. MPI fault)
  kUnimplemented,
  kInternal,
};

/// Human-readable name of a status code ("OK", "NOT_FOUND", ...).
constexpr const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kAborted: return "ABORTED";
    case StatusCode::kUnimplemented: return "UNIMPLEMENTED";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

/// Value-semantic status: either OK or a (code, message) pair.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  [[nodiscard]] std::string ToString() const {
    if (ok()) return "OK";
    std::string s = StatusCodeName(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return Status(); }
inline Status InvalidArgument(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status NotFound(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
inline Status AlreadyExists(std::string msg) {
  return {StatusCode::kAlreadyExists, std::move(msg)};
}
inline Status OutOfRange(std::string msg) {
  return {StatusCode::kOutOfRange, std::move(msg)};
}
inline Status FailedPrecondition(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status ResourceExhausted(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}
inline Status Unavailable(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}
inline Status DataLoss(std::string msg) {
  return {StatusCode::kDataLoss, std::move(msg)};
}
inline Status Aborted(std::string msg) {
  return {StatusCode::kAborted, std::move(msg)};
}
inline Status Unimplemented(std::string msg) {
  return {StatusCode::kUnimplemented, std::move(msg)};
}
inline Status Internal(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}

/// Thrown only when a caller asserts an operation cannot fail
/// (Result::value() on an error) — a programming error.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(const Status& status)
      : std::runtime_error(status.ToString()), status_(status) {}
  [[nodiscard]] const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Result<T>: either a value or an error Status.
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Result(Status status) : data_(std::move(status)) {}   // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(data_); }

  [[nodiscard]] const Status& status() const {
    if (ok()) return kOk;
    return std::get<Status>(data_);
  }

  /// Access the value; throws StatusError if this holds an error.
  [[nodiscard]] T& value() & {
    Ensure();
    return std::get<T>(data_);
  }
  [[nodiscard]] const T& value() const& {
    Ensure();
    return std::get<T>(data_);
  }
  [[nodiscard]] T&& value() && {
    Ensure();
    return std::get<T>(std::move(data_));
  }

  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

  [[nodiscard]] T& operator*() { return value(); }
  [[nodiscard]] const T& operator*() const { return value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

 private:
  // A static member, not a function-local static: the local's init guard
  // is a call GCC cannot see through, so at -O3 it lost track of which
  // alternative a Result<int> holds and warned that the unused Status
  // alternative may be uninitialized.
  static inline const Status kOk;

  void Ensure() const {
    if (!ok()) throw StatusError(std::get<Status>(data_));
  }
  std::variant<T, Status> data_;
};

}  // namespace pstk

// Propagate an error Status from an expression.
#define PSTK_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::pstk::Status pstk_status_ = (expr);           \
    if (!pstk_status_.ok()) return pstk_status_;    \
  } while (0)

// Assign the value of a Result<T> expression or propagate its error.
#define PSTK_ASSIGN_OR_RETURN(lhs, expr)            \
  auto pstk_result_##__LINE__ = (expr);             \
  if (!pstk_result_##__LINE__.ok())                 \
    return pstk_result_##__LINE__.status();         \
  lhs = std::move(pstk_result_##__LINE__).value()
