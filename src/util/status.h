// Recoverable-error vocabulary: Status and StatusOr<T>.
//
// The library keeps its no-exceptions convention (util/macros.h): invariant
// violations still abort via MMJOIN_CHECK, but *recoverable* conditions --
// allocation failure, invalid configuration, resource degradation, a stuck
// worker pool -- are reported as Status values that propagate out of
// Joiner::Run instead of killing the process. See docs/ROBUSTNESS.md for the
// conventions.
//
// The OK path is cheap: an OK Status is a null pointer, copying it is a
// pointer copy, and ok() is one comparison. Error details (code + message)
// live behind a shared_ptr allocated only on the error path.

#ifndef MMJOIN_UTIL_STATUS_H_
#define MMJOIN_UTIL_STATUS_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "util/macros.h"

namespace mmjoin {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,     // caller passed a nonsensical config/parameter
  kResourceExhausted = 2,   // allocation failed (real or fault-injected)
  kDeadlineExceeded = 3,    // watchdog fired (stuck barrier / dispatch)
  kFailedPrecondition = 4,  // object unusable (e.g. poisoned executor)
  kInternal = 5,            // invariant that chose not to abort
  kNotFound = 6,            // lookup by name missed
  kUnavailable = 7,         // optional facility absent (perf counters, files)
};

const char* StatusCodeName(StatusCode code);

// [[nodiscard]] on the class makes every function returning a Status by
// value warn when the result is dropped -- a dropped Status is a swallowed
// error. Deliberate discards must be spelled `(void)expr;` with a comment
// saying why (lint rule `status-discard`).
class [[nodiscard]] Status {
 public:
  // Default-constructed Status is OK.
  Status() = default;

  Status(StatusCode code, std::string message) {
    if (code != StatusCode::kOk) {
      rep_ = std::make_shared<const Rep>(Rep{code, std::move(message)});
    }
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const {
    return rep_ == nullptr ? StatusCode::kOk : rep_->code;
  }
  const std::string& message() const {
    static const std::string* const kEmpty = new std::string;
    return rep_ == nullptr ? *kEmpty : rep_->message;
  }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string out = StatusCodeName(code());
    out += ": ";
    out += message();
    return out;
  }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::shared_ptr<const Rep> rep_;  // null == OK
};

inline Status OkStatus() { return Status(); }

inline Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
inline Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
inline Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}
inline Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
inline Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
inline Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
inline Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}

inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

// Either a T or a non-OK Status. No exceptions: value() on an error aborts
// with the status message (a programming error, same contract as
// MMJOIN_CHECK), so call ok() first on any path that can fail.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // Implicit from a value (the common return path).
  StatusOr(const T& value) : value_(value) {}
  StatusOr(T&& value) : value_(std::move(value)) {}

  // Implicit from a non-OK Status (the error return path). An OK status
  // without a value is a bug and becomes an internal error.
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = InternalError("StatusOr constructed from an OK Status");
    }
  }

  bool ok() const { return value_.has_value(); }
  bool has_value() const { return value_.has_value(); }

  // OK when a value is present.
  const Status& status() const& { return status_; }
  Status status() && { return std::move(status_); }

  const T& value() const& {
    EnsureOk();
    return *value_;
  }
  T& value() & {
    EnsureOk();
    return *value_;
  }
  T&& value() && {
    EnsureOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void EnsureOk() const {
    if (MMJOIN_UNLIKELY(!value_.has_value())) {
      std::fprintf(stderr, "[mmjoin] StatusOr::value() on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  Status status_;
  std::optional<T> value_;
};

namespace internal_status {
inline const Status& AsStatus(const Status& status) { return status; }
template <typename T>
const Status& AsStatus(const StatusOr<T>& status_or) {
  return status_or.status();
}
}  // namespace internal_status

}  // namespace mmjoin

// Aborts with the status printed when `expr` (a Status or StatusOr) is not
// OK. For harness and generator paths that have no recovery story: failing
// loudly beats computing with partial data (same contract as
// StatusOr::value()).
#define MMJOIN_CHECK_OK(expr)                                                \
  do {                                                                       \
    if (auto&& _mmjoin_ck = (expr); MMJOIN_UNLIKELY(!_mmjoin_ck.ok())) {     \
      std::fprintf(                                                          \
          stderr, "[mmjoin] %s:%d: MMJOIN_CHECK_OK(%s) failed: %s\n",        \
          __FILE__, __LINE__, #expr,                                         \
          ::mmjoin::internal_status::AsStatus(_mmjoin_ck).ToString().c_str()); \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

// Propagates a non-OK Status (or the Status of a StatusOr-returning
// subexpression evaluated for its Status) out of the enclosing function.
#define MMJOIN_RETURN_IF_ERROR(expr)              \
  do {                                            \
    if (auto _mmjoin_st = (expr); !_mmjoin_st.ok()) \
      return _mmjoin_st;                          \
  } while (0)

#define MMJOIN_STATUS_CONCAT_INNER_(a, b) a##b
#define MMJOIN_STATUS_CONCAT_(a, b) MMJOIN_STATUS_CONCAT_INNER_(a, b)

// MMJOIN_ASSIGN_OR_RETURN(auto x, Foo()): binds the value on success,
// returns the Status out of the enclosing function on failure.
#define MMJOIN_ASSIGN_OR_RETURN(lhs, rexpr)                             \
  auto MMJOIN_STATUS_CONCAT_(_mmjoin_statusor_, __LINE__) = (rexpr);    \
  if (!MMJOIN_STATUS_CONCAT_(_mmjoin_statusor_, __LINE__).ok())         \
    return std::move(MMJOIN_STATUS_CONCAT_(_mmjoin_statusor_, __LINE__)) \
        .status();                                                      \
  lhs = std::move(MMJOIN_STATUS_CONCAT_(_mmjoin_statusor_, __LINE__)).value()

#endif  // MMJOIN_UTIL_STATUS_H_
