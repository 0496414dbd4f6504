#ifndef PREGELIX_COMMON_STATUS_H_
#define PREGELIX_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace pregelix {

/// Error category for a Status.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kIoError,
  kCorruption,
  kOutOfMemory,
  kResourceExhausted,
  kAborted,
  kFailedPrecondition,
  kInternal,
  kNotSupported,
};

/// Returns a human-readable name for a status code ("IoError", ...).
const char* StatusCodeName(StatusCode code);

/// Lightweight status type used across the storage and dataflow layers.
///
/// The engine does not throw exceptions on expected failure paths (I/O
/// errors, key-not-found, budget exhaustion); those travel as Status values.
/// The one deliberate exception type is SimulatedOutOfMemory, thrown by the
/// baseline engines' accounting allocator to reproduce the paper's baseline
/// failure behaviour (see src/baselines).
///
/// [[nodiscard]] on the class: silently dropping a returned Status hides
/// I/O and corruption errors, so every ignored return is a compile warning;
/// the rare deliberate discard must say so via a named local or
/// PREGELIX_IGNORE_STATUS.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string m = "") {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m = "") {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status InvalidArgument(std::string m = "") {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status IoError(std::string m = "") {
    return Status(StatusCode::kIoError, std::move(m));
  }
  static Status Corruption(std::string m = "") {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status OutOfMemory(std::string m = "") {
    return Status(StatusCode::kOutOfMemory, std::move(m));
  }
  static Status ResourceExhausted(std::string m = "") {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Aborted(std::string m = "") {
    return Status(StatusCode::kAborted, std::move(m));
  }
  static Status FailedPrecondition(std::string m = "") {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status Internal(std::string m = "") {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status NotSupported(std::string m = "") {
    return Status(StatusCode::kNotSupported, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfMemory() const { return code_ == StatusCode::kOutOfMemory; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Evaluates `expr` (a Status expression); returns it from the enclosing
/// function if it is not OK.
#define PREGELIX_RETURN_NOT_OK(expr)              \
  do {                                            \
    ::pregelix::Status _s = (expr);               \
    if (!_s.ok()) return _s;                      \
  } while (0)

/// Documents a deliberately ignored Status (cleanup paths where the primary
/// error is already being reported). Prefer logging or propagating.
#define PREGELIX_IGNORE_STATUS(expr)              \
  do {                                            \
    ::pregelix::Status _s = (expr);               \
    (void)_s;                                     \
  } while (0)

}  // namespace pregelix

#endif  // PREGELIX_COMMON_STATUS_H_
