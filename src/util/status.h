// Minimal Status/StatusOr error-handling vocabulary (RocksDB-style).
//
// The library proper never throws; fallible operations (notably graph I/O)
// return Status or StatusOr<T> so embedders can handle corrupt inputs
// gracefully.
#ifndef DSD_UTIL_STATUS_H_
#define DSD_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace dsd {

/// Result of a fallible operation: OK or an error with a message.
class Status {
 public:
  /// Success value.
  static Status Ok() { return Status(); }

  /// Invalid input supplied by the caller (malformed file, bad argument).
  static Status InvalidArgument(std::string message) {
    return Status(Code::kInvalidArgument, std::move(message));
  }

  /// Environment failure (file missing, unreadable).
  static Status IoError(std::string message) {
    return Status(Code::kIoError, std::move(message));
  }

  /// Lookup of a named entity (algorithm, motif) found nothing.
  static Status NotFound(std::string message) {
    return Status(Code::kNotFound, std::move(message));
  }

  /// The operation ran past its caller-supplied time budget.
  static Status DeadlineExceeded(std::string message) {
    return Status(Code::kDeadlineExceeded, std::move(message));
  }

  /// The system declined to even start the operation because capacity is
  /// spent (admission control shedding load, a full queue). Distinct from
  /// DeadlineExceeded: that one ran and lost the race; this one was never
  /// admitted — retrying later can succeed.
  static Status ResourceExhausted(std::string message) {
    return Status(Code::kResourceExhausted, std::move(message));
  }

  /// A quantity the request implies does not fit the representation the
  /// algorithm computes in (an exact flow network whose capacities would
  /// overflow int64). Retrying the same request cannot succeed.
  static Status OutOfRange(std::string message) {
    return Status(Code::kOutOfRange, std::move(message));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIoError() const { return code_ == Code::kIoError; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsDeadlineExceeded() const { return code_ == Code::kDeadlineExceeded; }
  bool IsResourceExhausted() const {
    return code_ == Code::kResourceExhausted;
  }
  bool IsOutOfRange() const { return code_ == Code::kOutOfRange; }

  /// Human-readable description; empty for OK.
  const std::string& message() const { return message_; }

  /// Stable machine-readable name of the code ("Ok", "InvalidArgument",
  /// ...). The server wire protocol transports errors by this name, so the
  /// spellings are frozen.
  const char* CodeName() const {
    switch (code_) {
      case Code::kOk:
        return "Ok";
      case Code::kInvalidArgument:
        return "InvalidArgument";
      case Code::kIoError:
        return "IoError";
      case Code::kNotFound:
        return "NotFound";
      case Code::kDeadlineExceeded:
        return "DeadlineExceeded";
      case Code::kResourceExhausted:
        return "ResourceExhausted";
      case Code::kOutOfRange:
        return "OutOfRange";
    }
    return "Unknown";
  }

  /// "OK" or "<kind>: <message>", for logs and test failures.
  std::string ToString() const {
    if (code_ == Code::kOk) return "OK";
    return std::string(CodeName()) + ": " + message_;
  }

 private:
  enum class Code { kOk, kInvalidArgument, kIoError, kNotFound,
                    kDeadlineExceeded, kResourceExhausted, kOutOfRange };

  Status() : code_(Code::kOk) {}
  Status(Code code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Code code_;
  std::string message_;
};

/// Either a value or an error Status. Mirrors absl::StatusOr's core API.
template <typename T>
class StatusOr {
 public:
  /// Implicit from a value: success.
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::Ok()), value_(std::move(value)) {}

  /// Implicit from a non-OK status: failure. Asserts the status is not OK.
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    assert(!status_.ok());
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Access the value; asserts ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace dsd

#endif  // DSD_UTIL_STATUS_H_
