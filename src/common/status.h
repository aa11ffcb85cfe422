// Status: lightweight error propagation without exceptions (RocksDB idiom).
//
// Library code returns Status (or Result<T>, see result.h) instead of
// throwing. A Status is either OK or carries an error code plus a
// human-readable message.

#ifndef DGT_COMMON_STATUS_H_
#define DGT_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace dgt {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kAlreadyExists = 5,
  kInternal = 6,
  kIoError = 8,
};

// Returns a stable, human-readable name for a status code ("InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

class Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

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
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace dgt

// Propagates a non-OK status to the caller.
#define DGT_RETURN_IF_ERROR(expr)                   \
  do {                                              \
    ::dgt::Status _dgt_status = (expr);             \
    if (!_dgt_status.ok()) return _dgt_status;      \
  } while (0)

#endif  // DGT_COMMON_STATUS_H_
