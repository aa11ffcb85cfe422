#include "common/status.h"

namespace dgt {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kIoError:
      return "IoError";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  out += ": ";
  out += message_;
  return out;
}

}  // namespace dgt
