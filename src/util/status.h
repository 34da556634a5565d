#pragma once

// Lightweight recoverable-error result for the serving surface.
//
// The compute layers (executor, fused driver) assert their preconditions —
// they are internal and a violated contract there is a library bug.  The
// *serving* surface (fmm::Engine) faces untrusted request streams: a
// malformed request (mismatched shapes, an impossible stride, aliased
// outputs) must not take the process down.  Engine entry points validate
// first and return a Status; only an ok() Status means the arithmetic ran.
//
// Success carries no allocation (code + empty string), so returning
// Status::ok() on the hot path is free.  Error construction allocates the
// message — acceptable, errors are the cold path.

#include <string>
#include <utility>

namespace fmm {

enum class StatusCode {
  kOk = 0,
  kInvalidShape,   // operand dimensions do not conform (C m x n, A m x k, B k x n)
  kInvalidStride,  // a row or batch stride cannot describe the claimed operand
  kAliasing,       // an output aliases an input or another batch output
  kInvalidArgument,  // anything else malformed (null data, bad counts, ...)
  kIOError,        // a cache/history file could not be read or written
  kCorruptData,    // a persisted file failed version/format validation
};

const char* status_code_name(StatusCode code);

class Status {
 public:
  // Default-constructed Status is success: `return Status{};`.
  Status() = default;

  static Status error(StatusCode code, std::string message) {
    return Status(code, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  explicit operator bool() const { return ok(); }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<code-name>: <message>" — for logs and assertions.
  std::string to_string() const {
    if (ok()) return "OK";
    std::string s = status_code_name(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }
  friend bool operator!=(const Status& a, const Status& b) { return !(a == b); }

 private:
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidShape:
      return "INVALID_SHAPE";
    case StatusCode::kInvalidStride:
      return "INVALID_STRIDE";
    case StatusCode::kAliasing:
      return "ALIASING";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kIOError:
      return "IO_ERROR";
    case StatusCode::kCorruptData:
      return "CORRUPT_DATA";
  }
  return "?";
}

}  // namespace fmm
