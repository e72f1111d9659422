// Status / StatusOr: exception-free error handling for all fallible paths.
//
// Follows the RocksDB/Arrow idiom mandated by the project guides: every
// operation that can fail returns a Status (or StatusOr<T> when it also
// produces a value), and callers propagate with OIB_RETURN_IF_ERROR.

#ifndef OIB_COMMON_STATUS_H_
#define OIB_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace oib {

// [[nodiscard]]: ignoring a Status is almost always a bug — every caller
// must either propagate, handle, or explicitly (void)-cast with a comment
// saying why dropping the error is correct.
class [[nodiscard]] Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 3,
    kIoError = 4,
    kBusy = 5,            // Lock/latch not granted (conditional request).
    kAborted = 6,         // Transaction aborted (deadlock timeout, etc.).
    kDuplicateKey = 7,    // Exact <key value, RID> already present.
    kUniqueViolation = 8, // Unique index key-value violation.
    kNotSupported = 9,
    kInjected = 10,       // Fail-point fired (tests/benches only).
    kCancelled = 11,      // Operation cancelled (e.g., index build cancel).
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IoError(std::string msg = "") {
    return Status(Code::kIoError, std::move(msg));
  }
  static Status Busy(std::string msg = "") {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status DuplicateKey(std::string msg = "") {
    return Status(Code::kDuplicateKey, std::move(msg));
  }
  static Status UniqueViolation(std::string msg = "") {
    return Status(Code::kUniqueViolation, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status Injected(std::string msg = "") {
    return Status(Code::kInjected, std::move(msg));
  }
  static Status Cancelled(std::string msg = "") {
    return Status(Code::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIoError() const { return code_ == Code::kIoError; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsDuplicateKey() const { return code_ == Code::kDuplicateKey; }
  bool IsUniqueViolation() const { return code_ == Code::kUniqueViolation; }
  bool IsInjected() const { return code_ == Code::kInjected; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_;
  std::string msg_;
};

// Value-or-error. The value is only accessible when status().ok().
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status s) : status_(std::move(s)) {  // NOLINT(runtime/explicit)
    assert(!status_.ok());
  }
  StatusOr(T value)  // NOLINT(runtime/explicit)
      : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return value_;
  }
  T& value() & {
    assert(ok());
    return value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  T value_{};
};

}  // namespace oib

// Propagates a non-OK Status from an expression to the caller.
#define OIB_RETURN_IF_ERROR(expr)               \
  do {                                          \
    ::oib::Status _oib_status = (expr);         \
    if (!_oib_status.ok()) return _oib_status;  \
  } while (0)

// Evaluates a StatusOr expression, propagating error or binding the value.
#define OIB_ASSIGN_OR_RETURN(lhs, expr)                  \
  auto OIB_CONCAT_(_oib_sor_, __LINE__) = (expr);        \
  if (!OIB_CONCAT_(_oib_sor_, __LINE__).ok())            \
    return OIB_CONCAT_(_oib_sor_, __LINE__).status();    \
  lhs = std::move(OIB_CONCAT_(_oib_sor_, __LINE__)).value()

#define OIB_CONCAT_INNER_(a, b) a##b
#define OIB_CONCAT_(a, b) OIB_CONCAT_INNER_(a, b)

#endif  // OIB_COMMON_STATUS_H_
