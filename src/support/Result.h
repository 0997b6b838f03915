//===- support/Result.h - Typed error propagation ---------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `Result<T>` — a value or a typed `Error` (code + message) — replaces
/// the bool/optional/sentinel failure signalling that used to leak out of
/// the capture and replay layers. Callers that only care whether the
/// operation worked use `ok()`; callers that classify failures (the
/// evaluation engine mapping replay errors onto `EvalKind`) switch on
/// `error().Code` in one place instead of re-deriving the class from trap
/// kinds at every call site.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_SUPPORT_RESULT_H
#define ROPT_SUPPORT_RESULT_H

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace ropt {
namespace support {

/// Failure classes surfaced by the capture/replay/compile layers.
enum class ErrorCode {
  Unknown,
  CaptureNotReady, ///< takeCapture() before an armed capture completed.
  CaptureFailed,   ///< The capture protocol never produced a snapshot,
                   ///< or produced one the replay loader cannot rebuild.
  ReplayCrash,     ///< The replayed region trapped.
  ReplayTimeout,   ///< The replay exhausted its instruction budget.
  OutputMismatch,  ///< Verification-map divergence (wrong output).
  CompileFailed,   ///< Backend rejected the pipeline.
};

const char *errorCodeName(ErrorCode Code);

/// One failure: a machine-readable class plus a human-readable message.
struct Error {
  ErrorCode Code = ErrorCode::Unknown;
  std::string Message;

  Error() = default;
  Error(ErrorCode Code, std::string Message)
      : Code(Code), Message(std::move(Message)) {}
};

/// A value of type \p T or an Error. Construction is implicit from either
/// side so `return Error{...};` and `return SomeT;` both work.
template <typename T> class [[nodiscard]] Result {
public:
  Result(T Value) : Storage(std::move(Value)) {}
  Result(Error E) : Storage(std::move(E)) {}
  Result(ErrorCode Code, std::string Message)
      : Storage(Error(Code, std::move(Message))) {}

  bool ok() const { return std::holds_alternative<T>(Storage); }
  explicit operator bool() const { return ok(); }

  T &value() & {
    assert(ok() && "value() on failed Result");
    return std::get<T>(Storage);
  }
  const T &value() const & {
    assert(ok() && "value() on failed Result");
    return std::get<T>(Storage);
  }
  /// Moves the value out of a temporary: `T V = f().value();`.
  T value() && {
    assert(ok() && "value() on failed Result");
    return std::move(std::get<T>(Storage));
  }

  const Error &error() const {
    assert(!ok() && "error() on successful Result");
    return std::get<Error>(Storage);
  }

private:
  std::variant<T, Error> Storage;
};

} // namespace support
} // namespace ropt

#endif // ROPT_SUPPORT_RESULT_H
