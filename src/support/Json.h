//===- support/Json.h - Minimal JSON building and parsing -------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON substrate every exporter shares: string escaping (used by
/// the trace recorder, the metrics registry and the run-report writer), a
/// tiny append-style object/array builder for streaming JSONL records, and
/// a strict recursive-descent parser for reading them back (`ropt-report`
/// summarizing and diffing run directories).
///
/// The parser keeps object members in file order and exposes them through
/// `find()`; numbers are doubles, which is why 64-bit identities (binary
/// hashes) are serialized as hex *strings* everywhere in this repo.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_SUPPORT_JSON_H
#define ROPT_SUPPORT_JSON_H

#include "support/Result.h"

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace ropt {
namespace json {

/// Appends \p S to \p Out with JSON string escaping ("\\", control
/// characters as \uXXXX). Does not add the surrounding quotes.
void appendEscaped(std::string &Out, const char *S);
void appendEscaped(std::string &Out, const std::string &S);

/// Returns \p S quoted and escaped: `"..."`.
std::string quoted(const std::string &S);

/// Append-style builder for one JSON object or array. Values are written
/// in call order; the builder inserts commas and key quoting. Doubles are
/// formatted with %.17g so a write -> parse round trip is exact.
class Builder {
public:
  /// \p Array selects `[...]` instead of `{...}`.
  explicit Builder(bool Array = false) : Array(Array) {
    Out += Array ? '[' : '{';
  }

  Builder &field(const char *Key, const std::string &Value);
  Builder &field(const char *Key, const char *Value);
  Builder &field(const char *Key, double Value);
  Builder &field(const char *Key, int64_t Value);
  Builder &field(const char *Key, uint64_t Value);
  Builder &field(const char *Key, int Value) {
    return field(Key, static_cast<int64_t>(Value));
  }
  Builder &field(const char *Key, bool Value);
  Builder &fieldNull(const char *Key);
  /// Inserts a pre-rendered JSON value (an object, array, or number that
  /// the caller formatted itself).
  Builder &fieldRaw(const char *Key, const std::string &Json);

  /// Array flavours (no key).
  Builder &element(double Value);
  Builder &element(uint64_t Value);
  Builder &element(const std::string &Value);
  Builder &elementRaw(const std::string &Json);

  /// Closes the object/array and returns the rendered JSON.
  std::string str() &&;

private:
  void comma();
  void key(const char *Key);

  std::string Out;
  bool Array = false;
  bool First = true;
};

/// \p D as integer type T. A number T cannot hold (NaN, out of range —
/// damaged input) reads as 0 rather than as an undefined conversion.
template <typename T> T toInteger(double D) {
  if (!(D >= static_cast<double>(std::numeric_limits<T>::min()) &&
        D < static_cast<double>(std::numeric_limits<T>::max())))
    return 0;
  return static_cast<T>(D);
}

/// One parsed JSON value.
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, Value>;

  Value() = default;

  Kind kind() const { return K; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }

  /// Typed accessors with defaults (no throwing on a kind mismatch —
  /// callers validate shape separately).
  bool asBool(bool Default = false) const {
    return K == Kind::Bool ? B : Default;
  }
  double asNumber(double Default = 0.0) const {
    return K == Kind::Number ? N : Default;
  }
  const std::string &asString() const { return S; }
  const std::vector<Value> &elements() const { return Elems; }
  const std::vector<Member> &members() const { return Members; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value *find(const std::string &Key) const;
  /// Shorthand: member number/string/bool with a default.
  double number(const std::string &Key, double Default = 0.0) const;
  bool flag(const std::string &Key, bool Default = false) const;
  /// Member number as integer type T (see toInteger).
  template <typename T> T integer(const std::string &Key) const {
    return toInteger<T>(number(Key));
  }
  std::string string(const std::string &Key,
                     const std::string &Default = "") const;

  // Construction (used by the parser).
  static Value null() { return Value(); }
  static Value boolean(bool V);
  static Value number(double V);
  static Value makeString(std::string V);
  static Value array(std::vector<Value> V);
  static Value object(std::vector<Member> V);

private:
  Kind K = Kind::Null;
  bool B = false;
  double N = 0.0;
  std::string S;
  std::vector<Value> Elems;
  std::vector<Member> Members;
};

/// Strict parse of one JSON document (trailing garbage is an error).
support::Result<Value> parse(const std::string &Text);

} // namespace json
} // namespace ropt

#endif // ROPT_SUPPORT_JSON_H
