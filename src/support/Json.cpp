//===- support/Json.cpp - Minimal JSON building and parsing -----------------===//

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>

using namespace ropt;
using namespace ropt::json;

// --- Escaping ----------------------------------------------------------------

void json::appendEscaped(std::string &Out, const char *S) {
  for (; *S; ++S) {
    unsigned char C = static_cast<unsigned char>(*S);
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
}

void json::appendEscaped(std::string &Out, const std::string &S) {
  appendEscaped(Out, S.c_str());
}

std::string json::quoted(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  Out += '"';
  appendEscaped(Out, S);
  Out += '"';
  return Out;
}

// --- Builder -----------------------------------------------------------------

void Builder::comma() {
  if (!First)
    Out += ',';
  First = false;
}

void Builder::key(const char *Key) {
  comma();
  Out += '"';
  appendEscaped(Out, Key);
  Out += "\":";
}

namespace {

std::string numberToJson(double Value) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  // JSON has no inf/nan; the report layer never produces them, but stay
  // well-formed if a caller does.
  if (Buf[0] == 'i' || Buf[0] == '-' ? Buf[1] == 'i' : Buf[0] == 'n')
    return "0";
  return Buf;
}

} // namespace

Builder &Builder::field(const char *K, const std::string &V) {
  key(K);
  Out += quoted(V);
  return *this;
}

Builder &Builder::field(const char *K, const char *V) {
  key(K);
  Out += quoted(V);
  return *this;
}

Builder &Builder::field(const char *K, double V) {
  key(K);
  Out += numberToJson(V);
  return *this;
}

Builder &Builder::field(const char *K, int64_t V) {
  key(K);
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  Out += Buf;
  return *this;
}

Builder &Builder::field(const char *K, uint64_t V) {
  key(K);
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu", static_cast<unsigned long long>(V));
  Out += Buf;
  return *this;
}

Builder &Builder::field(const char *K, bool V) {
  key(K);
  Out += V ? "true" : "false";
  return *this;
}

Builder &Builder::fieldNull(const char *K) {
  key(K);
  Out += "null";
  return *this;
}

Builder &Builder::fieldRaw(const char *K, const std::string &Json) {
  key(K);
  Out += Json;
  return *this;
}

Builder &Builder::element(double V) {
  comma();
  Out += numberToJson(V);
  return *this;
}

Builder &Builder::element(uint64_t V) {
  comma();
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu", static_cast<unsigned long long>(V));
  Out += Buf;
  return *this;
}

Builder &Builder::element(const std::string &V) {
  comma();
  Out += quoted(V);
  return *this;
}

Builder &Builder::elementRaw(const std::string &Json) {
  comma();
  Out += Json;
  return *this;
}

std::string Builder::str() && {
  Out += Array ? ']' : '}';
  return std::move(Out);
}

// --- Value -------------------------------------------------------------------

Value Value::boolean(bool V) {
  Value Out;
  Out.K = Kind::Bool;
  Out.B = V;
  return Out;
}

Value Value::number(double V) {
  Value Out;
  Out.K = Kind::Number;
  Out.N = V;
  return Out;
}

Value Value::makeString(std::string V) {
  Value Out;
  Out.K = Kind::String;
  Out.S = std::move(V);
  return Out;
}

Value Value::array(std::vector<Value> V) {
  Value Out;
  Out.K = Kind::Array;
  Out.Elems = std::move(V);
  return Out;
}

Value Value::object(std::vector<Member> V) {
  Value Out;
  Out.K = Kind::Object;
  Out.Members = std::move(V);
  return Out;
}

const Value *Value::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const Member &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

double Value::number(const std::string &Key, double Default) const {
  const Value *V = find(Key);
  return V ? V->asNumber(Default) : Default;
}

bool Value::flag(const std::string &Key, bool Default) const {
  const Value *V = find(Key);
  return V ? V->asBool(Default) : Default;
}

std::string Value::string(const std::string &Key,
                          const std::string &Default) const {
  const Value *V = find(Key);
  return V && V->isString() ? V->asString() : Default;
}

// --- Parser ------------------------------------------------------------------

namespace {

class Parser {
public:
  explicit Parser(const std::string &S) : S(S) {}

  support::Result<Value> run() {
    skipWs();
    Value V;
    if (!value(V))
      return fail();
    skipWs();
    if (Pos != S.size())
      return support::Error(support::ErrorCode::Unknown,
                            "trailing characters after JSON value");
    return V;
  }

private:
  support::Result<Value> fail() {
    return support::Error(support::ErrorCode::Unknown,
                          "JSON parse error at offset " +
                              std::to_string(Pos));
  }

  bool value(Value &Out) {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{': return object(Out);
    case '[': return array(Out);
    case '"': {
      std::string Str;
      if (!string(Str))
        return false;
      Out = Value::makeString(std::move(Str));
      return true;
    }
    case 't':
      if (!literal("true"))
        return false;
      Out = Value::boolean(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = Value::boolean(false);
      return true;
    case 'n':
      if (!literal("null"))
        return false;
      Out = Value::null();
      return true;
    default: return number(Out);
    }
  }

  bool object(Value &Out) {
    ++Pos; // '{'
    std::vector<Value::Member> Members;
    skipWs();
    if (peek() == '}') {
      ++Pos;
      Out = Value::object(std::move(Members));
      return true;
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      Value V;
      if (!value(V))
        return false;
      Members.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        Out = Value::object(std::move(Members));
        return true;
      }
      return false;
    }
  }

  bool array(Value &Out) {
    ++Pos; // '['
    std::vector<Value> Elems;
    skipWs();
    if (peek() == ']') {
      ++Pos;
      Out = Value::array(std::move(Elems));
      return true;
    }
    for (;;) {
      skipWs();
      Value V;
      if (!value(V))
        return false;
      Elems.push_back(std::move(V));
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        Out = Value::array(std::move(Elems));
        return true;
      }
      return false;
    }
  }

  bool string(std::string &Out) {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
        switch (S[Pos]) {
        case '"': Out += '"'; break;
        case '\\': Out += '\\'; break;
        case '/': Out += '/'; break;
        case 'n': Out += '\n'; break;
        case 'r': Out += '\r'; break;
        case 't': Out += '\t'; break;
        case 'b': Out += '\b'; break;
        case 'f': Out += '\f'; break;
        case 'u': {
          unsigned Code = 0;
          for (int I = 0; I != 4; ++I) {
            if (++Pos >= S.size())
              return false;
            char C = S[Pos];
            Code <<= 4;
            if (C >= '0' && C <= '9')
              Code |= static_cast<unsigned>(C - '0');
            else if (C >= 'a' && C <= 'f')
              Code |= static_cast<unsigned>(C - 'a' + 10);
            else if (C >= 'A' && C <= 'F')
              Code |= static_cast<unsigned>(C - 'A' + 10);
            else
              return false;
          }
          // Our writers only escape control characters; decode the BMP
          // code point as UTF-8 for completeness.
          if (Code < 0x80) {
            Out += static_cast<char>(Code);
          } else if (Code < 0x800) {
            Out += static_cast<char>(0xC0 | (Code >> 6));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (Code >> 12));
            Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default: return false;
        }
        ++Pos;
        continue;
      }
      Out += S[Pos++];
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing quote
    return true;
  }

  bool number(Value &Out) {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < S.size() && (std::isdigit(static_cast<unsigned char>(
                                  S[Pos])) ||
                              S[Pos] == '.' || S[Pos] == 'e' ||
                              S[Pos] == 'E' || S[Pos] == '+' ||
                              S[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return false;
    std::string Text = S.substr(Start, Pos - Start);
    char *End = nullptr;
    double V = std::strtod(Text.c_str(), &End);
    if (End != Text.c_str() + Text.size())
      return false;
    Out = Value::number(V);
    return true;
  }

  bool literal(const char *Lit) {
    size_t Len = std::char_traits<char>::length(Lit);
    if (S.compare(Pos, Len, Lit) != 0)
      return false;
    Pos += Len;
    return true;
  }

  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }
  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  const std::string &S;
  size_t Pos = 0;
};

} // namespace

support::Result<Value> json::parse(const std::string &Text) {
  return Parser(Text).run();
}
