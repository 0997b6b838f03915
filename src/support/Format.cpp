//===- support/Format.cpp - printf-style string formatting ---------------===//

#include "support/Format.h"

#include <cassert>
#include <cstdio>

using namespace ropt;

std::string ropt::formatV(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  assert(Needed >= 0 && "invalid format string");
  std::string Out(static_cast<size_t>(Needed), '\0');
  // +1 for the terminating NUL that vsnprintf always writes.
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  return Out;
}

std::string ropt::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Out = formatV(Fmt, Args);
  va_end(Args);
  return Out;
}

std::string ropt::join(const std::vector<std::string> &Parts,
                       const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I != Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}
