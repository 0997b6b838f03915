//===- support/Format.h - printf-style string formatting -------*- C++ -*-===//
//
// Part of ReplayOpt, a reproduction of "Developer and User-Transparent
// Compiler Optimization for Interactive Applications" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string-formatting helpers used throughout the library. We avoid
/// <iostream> in library code; everything funnels through std::snprintf.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_SUPPORT_FORMAT_H
#define ROPT_SUPPORT_FORMAT_H

#include <cstdarg>
#include <string>
#include <vector>

namespace ropt {

/// Returns the printf-style formatting of \p Fmt with the given arguments.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// va_list flavour of format().
std::string formatV(const char *Fmt, va_list Args);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

} // namespace ropt

#endif // ROPT_SUPPORT_FORMAT_H
