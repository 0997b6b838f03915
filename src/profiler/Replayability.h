//===- profiler/Replayability.h - Static replayability analysis -*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.1's static bytecode analysis: methods that perform I/O, draw
/// on non-determinism (clocks, PRNGs), use exception handling (stack-layout
/// sensitive), or cross into blocklisted JNI cannot be captured and
/// replayed. The properties propagate over the (virtual-dispatch-closed)
/// call graph: calling an unreplayable method makes the caller
/// unreplayable.
///
/// The only JNI calls not blocklisted are the math natives the LLVM
/// backend can replace with intrinsics (Section 3.5).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_PROFILER_REPLAYABILITY_H
#define ROPT_PROFILER_REPLAYABILITY_H

#include "dex/DexFile.h"

#include <vector>

namespace ropt {
namespace profiler {

/// Figure 8's runtime categories.
enum class MethodCategory {
  Compiled,     ///< In the optimized hot region.
  Cold,         ///< Replayable + compilable, but not worth compiling.
  Jni,          ///< Native code.
  Unreplayable, ///< Blocked from capture (I/O, nondet, exceptions, JNI).
  Uncompilable, ///< The Android backend cannot process it.
};

/// Per-method replayability facts.
class ReplayabilityAnalysis {
public:
  static ReplayabilityAnalysis analyze(const dex::DexFile &File);

  /// True when the method's behaviour is fully determined by its memory
  /// state: no I/O, no nondeterminism, no exceptions, no blocklisted JNI
  /// — transitively through everything it can call.
  bool isReplayable(dex::MethodId Id) const { return Replayable[Id]; }

  /// True when the stock compiler backend can process the method.
  bool isCompilable(dex::MethodId Id) const { return Compilable[Id]; }

private:
  std::vector<bool> Replayable;
  std::vector<bool> Compilable;
};

} // namespace profiler
} // namespace ropt

#endif // ROPT_PROFILER_REPLAYABILITY_H
