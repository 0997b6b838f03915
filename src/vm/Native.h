//===- vm/Native.h - JNI-style native method registry -----------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Native (JNI) methods: C++ implementations the bytecode can call. Each
/// call pays the JNI transition cost plus a per-native work cost — natives
/// are the expensive, opaque boundary the paper's LLVM backend attacks by
/// replacing math natives with intrinsics.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_VM_NATIVE_H
#define ROPT_VM_NATIVE_H

#include "support/Random.h"
#include "vm/Value.h"

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace ropt {
namespace vm {

/// Environment a native executes against. Deterministic natives only read
/// their arguments; I/O natives touch the log/queue; non-deterministic
/// natives draw from EnvRng / the tick clock.
struct NativeContext {
  Rng *EnvRng = nullptr;
  std::vector<int64_t> *IoLog = nullptr;
  std::deque<int64_t> *InputQueue = nullptr;
  uint64_t NowMillis = 0;
};

using NativeFn =
    std::function<Value(NativeContext &, const std::vector<Value> &)>;

/// One registered native.
struct NativeImpl {
  NativeFn Fn;
  /// Work cycles of the native body itself (on top of the JNI transition).
  uint32_t WorkCycles = 40;
  /// The result depends on the session's environment — the scripted input
  /// queue, the environment RNG or the clock — not only on the arguments.
  /// Runtime::environmentReads() counts calls to such natives.
  bool ReadsEnvironment = false;
};

/// Name-keyed registry the runtime resolves DexFile native declarations
/// against.
class NativeRegistry {
public:
  /// Registers (or replaces) \p Name.
  void add(const std::string &Name, NativeFn Fn, uint32_t WorkCycles = 40,
           bool ReadsEnvironment = false);

  /// Returns the implementation or nullptr.
  const NativeImpl *lookup(const std::string &Name) const;

  /// The standard library: math (sin/cos/tan/exp/log/pow/atan2/floor/
  /// absF/minF/maxF), I/O (print/drawCell/vibrate/readInput/writeRecord),
  /// and non-deterministic services (currentTimeMillis/randomInt).
  static NativeRegistry standardLibrary();

private:
  std::map<std::string, NativeImpl> Impls;
};

} // namespace vm
} // namespace ropt

#endif // ROPT_VM_NATIVE_H
