//===- core/AppInstance.h - A booted application process --------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One running application: a simulated kernel + process + runtime with
/// the app's dex file loaded, init() executed, and (by default) every
/// compilable method AOT-compiled with the stock Android pipeline — the
/// out-of-the-box device state the paper's baseline represents.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_CORE_APP_INSTANCE_H
#define ROPT_CORE_APP_INSTANCE_H

#include "os/Kernel.h"
#include "vm/Runtime.h"
#include "workloads/Workloads.h"

#include <memory>

namespace ropt {
namespace core {

class AppInstance {
public:
  /// Code installed at boot.
  enum class BootCode {
    AndroidCompiled, ///< Stock pipeline for every compilable method.
    InterpretOnly,   ///< Nothing compiled.
  };

  AppInstance(const workloads::Application &App, uint64_t Seed,
              bool AttributeCycles = false,
              BootCode Boot = BootCode::AndroidCompiled);

  /// Runs one session with the given parameter (queues one scripted user
  /// input first).
  vm::CallResult runSession(int64_t Param);

  /// Runs \p Count sessions with deterministic parameters derived from the
  /// app default; returns the summed cycles (0 if any session trapped —
  /// callers treat that as a failed measurement).
  uint64_t runSessionBlock(int Count, int64_t BaseParam);

  /// Replaces the code for \p Methods with the functions in \p Code,
  /// keeping everything else as booted (the paper applies the winning
  /// binary to the hot region only).
  void overrideRegionCode(const std::vector<dex::MethodId> &Methods,
                          const vm::CodeCache &Code);

  vm::Runtime &runtime() { return *RT; }
  os::Kernel &kernel() { return Kernel; }
  os::Process &process() { return *Proc; }
  const workloads::Application &app() const { return App; }

private:
  workloads::Application App;
  os::Kernel Kernel;
  os::Process *Proc = nullptr;
  vm::NativeRegistry Natives;
  std::unique_ptr<vm::Runtime> RT;
  Rng InputRng;
  Rng EnvRng;
};

} // namespace core
} // namespace ropt

#endif // ROPT_CORE_APP_INSTANCE_H
