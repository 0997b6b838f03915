//===- core/AppInstance.cpp - A booted application process ------------------===//

#include "core/AppInstance.h"

#include "hgraph/AndroidCompiler.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>

using namespace ropt;
using namespace ropt::core;

namespace {

Rng inputRng(uint64_t Seed) { return Rng(Seed ^ 0x5e551011); }
Rng environmentRng(uint64_t Seed) { return Rng(Seed ^ 0xe417); }

} // namespace

BootImage::BootImage(const workloads::Application &App, uint64_t Seed,
                     BootCode Code)
    : App(App), BootSeed(Seed), Code(Code), EnvRng(environmentRng(Seed)) {
  ROPT_TRACE_SPAN("pipeline.boot");
  ROPT_METRIC_INC("pipeline.boots");
  vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
  vm::Runtime::mapStandardLayout(Space, *App.File, App.RtConfig);
  // Attribution is a fork's choice: it never changes what a call charges.
  vm::RuntimeConfig Config = App.RtConfig;
  Config.AttributeCycles = false;
  vm::Runtime RT(Space, *App.File, Natives, Config);
  RT.setEnvironmentRng(&EnvRng);

  if (Code == BootCode::AndroidCompiled) {
    std::vector<dex::MethodId> All;
    for (const dex::Method &M : App.File->methods())
      if (!M.IsNative && !M.isUncompilable())
        All.push_back(M.Id);
    hgraph::compileAllAndroid(*App.File, All, RT.codeCache());
  }

  Init = RT.call(App.InitEntry, App.argsFor(App.InitParam));
  State = RT.bootState();
}

BootImage &BootImage::forSeed(uint64_t Seed,
                              std::optional<BootImage> &Spare) {
  if (serves(Seed))
    return *this;
  return Spare.emplace(App, Seed, Code);
}

AppInstance::AppInstance(const BootImage &Image, uint64_t Seed,
                         bool AttributeCycles)
    : App(Image.App), Natives(vm::NativeRegistry::standardLibrary()),
      InputRng(inputRng(Seed)),
      EnvRng(Image.State.EnvironmentReads ? Image.EnvRng
                                          : environmentRng(Seed)) {
  ROPT_TRACE_SPAN("pipeline.fork");
  assert(Image.init().ok() && "application init trapped");
  assert(Image.serves(Seed) && "boot image booted with another seed");
  vm::RuntimeConfig Config = App.RtConfig;
  Config.AttributeCycles = AttributeCycles;

  Proc = &Kernel.spawn();
  Proc->space() = Image.Space.forkClone();
  RT = std::make_unique<vm::Runtime>(Proc->space(), *App.File, Natives,
                                     Config);
  RT->setEnvironmentRng(&EnvRng);
  RT->adoptBootState(Image.State);
  // The profile should describe the user's sessions, not app startup —
  // otherwise a heavyweight init() masquerades as the hot region.
  RT->resetProfile();

  // An image's first fork takes over the init() it ran for it; every later
  // fork adopts that work instead of executing it again.
  ROPT_METRIC_INC("pipeline.boot_forks");
  if (Image.Forks++ != 0) {
    ROPT_METRIC_ADD("pipeline.boot_shared_cycles", Image.State.TotalCycles);
    ROPT_METRIC_ADD("pipeline.boot_shared_insns", Image.State.TotalInsns);
  }
}

AppInstance::AppInstance(const workloads::Application &App, uint64_t Seed,
                         bool AttributeCycles, BootCode Boot)
    : AppInstance(BootImage(App, Seed, Boot), Seed, AttributeCycles) {}

vm::CallResult AppInstance::runSession(int64_t Param) {
  RT->inputQueue().push_back(static_cast<int64_t>(InputRng.below(4)));
  return RT->call(App.SessionEntry, App.argsFor(Param));
}

uint64_t AppInstance::runSessionBlock(int Count, int64_t BaseParam) {
  uint64_t Total = 0;
  for (int I = 0; I != Count; ++I) {
    vm::CallResult R = runSession(BaseParam + I);
    if (!R.ok())
      return 0;
    Total += R.Cycles;
  }
  return Total;
}

void AppInstance::overrideRegionCode(
    const std::vector<dex::MethodId> &Methods, const vm::CodeCache &Code) {
  for (dex::MethodId Id : Methods) {
    auto It = Code.functions().find(Id);
    if (It != Code.functions().end())
      RT->codeCache().install(It->second); // installed code is immutable
    else
      RT->codeCache().remove(Id); // falls back to the interpreter
  }
}
