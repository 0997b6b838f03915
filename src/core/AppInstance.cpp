//===- core/AppInstance.cpp - A booted application process ------------------===//

#include "core/AppInstance.h"

#include "hgraph/AndroidCompiler.h"

#include <cassert>

using namespace ropt;
using namespace ropt::core;

AppInstance::AppInstance(const workloads::Application &App, uint64_t Seed,
                         bool AttributeCycles, BootCode Boot)
    : App(App), Natives(vm::NativeRegistry::standardLibrary()),
      InputRng(Seed ^ 0x5e551011), EnvRng(Seed ^ 0xe417) {
  vm::RuntimeConfig Config = App.RtConfig;
  Config.AttributeCycles = AttributeCycles;

  Proc = &Kernel.spawn();
  vm::Runtime::mapStandardLayout(Proc->space(), *App.File, Config);
  RT = std::make_unique<vm::Runtime>(Proc->space(), *App.File, Natives,
                                     Config);
  RT->setEnvironmentRng(&EnvRng);

  if (Boot == BootCode::AndroidCompiled) {
    std::vector<dex::MethodId> All;
    for (const dex::Method &M : App.File->methods())
      if (!M.IsNative && !M.isUncompilable())
        All.push_back(M.Id);
    hgraph::compileAllAndroid(*App.File, All, RT->codeCache());
  }

  [[maybe_unused]] vm::CallResult Init =
      RT->call(App.InitEntry, App.argsFor(App.InitParam));
  assert(Init.ok() && "application init trapped");
  // The profile should describe the user's sessions, not app startup —
  // otherwise a heavyweight init() masquerades as the hot region.
  RT->resetProfile();
}

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
