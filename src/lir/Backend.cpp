//===- lir/Backend.cpp - The LLVM-like compiler driver ----------------------===//

#include "lir/Backend.h"

#include "hgraph/Build.h"
#include "lir/Codegen.h"
#include "lir/FromHGraph.h"

using namespace ropt;
using namespace ropt::lir;

namespace {

/// compileMethodLlvm with the pass context given; \p Ctx.Callees is set.
CompileResult compileMethod(dex::MethodId Method, const CompileOptions &Options,
                            const PassContext &Ctx) {
  CompileResult Result;
  const dex::Method &M = Ctx.File->method(Method);
  if (M.IsNative || M.isUncompilable()) {
    Result.Status = CompileStatus::Unsupported;
    return Result;
  }

  hgraph::HGraph G = hgraph::buildHGraph(*Ctx.File, Method);
  LFunction Fn = fromHGraph(G, Options.Translate);

  if (!runPipeline(Fn, Options.Pipeline, Ctx, Options.SizeBudget)) {
    Result.Status = CompileStatus::SizeBudget;
    return Result;
  }

  std::string Error;
  if (!Fn.verify(Error)) {
    Result.Status = CompileStatus::VerifierError;
    Result.Error = Error;
    return Result;
  }

  Result.Fn = emitMachine(std::move(Fn), Options.RegAlloc);
  Result.Status = CompileStatus::Ok;
  return Result;
}

} // namespace

CompileResult lir::compileMethodLlvm(const dex::DexFile &File,
                                     dex::MethodId Method,
                                     const CompileOptions &Options,
                                     const TypeProfile *Profile) {
  CalleeSsa Callees(File);
  return compileMethod(Method, Options, {&File, Profile, &Callees});
}

CompileStatus lir::compileAllLlvm(const dex::DexFile &File,
                                  const std::vector<dex::MethodId> &Methods,
                                  const CompileOptions &Options,
                                  vm::CodeCache &Cache,
                                  const TypeProfile *Profile) {
  // One callee provider for the whole compile: a callee inlined into
  // several methods is built once.
  CalleeSsa Callees(File);
  const PassContext Ctx{&File, Profile, &Callees};
  CompileStatus Status = CompileStatus::Ok;
  for (dex::MethodId Id : Methods) {
    CompileResult Result = compileMethod(Id, Options, Ctx);
    if (Result.ok()) {
      Cache.install(Result.Fn);
      continue;
    }
    if (Result.Status != CompileStatus::Unsupported &&
        Status == CompileStatus::Ok)
      Status = Result.Status;
  }
  return Status;
}

namespace {

PassInstance pass(PassId Id, int IntParam = 0, bool Aggressive = false) {
  PassInstance P;
  P.Id = Id;
  P.IntParam = IntParam;
  P.Aggressive = Aggressive;
  return P;
}

} // namespace

std::vector<PassInstance> lir::o0Pipeline() { return {}; }

std::vector<PassInstance> lir::o1Pipeline() {
  return {
      pass(PassId::SimplifyCfg), pass(PassId::ConstProp),
      pass(PassId::InstCombine), pass(PassId::Gvn),
      pass(PassId::Dce),         pass(PassId::SimplifyCfg),
  };
}

std::vector<PassInstance> lir::o2Pipeline() {
  std::vector<PassInstance> P = o1Pipeline();
  std::vector<PassInstance> More = {
      pass(PassId::Inline, 40),
      pass(PassId::SimplifyCfg),
      pass(PassId::ConstProp),
      pass(PassId::InstCombine),
      pass(PassId::JniIntrinsics),
      pass(PassId::Licm),
      pass(PassId::Gvn),
      pass(PassId::BoundsCheckElim),
      pass(PassId::Dce),
      pass(PassId::SimplifyCfg),
  };
  P.insert(P.end(), More.begin(), More.end());
  return P;
}

std::vector<PassInstance> lir::o3Pipeline() {
  std::vector<PassInstance> P = o2Pipeline();
  std::vector<PassInstance> More = {
      pass(PassId::Inline, 120),
      pass(PassId::LoopRotate),
      pass(PassId::Licm),
      pass(PassId::Reassociate),
      pass(PassId::Sink),
      pass(PassId::Gvn),
      pass(PassId::InstCombine),
      pass(PassId::BoundsCheckElim),
      pass(PassId::Dce),
      pass(PassId::SimplifyCfg),
  };
  P.insert(P.end(), More.begin(), More.end());
  return P;
}
