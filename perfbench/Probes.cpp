//===- perfbench/Probes.cpp - Decorators and probes for the traced run ----===//

#include "Probes.h"

#include "hgraph/Build.h"
#include "lir/Backend.h"
#include "lir/Codegen.h"

using namespace ropt;
using namespace ropt::perfbench;

void BackendStats::merge(const BackendStats &O) {
  CompileCalls += O.CompileCalls;
  MeasureCalls += O.MeasureCalls;
  CompileMs += O.CompileMs;
  MeasureMs += O.MeasureMs;
  OkMeasureMs += O.OkMeasureMs;
  VirtualCycles += O.VirtualCycles;
  Compiled.insert(O.Compiled.begin(), O.Compiled.end());
}

search::CompiledBinary TimedBackend::compileGenome(const search::Genome &G) {
  Span S(Log, "search.compile", CurrentBatch.load(), App);
  search::CompiledBinary B = Inner->compileGenome(G);
  Stats.CompileMs += S.close();
  ++Stats.CompileCalls;
  Stats.Compiled.emplace(G.name(), std::make_pair(G, B.Ok));
  return B;
}

search::Evaluation TimedBackend::measureBinary(const search::CompiledBinary &B,
                                               uint64_t NoiseSeed,
                                               size_t SampleCount) {
  Span S(Log, "search.measure", CurrentBatch.load(), App);
  search::Evaluation E = Inner->measureBinary(B, NoiseSeed, SampleCount);
  double Ms = S.close();
  Stats.MeasureMs += Ms;
  ++Stats.MeasureCalls;
  if (E.ok()) {
    Stats.OkMeasureMs += Ms;
    Stats.VirtualCycles += E.BaseCycles;
  }
  return E;
}

std::vector<search::Evaluation>
TimedBatch::evaluateBatch(const std::vector<search::Genome> &Genomes) {
  Span S(Log, "search.batch", Parent, App);
  CurrentBatch.store(S.id());
  std::vector<search::Evaluation> Out = Inner.evaluateBatch(Genomes);
  CurrentBatch.store(Parent);
  ++Batches;
  return Out;
}

fleet::Delivery CountingTransport::attempt(const fleet::MessageKey &Key) {
  Clock::time_point T0 = Clock::now();
  fleet::Delivery D = Inner.attempt(Key);
  BusyUs += msSince(T0) * 1e3;
  ++Attempts;
  Drops += !D.Delivered;
  return D;
}

void perfbench::probeCompile(const dex::DexFile &File,
                             const std::vector<dex::MethodId> &Methods,
                             const search::Genome &G, size_t SizeBudget,
                             const lir::TypeProfile &Profile, bool ExpectedOk,
                             CompileStageStats &Out) {
  auto Us = [](Clock::time_point T0) { return msSince(T0) * 1e3; };
  lir::PassContext Ctx;
  Ctx.File = &File;
  Ctx.Profile = &Profile;
  bool Ok = true;
  for (dex::MethodId Id : Methods) {
    const dex::Method &M = File.method(Id);
    if (M.IsNative || M.isUncompilable())
      continue; // Unsupported: compileAllLlvm skips it too.
    ++Out.Methods;

    Clock::time_point T = Clock::now();
    hgraph::HGraph HG = hgraph::buildHGraph(File, Id);
    Out.BuildUs += Us(T);

    T = Clock::now();
    lir::LFunction Fn = lir::fromHGraph(HG, lir::TranslateOptions());
    Out.TranslateUs += Us(T);
    Out.InsnsIn += Fn.instructionCount();

    T = Clock::now();
    bool InBudget = lir::runPipeline(Fn, G.Passes, Ctx, SizeBudget);
    Out.PassesUs += Us(T);
    if (!InBudget) {
      Ok = false;
      continue;
    }
    ++Out.PipelinesDone;
    Out.InsnsOut += Fn.instructionCount();

    T = Clock::now();
    std::string Error;
    bool Valid = Fn.verify(Error);
    Out.VerifyUs += Us(T);
    if (!Valid) {
      Ok = false;
      continue;
    }

    T = Clock::now();
    std::shared_ptr<vm::MachineFunction> Code =
        lir::emitMachine(std::move(Fn), G.RegAlloc);
    Out.CodegenUs += Us(T);
  }
  ++Out.Genomes;
  Out.StatusMismatch += Ok != ExpectedOk;
}
