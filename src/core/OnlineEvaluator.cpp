//===- core/OnlineEvaluator.cpp - Motivation experiments ---------------------===//

#include "core/OnlineEvaluator.h"

#include "support/Statistics.h"

#include <cassert>

using namespace ropt;
using namespace ropt::core;

OnlineEvaluator::OnlineEvaluator(const workloads::Application &App,
                                 PipelineConfig Config)
    : App(App), Config(Config), R(Config.Seed ^ 0x0411e) {
  IterativeCompiler Pipeline(Config);
  IterativeCompiler::ProfiledApp Profiled = Pipeline.profileApp(App);
  if (!Profiled.Region)
    return;
  support::Result<SearchInputs> Inputs =
      Pipeline.captureInputs(Profiled, *Profiled.Region);
  if (!Inputs)
    return;
  support::Result<std::unique_ptr<RegionSearch>> Prepared =
      Pipeline.prepareSearch(this->App, std::move(Inputs).value());
  if (Prepared)
    Search = std::move(Prepared).value();
}

OutcomeHistogram OnlineEvaluator::classifyRandomSequences(int Count) {
  assert(ready() && "setup failed");
  OutcomeHistogram H;
  for (int I = 0; I != Count; ++I) {
    search::Genome G = search::randomGenome(R, Config.Search.GA.Genomes);
    search::Evaluation E =
        Search->Baselines.evaluatePipeline(G.Passes, G.RegAlloc);
    switch (E.Kind) {
    case search::EvalKind::Ok: ++H.Correct; break;
    case search::EvalKind::CompileError: ++H.CompilerError; break;
    case search::EvalKind::RuntimeCrash: ++H.RuntimeCrash; break;
    case search::EvalKind::RuntimeTimeout: ++H.RuntimeTimeout; break;
    case search::EvalKind::WrongOutput: ++H.WrongOutput; break;
    case search::EvalKind::Unevaluated: break; // not a serial outcome
    }
  }
  return H;
}

std::vector<double>
OnlineEvaluator::randomCorrectSpeedups(int Count, int MaxAttempts) {
  assert(ready() && "setup failed");
  std::vector<double> Speedups;
  for (int Attempt = 0;
       Attempt != MaxAttempts &&
       static_cast<int>(Speedups.size()) < Count;
       ++Attempt) {
    search::Genome G = search::randomGenome(R, Config.Search.GA.Genomes);
    search::Evaluation E =
        Search->Baselines.evaluatePipeline(G.Passes, G.RegAlloc);
    if (E.ok())
      Speedups.push_back(Search->Android.MedianCycles / E.MedianCycles);
  }
  return Speedups;
}

namespace {

/// Emits trajectory points at roughly log-spaced evaluation counts.
std::vector<int> logSpacedCounts(int Max) {
  std::vector<int> Counts;
  for (int K = 1; K <= Max;) {
    Counts.push_back(K);
    int Next = static_cast<int>(K * 1.3) + 1;
    K = Next;
  }
  if (Counts.back() != Max)
    Counts.push_back(Max);
  return Counts;
}

ConvergencePoint pointAt(const std::vector<double> &T0,
                         const std::vector<double> &T1, int K, Rng &R) {
  ConvergencePoint P;
  P.Evaluations = K;
  std::vector<double> A(T0.begin(), T0.begin() + K);
  std::vector<double> B(T1.begin(), T1.begin() + K);
  P.Estimate = mean(A) / mean(B);
  BootstrapInterval Ci95 = bootstrapRatioCI(A, B, 0.95, R, 400);
  BootstrapInterval Ci75 = bootstrapRatioCI(A, B, 0.75, R, 400);
  P.Ci95Low = Ci95.Low;
  P.Ci95High = Ci95.High;
  P.Ci75Low = Ci75.Low;
  P.Ci75High = Ci75.High;
  return P;
}

} // namespace

OnlineEvaluator::Convergence
OnlineEvaluator::convergence(int MaxEvaluations) {
  assert(ready() && "setup failed");
  Convergence Out;
  const profiler::HotRegion &Region = Search->Region;

  // Region code at -O0 and -O1.
  search::Genome O0, O1;
  O0.Passes = lir::o0Pipeline();
  O1.Passes = lir::o1Pipeline();
  std::optional<vm::CodeCache> O0Code = Search->Baselines.compileRegion(O0);
  std::optional<vm::CodeCache> O1Code = Search->Baselines.compileRegion(O1);
  assert(O0Code && O1Code && "preset compilation failed");

  // Online: two app instances, forked from one boot, each executing the
  // hot region directly with freshly drawn inputs under online noise.
  BootImage Image(App, Config.Seed + 11);
  std::optional<BootImage> Spare;
  AppInstance Inst0(Image, Config.Seed + 11);
  AppInstance Inst1(Image.forSeed(Config.Seed + 12, Spare), Config.Seed + 12);
  Inst0.overrideRegionCode(Region.Methods, *O0Code);
  Inst1.overrideRegionCode(Region.Methods, *O1Code);

  auto RunOnline = [&](AppInstance &Inst) {
    int64_t Param = R.range(App.MinParam, App.MaxParam);
    vm::CallResult Res =
        Inst.runtime().call(Region.Root, App.argsFor(Param));
    assert(Res.ok() && "online evaluation trapped");
    return Config.Measure.Noise.online(R, static_cast<double>(Res.Cycles));
  };

  std::vector<double> OnT0, OnT1;
  for (int I = 0; I != MaxEvaluations; ++I) {
    OnT0.push_back(RunOnline(Inst0));
    OnT1.push_back(RunOnline(Inst1));
  }

  // Offline: the captured input replayed; timings are the deterministic
  // cycle counts under offline noise.
  vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
  replay::Replayer Rep(*App.File, Natives, App.RtConfig,
                       Config.Seed ^ 0x0ff1);
  const capture::Capture &Cap = Search->Captures.front().Cap;
  double Off0 = static_cast<double>(
      Rep.replay(Cap, replay::ReplayCode::Compiled, &*O0Code).Result.Cycles);
  double Off1 = static_cast<double>(
      Rep.replay(Cap, replay::ReplayCode::Compiled, &*O1Code).Result.Cycles);
  std::vector<double> OffT0, OffT1;
  for (int I = 0; I != MaxEvaluations; ++I) {
    OffT0.push_back(Config.Measure.Noise.offline(R, Off0));
    OffT1.push_back(Config.Measure.Noise.offline(R, Off1));
  }

  Out.TrueSpeedup = Off0 / Off1;
  for (int K : logSpacedCounts(MaxEvaluations)) {
    if (K < 2)
      continue;
    Out.Online.push_back(pointAt(OnT0, OnT1, K, R));
    Out.Offline.push_back(pointAt(OffT0, OffT1, K, R));
  }
  return Out;
}
