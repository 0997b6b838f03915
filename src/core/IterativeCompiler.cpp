//===- core/IterativeCompiler.cpp - The replay-based main loop --------------===//

#include "core/IterativeCompiler.h"

#include "hgraph/AndroidCompiler.h"
#include "support/Metrics.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <exception>
#include <future>

using namespace ropt;
using namespace ropt::core;

PipelineConfig PipelineConfig::paperDefaults() {
  // The member initializers are the Section 4 values already; the named
  // constructor exists so call sites say which configuration they mean.
  return PipelineConfig{};
}

search::GaConfig core::scaledGaConfig(const search::GaConfig &Base,
                                      double Scale) {
  if (Scale >= 1.0)
    return Base;
  search::GaConfig Out = Base;
  double Axis = std::sqrt(std::max(Scale, 0.0));
  Out.Generations = std::max(
      2, static_cast<int>(std::lround(Base.Generations * Axis)));
  Out.PopulationSize = std::max(
      8, static_cast<int>(std::lround(Base.PopulationSize * Axis)));
  Out.TournamentSize = std::min(Out.TournamentSize, Out.PopulationSize);
  Out.EliteCount = std::min(Out.EliteCount, Out.PopulationSize - 1);
  Out.HillClimbRounds = std::min(Out.HillClimbRounds, Out.Generations);
  return Out;
}

search::GaConfig core::guidedGaConfig(const search::GaConfig &Base,
                                      const analysis::RegionReport &R) {
  // The slack-0 region keeps the full configuration bit-for-bit; cooler
  // regions search a scaled-down budget with the label's pruned arms
  // masked out.
  search::GaConfig Out = scaledGaConfig(Base, R.BudgetScale);
  if (R.Slack > 0)
    Out.Genomes.DisabledPassMask |= analysis::prunedPassMask(R.Label);
  return Out;
}

// --- RegionEvaluator ----------------------------------------------------------

lir::TypeProfile
core::mergedTypeProfile(const std::vector<CapturedRegion> &Captures) {
  lir::TypeProfile Merged;
  for (const CapturedRegion &C : Captures)
    Merged.merge(C.Profile);
  return Merged;
}

std::shared_ptr<lir::CompileMemo>
core::makeCompileMemo(const workloads::Application &App,
                      const std::vector<CapturedRegion> &Captures,
                      const PipelineConfig &Config) {
  return std::make_shared<lir::CompileMemo>(
      *App.File, mergedTypeProfile(Captures),
      Config.Search.CompileSizeBudget);
}

std::shared_ptr<lir::CompileMemo>
CompileMemoTable::memoFor(const lir::TypeProfile &Profile,
                          size_t SizeBudget) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const std::shared_ptr<lir::CompileMemo> &M : Memos)
    if (M->sizeBudget() == SizeBudget && M->profile() == Profile)
      return M;
  Memos.push_back(
      std::make_shared<lir::CompileMemo>(File, Profile, SizeBudget));
  return Memos.back();
}

std::vector<std::shared_ptr<lir::CompileMemo>>
CompileMemoTable::memos() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Memos;
}

std::shared_ptr<replay::VerdictMemo>
core::makeVerdictMemo(const workloads::Application &App) {
  return std::make_shared<replay::VerdictMemo>(*App.File, App.RtConfig);
}

RegionEvaluator::RegionEvaluator(
    const workloads::Application &App, const profiler::HotRegion &Region,
    const std::vector<CapturedRegion> &Captures,
    const PipelineConfig &Config, std::shared_ptr<lir::CompileMemo> Memo,
    std::shared_ptr<replay::VerdictMemo> Verdicts)
    : App(App), Region(Region), Config(Config),
      Memo(Memo ? std::move(Memo) : makeCompileMemo(App, Captures, Config)),
      Verdicts(std::move(Verdicts)),
      Natives(vm::NativeRegistry::standardLibrary()),
      Rep(*App.File, Natives, App.RtConfig, Config.Seed ^ 0xa51f) {
  assert(!Captures.empty() && "need at least one capture");
  assert(&this->Memo->file() == App.File.get() &&
         this->Memo->sizeBudget() == Config.Search.CompileSizeBudget &&
         "memo built for another region");
  assert((!this->Verdicts ||
          this->Verdicts->boundTo(*App.File, App.RtConfig)) &&
         "verdict memo built for another app");
  for (const CapturedRegion &C : Captures)
    Caps.push_back(CaptureRef{
        &C.Cap, &C.Map,
        this->Verdicts ? replay::captureKey(C.Cap, C.Map)
                       : replay::ContentKey{}});
  Rep.setSessionMode(Config.Search.SessionBackends);
}

search::ReplayBackendStats RegionEvaluator::replayStats() const {
  const replay::SessionStats &S = Rep.sessionStats();
  search::ReplayBackendStats R;
  R.SessionsCreated = S.SessionsCreated;
  R.SessionReplays = S.SessionReplays;
  R.FreshReplays = S.FreshReplays;
  R.DeltaResets = S.DeltaResets;
  R.PagesReverted = S.PagesReverted;
  R.FullRebuilds = S.FullRebuilds;
  return R;
}

namespace {

/// Content hash over every compiled function (identical-binary detection).
uint64_t hashCodeCache(const vm::CodeCache &Code) {
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ULL;
  };
  for (const auto &KV : Code.functions()) {
    Mix(KV.first);
    const vm::MachineFunction &Fn = *KV.second->Source;
    Mix(Fn.NumRegs);
    for (const vm::MInsn &I : Fn.Code) {
      Mix(static_cast<uint64_t>(I.Op));
      Mix((uint64_t(I.A) << 32) | (uint64_t(I.B) << 16) | I.C);
      Mix(static_cast<uint64_t>(I.Target) | (uint64_t(I.Idx) << 32));
      Mix(static_cast<uint64_t>(I.ImmI));
      uint64_t FBits;
      static_assert(sizeof(FBits) == sizeof(I.ImmF), "bitcast");
      __builtin_memcpy(&FBits, &I.ImmF, sizeof(FBits));
      Mix(FBits);
      Mix(static_cast<uint64_t>(I.Hint) + 2);
      for (unsigned A = 0; A != I.ArgCount; ++A)
        Mix(I.Args[A]);
    }
  }
  return H;
}

search::CompiledBinary binaryOf(vm::CodeCache Code) {
  search::CompiledBinary B;
  B.Ok = true;
  B.BinaryHash = hashCodeCache(Code);
  B.CodeSize = Code.totalSizeBytes();
  B.Artifact = std::make_shared<const vm::CodeCache>(std::move(Code));
  return B;
}

} // namespace

bool RegionEvaluator::verifyCache(const vm::CodeCache &Code,
                                  uint64_t BinaryHash,
                                  search::Evaluation &E) {
  E.CodeSize = Code.totalSizeBytes();
  E.BinaryHash = BinaryHash;
  replay::ContentKey BinKey;
  if (Verdicts)
    BinKey = replay::ContentKey{E.BinaryHash, replay::codeDigest(Code)};

  // One verified replay per capture classifies the binary — wrong on any
  // input means wrong. Replays are cycle-exact, so measurement replays
  // become noise draws around the measured cycle count (documented
  // substitution), and a verdict another evaluator already replayed is
  // taken from the memo.
  double Cycles = 0.0;
  for (const CaptureRef &C : Caps) {
    replay::Verdict V =
        Verdicts ? Verdicts->verify(Rep, *C.Cap, *C.Map, C.Key, Code, BinKey)
                 : replay::replayVerdict(Rep, *C.Cap, Code, *C.Map);
    if (!V.Ok) {
      E.Kind = search::evalKindForError(V.Error);
      E.Error = V.Error;
      Stats.count(E.Kind);
      return false;
    }
    Cycles += static_cast<double>(V.Cycles);
  }

  E.Kind = search::EvalKind::Ok;
  E.BaseCycles = Cycles;
  Stats.count(E.Kind);
  return true;
}

std::optional<vm::CodeCache>
RegionEvaluator::compileRegion(const search::Genome &G) {
  ROPT_TRACE_SPAN("compile.region");
  vm::CodeCache Code;
  lir::CompileStatus Status =
      Memo->compileAll(Region.Methods, G.Passes, G.RegAlloc, Code);
  if (Status != lir::CompileStatus::Ok)
    return std::nullopt;
  return Code;
}

search::CompiledBinary
RegionEvaluator::compileGenome(const search::Genome &G) {
  std::optional<vm::CodeCache> Code = compileRegion(G);
  return Code ? binaryOf(std::move(*Code)) : search::CompiledBinary{};
}

search::Evaluation
RegionEvaluator::measureBinary(const search::CompiledBinary &B,
                               uint64_t NoiseSeed, size_t SampleCount) {
  assert(B.Ok && B.Artifact && "measuring a failed compile");
  const vm::CodeCache &Code =
      *static_cast<const vm::CodeCache *>(B.Artifact.get());
  search::Evaluation E;
  if (!verifyCache(Code, B.BinaryHash, E))
    return E;
  // Raw samples, indexed draws: the engine owns outlier removal and may
  // extend the block later without re-verifying.
  E.Samples = Config.Measure.Noise.offlineSampleRange(NoiseSeed,
                                                      E.BaseCycles,
                                                      /*Begin=*/0,
                                                      SampleCount);
  E.SamplesSpent = static_cast<int>(E.Samples.size());
  E.MedianCycles = median(removeOutliersMAD(E.Samples));
  return E;
}

std::vector<double>
RegionEvaluator::extendSamples(const search::Evaluation &E,
                               uint64_t NoiseSeed, size_t Begin,
                               size_t Count) {
  return Config.Measure.Noise.offlineSampleRange(NoiseSeed, E.BaseCycles,
                                                 Begin, Count);
}

search::Evaluation
RegionEvaluator::measure(const search::CompiledBinary &B) {
  if (!B.Ok) {
    search::Evaluation E;
    E.Kind = search::EvalKind::CompileError;
    E.Error = support::ErrorCode::CompileFailed;
    Stats.count(E.Kind);
    return E;
  }
  // What the engine records for a fresh binary when racing is off.
  search::Evaluation E = measureBinary(
      B, search::binaryNoiseSeed(Config.Seed, B.BinaryHash),
      static_cast<size_t>(std::max(1, Config.Search.MaxReplaysPerEvaluation)));
  E.Samples = removeOutliersMAD(E.Samples);
  return E;
}

search::Evaluation RegionEvaluator::evaluatePipeline(
    const std::vector<lir::PassInstance> &Pipeline,
    hgraph::RegAllocKind RegAlloc) {
  search::Genome G;
  G.Passes = Pipeline;
  G.RegAlloc = RegAlloc;
  return measure(compileGenome(G));
}

search::Evaluation RegionEvaluator::evaluateAndroid() {
  vm::CodeCache Code;
  hgraph::compileAllAndroid(*App.File, Region.Methods, Code);
  return measure(binaryOf(std::move(Code)));
}

// --- RegionSearch -----------------------------------------------------------

namespace {

search::EngineOptions engineOptions(const SearchOptions &S) {
  search::EngineOptions O;
  O.Jobs = S.Jobs;
  O.Memoize = S.Memoize;
  O.Racing = S.Racing;
  O.MinReplays = S.MinReplaysPerEvaluation;
  O.MaxReplays = S.MaxReplaysPerEvaluation;
  O.RacingAlpha = S.GA.SignificanceAlpha;
  return O;
}

} // namespace

RegionSearch::RegionSearch(const workloads::Application &App,
                           SearchInputs Inputs, const PipelineConfig &Config,
                           std::shared_ptr<replay::VerdictMemo> Verdicts,
                           std::shared_ptr<lir::CompileMemo> Memo)
    : Config(Config), Inputs(std::move(Inputs)),
      Memo(Memo ? std::move(Memo)
                : makeCompileMemo(App, this->Captures, this->Config)),
      Verdicts(!Config.Search.Memoize ? nullptr
               : Verdicts             ? std::move(Verdicts)
                                      : makeVerdictMemo(App)),
      Baselines(App, this->Region, this->Captures, this->Config, this->Memo,
                this->Verdicts),
      Engine(
          [this, &App]() {
            return std::make_unique<RegionEvaluator>(
                App, this->Region, this->Captures, this->Config, this->Memo,
                this->Verdicts);
          },
          engineOptions(Config.Search), Config.Seed) {}

double RegionSearch::o3Bar() const {
  return O3.ok() ? O3.MedianCycles : Android.MedianCycles;
}

search::ReplayBackendStats RegionSearch::replayBackendStats() const {
  search::ReplayBackendStats R = Engine.replayBackendStats();
  R += Baselines.replayStats();
  return R;
}

// --- OptimizationReport -----------------------------------------------------------

double OptimizationReport::speedupGaOverAndroid() const {
  if (WholeGa.empty() || WholeAndroid.empty())
    return 0.0;
  return mean(WholeAndroid) / mean(WholeGa);
}

double OptimizationReport::speedupO3OverAndroid() const {
  if (WholeO3.empty() || WholeAndroid.empty())
    return 0.0;
  return mean(WholeAndroid) / mean(WholeO3);
}

double OptimizationReport::speedupGaOverO3() const {
  if (WholeGa.empty() || WholeO3.empty())
    return 0.0;
  return mean(WholeO3) / mean(WholeGa);
}

// --- IterativeCompiler ----------------------------------------------------------

IterativeCompiler::ProfiledApp
IterativeCompiler::profileApp(const workloads::Application &App) {
  ROPT_TRACE_SPAN("pipeline.profile");
  // A single-use boot: the instance owns its pages before any session runs.
  return profile(std::make_unique<AppInstance>(App, Config.Seed,
                                               /*AttributeCycles=*/true));
}

IterativeCompiler::ProfiledApp
IterativeCompiler::profileApp(const BootImage &Image) {
  ROPT_TRACE_SPAN("pipeline.profile");
  return profile(std::make_unique<AppInstance>(Image, Config.Seed,
                                               /*AttributeCycles=*/true));
}

IterativeCompiler::ProfiledApp
IterativeCompiler::profile(std::unique_ptr<AppInstance> Instance) {
  const workloads::Application &App = Instance->app();
  ProfiledApp Out{std::move(Instance),
                  profiler::ReplayabilityAnalysis::analyze(*App.File),
                  {},
                  std::nullopt,
                  {}};
  for (int I = 0; I != Config.Capture.ProfileSessions; ++I) {
    vm::CallResult R = Out.Instance->runSession(App.DefaultParam + I);
    assert(R.ok() && "profiling session trapped");
    (void)R;
  }
  Out.Profile = profiler::MethodProfile::fromRuntime(Out.Instance->runtime());
  Out.Region = profiler::detectHotRegion(*App.File, Out.Profile, Out.RA);
  Out.Breakdown = profiler::computeBreakdown(
      *App.File, Out.Profile, Out.RA,
      Out.Region ? &*Out.Region : nullptr);
  return Out;
}

std::optional<IterativeCompiler::CapturedRegion>
IterativeCompiler::captureRegion(AppInstance &Instance,
                                 const profiler::HotRegion &Region,
                                 int SessionOffset) {
  ROPT_TRACE_SPAN("pipeline.capture");
  capture::CaptureManager CM(Instance.kernel(), Instance.process(),
                             Instance.runtime(),
                             Config.Capture.KernelCosts);
  CM.armCapture(Region.Root);
  // Captures are postponed while GC is imminent; a handful of sessions is
  // always enough opportunity (Section 3.2: "plenty of opportunities").
  const workloads::Application &App = Instance.app();
  for (int Attempt = 0; Attempt != 32 && !CM.captureReady(); ++Attempt) {
    vm::CallResult R =
        Instance.runSession(App.DefaultParam + 100 + SessionOffset + Attempt);
    if (!R.ok())
      return std::nullopt;
  }

  CapturedRegion Out;
  Out.Postponements = CM.postponedCount();
  support::Result<capture::Capture> Taken = CM.takeCapture();
  if (!Taken)
    return std::nullopt;
  Out.Cap = std::move(Taken).value();
  CM.spoolToStorage(Out.Cap, App.Name);

  vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
  replay::Replayer Rep(*App.File, Natives, App.RtConfig,
                       Config.Seed ^ 0x1e91a);
  support::Result<replay::InterpretedReplayResult> IR =
      Rep.interpretedReplay(Out.Cap);
  if (!IR)
    return std::nullopt;
  Out.Map = std::move(IR.value().Map);
  Out.Profile = std::move(IR.value().Profile);
  Out.ReplayCycles = IR.value().Replay.Result.Cycles;
  Out.ReplayInsns = IR.value().Replay.Result.Insns;
  return Out;
}

std::vector<IterativeCompiler::CapturedRegion>
IterativeCompiler::captureRegionMulti(AppInstance &Instance,
                                      const profiler::HotRegion &Region,
                                      int Count) {
  std::vector<CapturedRegion> Out;
  for (int I = 0; I != Count; ++I) {
    std::optional<CapturedRegion> C =
        captureRegion(Instance, Region, I * 37);
    if (!C)
      break;
    Out.push_back(std::move(*C));
  }
  return Out;
}

support::Result<SearchInputs>
IterativeCompiler::captureInputs(ProfiledApp &Profiled,
                                 const profiler::HotRegion &Region) {
  std::vector<CapturedRegion> Captures = captureRegionMulti(
      *Profiled.Instance, Region,
      std::max(1, Config.Capture.CapturesPerRegion));
  if (Captures.empty())
    return support::Error(support::ErrorCode::CaptureFailed,
                          "capture failed");
  SearchInputs Out;
  Out.Region = Region;
  // The instance booted, profiled and captured the app: its runtime saw
  // every environment read and executed every session of the setup.
  const vm::Runtime &RT = Profiled.Instance->runtime();
  Out.EnvironmentReads = RT.environmentReads();
  Out.SetupCycles = RT.totalCycles();
  Out.SetupInsns = RT.totalInsns();
  for (const CapturedRegion &C : Captures) {
    Out.SetupCycles += C.ReplayCycles;
    Out.SetupInsns += C.ReplayInsns;
  }
  Out.Captures =
      std::make_shared<const std::vector<CapturedRegion>>(std::move(Captures));
  return Out;
}

support::Result<std::unique_ptr<RegionSearch>>
IterativeCompiler::prepareSearch(const workloads::Application &App,
                                 SearchInputs Inputs,
                                 std::shared_ptr<replay::VerdictMemo> Verdicts,
                                 std::shared_ptr<lir::CompileMemo> Memo) {
  auto Search = std::make_unique<RegionSearch>(
      App, std::move(Inputs), Config, std::move(Verdicts), std::move(Memo));
  ROPT_TRACE_SPAN("pipeline.baselines");
  Search->Android = Search->Baselines.evaluateAndroid();
  if (!Search->Android.ok())
    return support::Error(Search->Android.Error,
                          "android baseline replay failed");
  Search->O3 = Search->Baselines.evaluatePipeline(lir::o3Pipeline());
  return Search;
}

OptimizationReport
IterativeCompiler::optimize(const workloads::Application &App) {
  ROPT_TRACE_SPAN("pipeline.optimize");
  ROPT_METRIC_INC("pipeline.runs");
  OptimizationReport Report;
  Report.AppName = App.Name;

  // --- Phases 1-2: online profile + hot region (Section 3.1). ----------
  // The app boots once; the profile and every install measurement run in
  // forks of that boot (DESIGN.md §24).
  BootImage Image(App, Config.Seed);
  if (!Image.init().ok()) {
    Report.FailureReason = "app init trapped";
    ROPT_METRIC_INC("pipeline.failures");
    return Report;
  }
  ProfiledApp Profiled = profileApp(Image);
  Report.Breakdown = Profiled.Breakdown;

  // The observability loop's decision data: candidate regions, features,
  // labels, slack, budget shares. Pure function of the profile, so it is
  // identical at any --jobs and costs microseconds — always computed.
  Report.Analysis =
      analysis::analyzeApp(*App.File, Profiled.Profile, Profiled.RA);

  if (Config.ForceRegionRoot != dex::InvalidId) {
    // Multi-region harnesses point the pipeline at a specific candidate.
    profiler::HotRegion Forced;
    Forced.Root = Config.ForceRegionRoot;
    Forced.Methods =
        profiler::compilableRegion(*App.File, Profiled.RA,
                                   Config.ForceRegionRoot);
    for (dex::MethodId Id : Forced.Methods)
      if (Id < Profiled.Profile.ExclusiveCycles.size())
        Forced.EstimatedCycles += Profiled.Profile.ExclusiveCycles[Id];
    if (Forced.Methods.empty() || Forced.EstimatedCycles == 0) {
      Report.FailureReason = "forced region root has no profiled closure";
      ROPT_METRIC_INC("pipeline.failures");
      return Report;
    }
    Report.Region = std::move(Forced);
  } else if (Profiled.Region) {
    Report.Region = *Profiled.Region;
  } else {
    Report.FailureReason = "no replayable hot region";
    ROPT_METRIC_INC("pipeline.failures");
    return Report;
  }

  // --- Phase 3: transparent capture + interpreted replay (3.2-3.4), and
  // phase 4's setup: the engine plus the serial baselines evaluator. ----
  support::Result<SearchInputs> Inputs =
      captureInputs(Profiled, Report.Region);
  if (!Inputs) {
    Report.FailureReason = Inputs.error().Message;
    ROPT_METRIC_INC("pipeline.failures");
    return Report;
  }
  support::Result<std::unique_ptr<RegionSearch>> Prepared =
      prepareSearch(App, std::move(Inputs).value());
  if (!Prepared) {
    Report.FailureReason = Prepared.error().Message;
    ROPT_METRIC_INC("pipeline.failures");
    return Report;
  }
  RegionSearch &Search = *Prepared.value();
  Report.Cap = Search.Captures.front().Cap;
  Report.CapturePostponements = Search.Captures.front().Postponements;
  Report.RegionAndroid = Search.Android.MedianCycles;
  Report.RegionO3 = Search.O3.ok() ? Search.O3.MedianCycles : 0.0;

  // --- Phase 4: the GA over the transformation space (3.6-3.7). --------
  search::GaConfig GaCfg = Config.Search.GA;
  if (Config.Search.AnalysisGuided) {
    if (const analysis::RegionReport *R =
            Report.Analysis.byRoot(Report.Region.Root)) {
      GaCfg = guidedGaConfig(GaCfg, *R);
      Report.AppliedBudgetScale = R->BudgetScale;
      Report.AppliedPassMask = GaCfg.Genomes.DisabledPassMask;
    }
  }
  std::optional<search::Scored> Best;
  {
    ROPT_TRACE_SPAN("pipeline.search");
    search::GeneticSearch GA(GaCfg, Config.Seed ^ 0x6a5e, Search.Engine,
                             Config.Provenance);
    if (!Config.Search.WarmStart.empty())
      GA.seedPopulation(Config.Search.WarmStart);
    Best = GA.run(Search.Android.MedianCycles, Search.o3Bar(),
                  &Report.Trace);
  }
  Report.Counters = Search.Engine.counters();
  Report.Counters += Search.Baselines.counters();
  Report.CacheStats = Search.Engine.cacheStats();
  Report.RacingStats = Search.Engine.racingStats();
  Report.ReplayBackend = Search.replayBackendStats();
  if (!Best) {
    Report.FailureReason = "search produced no valid binary";
    ROPT_METRIC_INC("pipeline.failures");
    return Report;
  }
  Report.Best = *Best;
  Report.RegionBest = Best->E.MedianCycles;

  // --- Phase 5: install + whole-program measurement outside replay. ----
  ROPT_TRACE_SPAN("pipeline.install_measure");
  std::optional<vm::CodeCache> BestCode =
      Search.Baselines.compileRegion(Best->G);
  assert(BestCode && "winning genome stopped compiling");
  // The -O3 binary the search measured; none when -O3 failed there.
  std::optional<vm::CodeCache> O3Code;
  if (Search.O3.ok()) {
    search::Genome O3;
    O3.Passes = lir::o3Pipeline();
    O3Code = Search.Baselines.compileRegion(O3);
  }

  Rng NoiseRng(Config.Seed ^ 0x0911e);
  const uint64_t MeasureSeed = Config.Seed + 7;
  std::optional<BootImage> MeasureBoot;
  BootImage &MeasureImage = Image.forSeed(MeasureSeed, MeasureBoot);
  if (!MeasureImage.init().ok()) {
    Report.FailureReason = "app init trapped";
    ROPT_METRIC_INC("pipeline.failures");
    return Report;
  }
  // The whole-program blocks are independent forks of one image: fork
  // them here, in order (forks count boot work, so they stay on this
  // thread), run Android and -O3 on the engine's pool beside the GA block
  // on this thread, and draw the noise in a fixed order afterwards.
  enum Variant : int { Android, O3, Ga };
  auto Fork = [&](const vm::CodeCache *Override) {
    auto Fresh = std::make_unique<AppInstance>(MeasureImage, MeasureSeed);
    if (Override)
      Fresh->overrideRegionCode(Report.Region.Methods, *Override);
    return Fresh;
  };
  std::unique_ptr<AppInstance> Instances[] = {
      Fork(nullptr), O3Code ? Fork(&*O3Code) : nullptr, Fork(&*BestCode)};
  uint64_t Blocks[3] = {};
  auto RunBlock = [&](Variant V) {
    if (!Instances[V])
      return;
    ROPT_TRACE_SPAN_V("pipeline.measure", V);
    Blocks[V] = Instances[V]->runSessionBlock(
        Config.Measure.FinalSessionBlock, App.DefaultParam);
    Instances[V].reset();
  };
  ThreadPool &Pool = Search.Engine.pool();
  std::future<void> Done[] = {Pool.submit([&] { RunBlock(Android); }),
                              Pool.submit([&] { RunBlock(O3); })};
  std::exception_ptr GaError;
  try {
    RunBlock(Ga);
  } catch (...) {
    GaError = std::current_exception();
  }
  for (std::future<void> &F : Done)
    F.wait(); // the tasks use this frame
  if (GaError)
    std::rethrow_exception(GaError);
  for (std::future<void> &F : Done)
    F.get();

  auto Samples = [&](Variant V) {
    std::vector<double> Out;
    if (Blocks[V] == 0)
      return Out;
    for (int I = 0; I != Config.Measure.FinalMeasurementRuns; ++I)
      Out.push_back(Config.Measure.Noise.online(
          NoiseRng, static_cast<double>(Blocks[V])));
    return Out;
  };
  Report.WholeAndroid = Samples(Android);
  Report.WholeO3 = Samples(O3);
  Report.WholeGa = Samples(Ga);

  Report.Succeeded = !Report.WholeAndroid.empty() &&
                     !Report.WholeGa.empty();
  if (!Report.Succeeded) {
    Report.FailureReason = "final measurement failed";
    ROPT_METRIC_INC("pipeline.failures");
  }
  return Report;
}
