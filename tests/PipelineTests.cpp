//===- tests/PipelineTests.cpp - core/ end-to-end tests ----------------------===//
//
// The full Figure-6 loop on real applications, with a scaled-down GA so
// the suite stays fast. The full-scale paper configuration runs in the
// bench harnesses.
//
//===----------------------------------------------------------------------===//

#include "capture/CaptureManager.h"
#include "core/IterativeCompiler.h"
#include "core/OnlineEvaluator.h"
#include "hgraph/AndroidCompiler.h"
#include "support/Metrics.h"
#include "support/Statistics.h"
#include "tests/TestPrograms.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

using namespace ropt;
using namespace ropt::core;
using namespace ropt::workloads;

namespace {

PipelineConfig fastConfig(uint64_t Seed = 1) {
  PipelineConfig C;
  C.Seed = Seed;
  C.Search.GA.Generations = 4;
  C.Search.GA.PopulationSize = 12;
  C.Search.GA.HillClimbRounds = 1;
  C.Search.MaxReplaysPerEvaluation = 5;
  C.Capture.ProfileSessions = 4;
  C.Measure.FinalMeasurementRuns = 6;
  return C;
}

} // namespace

TEST(Pipeline, EndToEndOnFFT) {
  IterativeCompiler Pipeline(fastConfig());
  OptimizationReport Report = Pipeline.optimize(buildByName("FFT"));
  ASSERT_TRUE(Report.Succeeded) << Report.FailureReason;

  // The region is the FFT kernel and dominates the runtime.
  EXPECT_GT(Report.Breakdown.Compiled, 0.4);
  // Captured pages: a handful (two 4KB coefficient arrays + bookkeeping).
  EXPECT_GT(Report.Cap.Pages.size(), 2u);
  EXPECT_LT(Report.Cap.Pages.size(), 200u);
  // Capture overhead lands in the paper's millisecond band.
  EXPECT_GT(Report.Cap.Overheads.totalMs(), 1.0);
  EXPECT_LT(Report.Cap.Overheads.totalMs(), 60.0);

  // The GA's winner beats the Android baseline at region level...
  EXPECT_LT(Report.RegionBest, Report.RegionAndroid);
  // ...and the whole program speeds up outside the replay environment.
  EXPECT_GT(Report.speedupGaOverAndroid(), 1.02);

  // The search tried-and-rejected unsafe binaries without ever exposing
  // them: the counters record discarded failures.
  EXPECT_GT(Report.Counters.Ok, 0);
  EXPECT_GT(Report.Counters.total(), 40);
}

// Profile, capture, install-and-measure processes and every replayer of
// a whole optimization map one shared runtime image: it is built at most
// once per boot per process, even with parallel engine workers, and no
// step of the pipeline touches (and so generates) one of its pages.
TEST(Pipeline, RuntimeImageBuiltAtMostOnce) {
#if ROPT_OBSERVABILITY
  auto Counter = [](const char *Name) {
    return Metrics::instance().snapshot().counter(Name);
  };
  uint64_t Before = Counter("vm.runtime_image_builds");
  uint64_t PagesBefore = Counter("vm.runtime_image_pages");
  PipelineConfig Config = fastConfig();
  Config.Search.Jobs = 2;
  OptimizationReport Report =
      IterativeCompiler(Config).optimize(buildByName("FFT"));
  ASSERT_TRUE(Report.Succeeded) << Report.FailureReason;
  EXPECT_LE(Counter("vm.runtime_image_builds") - Before, 1u);
  EXPECT_EQ(Counter("vm.runtime_image_pages"), PagesBefore);
#else
  GTEST_SKIP() << "needs the metrics registry (ROPT_OBSERVABILITY=1)";
#endif
}

TEST(Pipeline, EndToEndOnInteractiveApp) {
  IterativeCompiler Pipeline(fastConfig(3));
  OptimizationReport Report =
      Pipeline.optimize(buildByName("Reversi Android"));
  ASSERT_TRUE(Report.Succeeded) << Report.FailureReason;
  EXPECT_GT(Report.speedupGaOverAndroid(), 1.0);
  // Interactive: meaningful JNI share in the breakdown.
  EXPECT_GT(Report.Breakdown.Jni, 0.05);
}

TEST(Pipeline, ReportsAreSeedDeterministic) {
  auto Digest = [](uint64_t Seed) {
    IterativeCompiler Pipeline(fastConfig(Seed));
    OptimizationReport R = Pipeline.optimize(buildByName("Sieve"));
    EXPECT_TRUE(R.Succeeded) << R.FailureReason;
    return R.Best.G.name() + "/" + std::to_string(R.RegionBest);
  };
  EXPECT_EQ(Digest(11), Digest(11));
}

// --- Boot images (DESIGN.md §24) -----------------------------------------------

namespace {

/// An app process booted and initialized in place, the way every instance
/// booted before boot images: the oracle a fork must equal.
struct FreshBoot {
  Application App;
  os::Kernel Kernel;
  os::Process *Proc;
  vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
  std::unique_ptr<vm::Runtime> RT;
  Rng InputRng, EnvRng;
  vm::CallResult Init;

  FreshBoot(const Application &A, uint64_t Seed, bool AttributeCycles,
            BootCode Code)
      : App(A), Proc(&Kernel.spawn()), InputRng(Seed ^ 0x5e551011),
        EnvRng(Seed ^ 0xe417) {
    vm::RuntimeConfig Config = App.RtConfig;
    Config.AttributeCycles = AttributeCycles;
    vm::Runtime::mapStandardLayout(Proc->space(), *App.File, Config);
    RT = std::make_unique<vm::Runtime>(Proc->space(), *App.File, Natives,
                                       Config);
    RT->setEnvironmentRng(&EnvRng);
    if (Code == BootCode::AndroidCompiled) {
      std::vector<dex::MethodId> All;
      for (const dex::Method &M : App.File->methods())
        if (!M.IsNative && !M.isUncompilable())
          All.push_back(M.Id);
      hgraph::compileAllAndroid(*App.File, All, RT->codeCache());
    }
    Init = RT->call(App.InitEntry, App.argsFor(App.InitParam));
    RT->resetProfile();
  }

  vm::CallResult runSession(int64_t Param) {
    RT->inputQueue().push_back(static_cast<int64_t>(InputRng.below(4)));
    return RT->call(App.SessionEntry, App.argsFor(Param));
  }
};

std::string callText(const vm::CallResult &R) {
  return std::string(vm::trapKindName(R.Trap)) + "/" +
         std::to_string(R.Ret.Raw) + "/" + std::to_string(R.Cycles) + "/" +
         std::to_string(R.Insns);
}

/// Everything a runtime keeps outside memory that a session can observe.
void expectSameRuntime(vm::Runtime &Got, vm::Runtime &Want,
                       const std::string &What) {
  EXPECT_EQ(Got.totalCycles(), Want.totalCycles()) << What;
  EXPECT_EQ(Got.totalInsns(), Want.totalInsns()) << What;
  EXPECT_EQ(Got.environmentReads(), Want.environmentReads()) << What;
  EXPECT_EQ(Got.ioLog(), Want.ioLog()) << What;
  EXPECT_EQ(Got.inputQueue(), Want.inputQueue()) << What;
  vm::BootState GotState = Got.bootState(), WantState = Want.bootState();
  EXPECT_TRUE(GotState.DCache == WantState.DCache) << What << ": cache";
  EXPECT_TRUE(GotState.Predictor == WantState.Predictor)
      << What << ": branch predictor";
  EXPECT_EQ(GotState.Code.size(), WantState.Code.size()) << What;
  EXPECT_EQ(GotState.NowMillis, WantState.NowMillis) << What;
  EXPECT_EQ(Got.methodCycles(), Want.methodCycles()) << What;
  ASSERT_EQ(Got.methodFeatures().size(), Want.methodFeatures().size());
  for (size_t I = 0; I != Got.methodFeatures().size(); ++I) {
    const vm::MethodFeatureCounters &A = Got.methodFeatures()[I];
    const vm::MethodFeatureCounters &B = Want.methodFeatures()[I];
    EXPECT_TRUE(A.Insns == B.Insns && A.Branches == B.Branches &&
                A.Mispredicts == B.Mispredicts && A.MemReads == B.MemReads &&
                A.MemWrites == B.MemWrites &&
                A.CacheMisses == B.CacheMisses && A.Allocs == B.Allocs &&
                A.AllocSlots == B.AllocSlots &&
                A.NativeCycles == B.NativeCycles)
        << What << ": features of method " << I;
  }
}

/// Every mapped page of \p Got holds \p Want's bytes.
void expectSamePages(os::AddressSpace &Got, os::AddressSpace &Want,
                     const std::string &What) {
  static const std::array<uint8_t, os::PageSize> Zero{};
  std::vector<os::Mapping> Maps = Got.procMaps();
  std::vector<os::Mapping> WantMaps = Want.procMaps();
  ASSERT_EQ(Maps.size(), WantMaps.size()) << What;
  int Differing = 0;
  for (size_t M = 0; M != Maps.size(); ++M) {
    ASSERT_TRUE(Maps[M].Start == WantMaps[M].Start &&
                Maps[M].End == WantMaps[M].End)
        << What << ": mapping " << Maps[M].Name;
    for (uint64_t Addr = Maps[M].Start; Addr != Maps[M].End;
         Addr += os::PageSize) {
      const uint8_t *A = nullptr, *B = nullptr;
      ASSERT_TRUE(Got.pageBytes(Addr, A) && Want.pageBytes(Addr, B));
      if (A != B && std::memcmp(A ? A : Zero.data(), B ? B : Zero.data(),
                                os::PageSize) != 0)
        ++Differing;
    }
  }
  EXPECT_EQ(Differing, 0) << What << ": pages differ";
}

/// Captures the next session of \p App in \p Proc; the serialized
/// capture, or the failure.
template <typename Instance>
std::vector<uint8_t> captureSession(Instance &Inst, os::Kernel &Kernel,
                                    os::Process &Proc, vm::Runtime &RT,
                                    const Application &App) {
  capture::CaptureManager CM(Kernel, Proc, RT);
  CM.armCapture(App.SessionEntry);
  for (int Attempt = 0; Attempt != 4 && !CM.captureReady(); ++Attempt)
    Inst.runSession(App.DefaultParam + 50 + Attempt);
  support::Result<capture::Capture> Cap = CM.takeCapture();
  if (!Cap)
    return {};
  return Cap.value().serialize();
}

/// \p Inst runs like \p Fresh, a boot in place with the same seed,
/// attribution and boot code: two sessions, the runtime state after each
/// step, a capture of a third session and every page.
void expectSameProcess(AppInstance &Inst, FreshBoot &Fresh,
                       const std::string &What) {
  const Application &App = Fresh.App;
  expectSameRuntime(Inst.runtime(), *Fresh.RT, What + " after boot");
  for (int I = 0; I != 2; ++I)
    EXPECT_EQ(callText(Inst.runSession(App.DefaultParam + I)),
              callText(Fresh.runSession(App.DefaultParam + I)))
        << What << " session " << I;
  expectSameRuntime(Inst.runtime(), *Fresh.RT, What);
  std::vector<uint8_t> InstCap = captureSession(
      Inst, Inst.kernel(), Inst.process(), Inst.runtime(), App);
  std::vector<uint8_t> FreshCap =
      captureSession(Fresh, Fresh.Kernel, *Fresh.Proc, *Fresh.RT, App);
  EXPECT_FALSE(InstCap.empty()) << What;
  EXPECT_TRUE(InstCap == FreshCap) << What << ": captures differ";
  expectSamePages(Inst.process().space(), Fresh.Proc->space(), What);
}

std::string caseName(const Application &App, BootCode Code, uint64_t Seed,
                     bool Attribute) {
  return App.Name + " code=" + std::to_string(static_cast<int>(Code)) +
         " seed=" + std::to_string(Seed) +
         " attribute=" + std::to_string(Attribute);
}

/// Forks of \p Image, made one after another, against fresh boots at
/// both seeds and both attribution settings.
void expectForksEqualFreshBoots(BootImage &Image, const Application &App,
                                BootCode Code, uint64_t Seed0,
                                uint64_t Seed1) {
  for (uint64_t Seed : {Seed0, Seed1}) {
    for (bool Attribute : {false, true}) {
      std::string What = caseName(App, Code, Seed, Attribute);
      ASSERT_TRUE(Image.serves(Seed)) << What;
      AppInstance Fork(Image, Seed, Attribute);
      FreshBoot Fresh(App, Seed, Attribute, Code);
      EXPECT_EQ(callText(Image.init()), callText(Fresh.Init)) << What;
      expectSameProcess(Fork, Fresh, What);
    }
  }
}

} // namespace

// A fork of a boot image is the process a fresh boot would have made, on
// every Table-1 app and a fixture, with either boot code, with or without
// attribution, at the image's own seed and another, for every fork an
// image makes; and so is a single-use instance.
TEST(AppInstanceBoot, ForkEqualsFreshBoot) {
  std::vector<Application> Apps = buildSuite();
  // Table-1 inits leave the predictor as reset; the fixture's does not.
  Apps.push_back(testprogs::fixtureApp(testprogs::FixtureInit::Plain));
  for (const Application &App : Apps) {
    for (BootCode Code : {BootCode::AndroidCompiled, BootCode::InterpretOnly}) {
      BootImage Image(App, /*Seed=*/1, Code);
      ASSERT_TRUE(Image.init().ok()) << App.Name;
      ASSERT_TRUE(Image.serves(8)) << App.Name << " reads at boot";
      expectForksEqualFreshBoots(Image, App, Code, 1, 8);
      AppInstance Single(App, /*Seed=*/8, /*AttributeCycles=*/true, Code);
      FreshBoot Fresh(App, 8, true, Code);
      expectSameProcess(Single, Fresh, caseName(App, Code, 8, true) +
                                           " single-use");
    }
  }
}

// An image whose init() read the environment serves its own seed only; a
// fork at that seed continues the image's environment stream, and any
// other seed needs an image of its own.
TEST(AppInstanceBoot, EnvironmentReadAtBootPinsTheSeed) {
  Application App = testprogs::fixtureApp(testprogs::FixtureInit::DrawsRandom);
  BootImage Image(App, /*Seed=*/3);
  ASSERT_TRUE(Image.init().ok());
  EXPECT_TRUE(Image.serves(3));
  EXPECT_FALSE(Image.serves(10));

  std::optional<BootImage> Spare;
  EXPECT_EQ(&Image.forSeed(3, Spare), &Image);
  EXPECT_FALSE(Spare.has_value());
  BootImage &Other = Image.forSeed(10, Spare);
  ASSERT_TRUE(Spare.has_value());
  EXPECT_EQ(&Other, &*Spare);
  EXPECT_TRUE(Other.serves(10));
  // The seeds draw different values at boot, so the session results tell
  // the two images apart.
  EXPECT_NE(Image.init().Ret.Raw, Other.init().Ret.Raw);

  expectForksEqualFreshBoots(Image, App, BootCode::AndroidCompiled, 3, 3);
  expectForksEqualFreshBoots(Other, App, BootCode::AndroidCompiled, 10, 10);

  Application Plain = testprogs::fixtureApp(testprogs::FixtureInit::Plain);
  BootImage Clean(Plain, /*Seed=*/3);
  EXPECT_TRUE(Clean.serves(10));
  expectForksEqualFreshBoots(Clean, Plain, BootCode::AndroidCompiled, 3, 10);
}

// optimize() boots once when init() reads nothing, and once more for the
// install measurements when it does.
TEST(AppInstanceBoot, OptimizeBootsOncePerServedSeed) {
#if ROPT_OBSERVABILITY
  auto Count = [](const char *Name) {
    return Metrics::instance().snapshot().counter(Name);
  };
  for (auto [Init, Boots] :
       {std::pair{testprogs::FixtureInit::Plain, 1u},
        std::pair{testprogs::FixtureInit::DrawsRandom, 2u}}) {
    uint64_t Before = Count("pipeline.boots");
    uint64_t ForksBefore = Count("pipeline.boot_forks");
    OptimizationReport Report = IterativeCompiler(fastConfig()).optimize(
        testprogs::fixtureApp(Init));
    ASSERT_TRUE(Report.Succeeded) << Report.FailureReason;
    EXPECT_EQ(Count("pipeline.boots") - Before, Boots);
    EXPECT_EQ(Count("pipeline.boot_forks") - ForksBefore, 4u);
  }
#else
  GTEST_SKIP() << "needs the metrics registry (ROPT_OBSERVABILITY=1)";
#endif
}

// A trapping init() fails the pipeline with a reason instead of running
// sessions over a half-built heap.
TEST(AppInstanceBoot, TrappingInitFailsTheOptimization) {
  Application App =
      testprogs::fixtureApp(testprogs::FixtureInit::DividesByZero);
  BootImage Image(App, /*Seed=*/1);
  EXPECT_EQ(Image.init().Trap, vm::TrapKind::DivByZero);
#ifndef NDEBUG
  // Paths that do not check first stop at the fork in a checked build.
  EXPECT_DEATH({ AppInstance Fork(Image, 1); }, "application init trapped");
#endif
  OptimizationReport Report = IterativeCompiler(fastConfig()).optimize(App);
  EXPECT_FALSE(Report.Succeeded);
  EXPECT_EQ(Report.FailureReason, "app init trapped");

  // So does a trap in the install image's boot alone, which an init()
  // that reads the environment gets at a seed of its own.
  Application Drawing =
      testprogs::fixtureApp(testprogs::FixtureInit::DividesByDraw);
  uint64_t Seed = 1;
  while (Seed != 64 && !(BootImage(Drawing, Seed).init().ok() &&
                         !BootImage(Drawing, Seed + 7).init().ok()))
    ++Seed;
  ASSERT_NE(Seed, 64u) << "no seed whose install boot alone traps";
  Report = IterativeCompiler(fastConfig(Seed)).optimize(Drawing);
  EXPECT_FALSE(Report.Succeeded);
  EXPECT_EQ(Report.FailureReason, "app init trapped");
}

TEST(Pipeline, ProfilePhaseFindsKernelsEverywhere) {
  IterativeCompiler Pipeline(fastConfig());
  for (const char *Name : {"SOR", "MonteCarlo", "Brainstonz"}) {
    IterativeCompiler::ProfiledApp P = Pipeline.profileApp(buildByName(Name));
    ASSERT_TRUE(P.Region.has_value()) << Name;
    EXPECT_GT(P.Breakdown.Compiled, 0.2) << Name;
  }
}

// --- OnlineEvaluator (motivation experiments, scaled down) ---------------------

TEST(OnlineEvaluatorTest, RandomSequencesProduceAllOutcomeClasses) {
  OnlineEvaluator Eval(buildByName("FFT"), fastConfig(5));
  ASSERT_TRUE(Eval.ready());
  OutcomeHistogram H = Eval.classifyRandomSequences(80);
  EXPECT_EQ(H.total(), 80);
  // The Figure-1 shape: a majority correct, a visible share of
  // runtime-visible breakage, some compiler-level failures.
  EXPECT_GT(H.Correct, 30);
  EXPECT_GT(H.RuntimeCrash + H.WrongOutput + H.RuntimeTimeout, 3);
}

TEST(OnlineEvaluatorTest, RandomCorrectBinariesAreSlowerThanAndroid) {
  OnlineEvaluator Eval(buildByName("FFT"), fastConfig(6));
  ASSERT_TRUE(Eval.ready());
  std::vector<double> Speedups = Eval.randomCorrectSpeedups(20);
  ASSERT_GE(Speedups.size(), 15u);
  // Figure 2: virtually all random correct binaries lose to Android.
  int Slower = 0;
  for (double S : Speedups)
    Slower += (S < 1.0);
  EXPECT_GT(Slower, static_cast<int>(Speedups.size() * 3) / 4);
}

TEST(OnlineEvaluatorTest, OfflineConvergesFasterThanOnline) {
  OnlineEvaluator Eval(buildByName("FFT"), fastConfig(7));
  ASSERT_TRUE(Eval.ready());
  OnlineEvaluator::Convergence C = Eval.convergence(160);
  ASSERT_FALSE(C.Online.empty());
  ASSERT_FALSE(C.Offline.empty());
  EXPECT_GT(C.TrueSpeedup, 1.1); // -O1 really beats -O0 here

  // Offline nails the estimate almost immediately; online is still wide at
  // the same evaluation count. Compare CI width at a small prefix.
  const ConvergencePoint &OffEarly = C.Offline[2];
  const ConvergencePoint &OnEarly = C.Online[2];
  double OffWidth = OffEarly.Ci95High - OffEarly.Ci95Low;
  double OnWidth = OnEarly.Ci95High - OnEarly.Ci95Low;
  EXPECT_LT(OffWidth, OnWidth / 4);

  // And the offline estimate is close to the truth from the start.
  EXPECT_NEAR(OffEarly.Estimate, C.TrueSpeedup, 0.05 * C.TrueSpeedup);
}

// --- Multi-capture evaluation (paper §5.4's "realistic system") -----------------

TEST(MultiCapture, EvaluatesAcrossSeveralInputs) {
  workloads::Application App = buildByName("FFT");
  PipelineConfig Config = fastConfig(21);
  IterativeCompiler Pipeline(Config);
  auto Profiled = Pipeline.profileApp(App);
  ASSERT_TRUE(Profiled.Region.has_value());

  std::vector<CapturedRegion> Captures =
      Pipeline.captureRegionMulti(*Profiled.Instance, *Profiled.Region, 3);
  ASSERT_EQ(Captures.size(), 3u);
  // Each capture snapshots a different session (different args/state).
  EXPECT_NE(Captures[0].Cap.Args[0].Raw, Captures[1].Cap.Args[0].Raw);

  RegionEvaluator Multi(App, *Profiled.Region, Captures, Config);
  search::Evaluation Android = Multi.evaluateAndroid();
  ASSERT_TRUE(Android.ok());

  // The multi-capture fitness is the total across captures: roughly the
  // sum of the single-capture fitnesses.
  double SingleSum = 0;
  for (const CapturedRegion &C : Captures) {
    std::vector<CapturedRegion> One{C};
    RegionEvaluator Single(App, *Profiled.Region, One, Config);
    search::Evaluation E = Single.evaluateAndroid();
    ASSERT_TRUE(E.ok());
    SingleSum += E.MedianCycles;
  }
  EXPECT_NEAR(Android.MedianCycles, SingleSum, 0.05 * SingleSum);

  // A good pipeline still verifies against all three captures.
  search::Evaluation O2 = Multi.evaluatePipeline(lir::o2Pipeline());
  EXPECT_TRUE(O2.ok());
  EXPECT_LT(O2.MedianCycles, Android.MedianCycles);
}

TEST(MultiCapture, FullPipelineWithThreeCaptures) {
  PipelineConfig Config = fastConfig(22);
  Config.Capture.CapturesPerRegion = 3;
  IterativeCompiler Pipeline(Config);
  OptimizationReport Report = Pipeline.optimize(buildByName("SOR"));
  ASSERT_TRUE(Report.Succeeded) << Report.FailureReason;
  EXPECT_GT(Report.speedupGaOverAndroid(), 1.0);
}

// --- One sampler (DESIGN.md §9) ----------------------------------------------

TEST(RegionSearch, SerialAndEngineDrawTheSameSamples) {
  auto ExpectSame = [](const search::Evaluation &A,
                       const search::Evaluation &B) {
    EXPECT_EQ(A.Kind, B.Kind);
    EXPECT_EQ(A.BinaryHash, B.BinaryHash);
    EXPECT_EQ(A.BaseCycles, B.BaseCycles);
    EXPECT_EQ(A.Samples, B.Samples);
    EXPECT_EQ(A.MedianCycles, B.MedianCycles);
    EXPECT_EQ(A.SamplesSpent, B.SamplesSpent);
  };
  for (const char *Name : {"FFT", "Sieve"}) {
    SCOPED_TRACE(Name);
    workloads::Application App = buildByName(Name);
    IterativeCompiler Pipeline(fastConfig());
    IterativeCompiler::ProfiledApp Profiled = Pipeline.profileApp(App);
    ASSERT_TRUE(Profiled.Region.has_value());
    support::Result<SearchInputs> Inputs =
        Pipeline.captureInputs(Profiled, *Profiled.Region);
    ASSERT_TRUE(Inputs.ok());
    support::Result<std::unique_ptr<RegionSearch>> Prepared =
        Pipeline.prepareSearch(App, std::move(Inputs).value());
    ASSERT_TRUE(Prepared.ok());
    RegionSearch &Search = *Prepared.value();
    ASSERT_TRUE(Search.O3.ok());

    // The engine records for the -O3 binary what the serial baseline drew.
    search::Genome O3;
    O3.Passes = lir::o3Pipeline();
    search::Evaluation Engine = Search.Engine.evaluateBatch({O3})[0];
    EXPECT_EQ(Engine.BinaryHash, Search.O3.BinaryHash);
    EXPECT_EQ(Engine.Samples, Search.O3.Samples);
    EXPECT_EQ(Engine.MedianCycles, Search.O3.MedianCycles);

    // A serial evaluation does not depend on what its evaluator measured
    // before it: two fresh evaluators measure Android and -O2 in opposite
    // orders.
    RegionEvaluator A(App, Search.Region, Search.Captures, Search.Config);
    RegionEvaluator B(App, Search.Region, Search.Captures, Search.Config);
    search::Evaluation AndroidA = A.evaluateAndroid();
    search::Evaluation O2A = A.evaluatePipeline(lir::o2Pipeline());
    search::Evaluation O2B = B.evaluatePipeline(lir::o2Pipeline());
    search::Evaluation AndroidB = B.evaluateAndroid();
    ASSERT_TRUE(AndroidA.ok());
    ASSERT_TRUE(O2A.ok());
    ExpectSame(AndroidA, AndroidB);
    ExpectSame(O2A, O2B);
    ExpectSame(AndroidA, Search.Android);
  }
}

// --- Content-keyed compile memos (DESIGN.md §18) ---------------------------

TEST(CompileMemoTable, SharesByContent) {
  workloads::Application App = buildByName("Sieve");
  CompileMemoTable Table(*App.File);
  lir::TypeProfile Empty, Seen, SeenAgain, Other;
  Seen.record(1, 4, 2);
  SeenAgain.record(1, 4, 2);
  Other.record(1, 4, 3);

  // Equal keys give the same memo, whichever object carries the profile.
  std::shared_ptr<lir::CompileMemo> A = Table.memoFor(Empty, 2000);
  EXPECT_EQ(Table.memoFor(lir::TypeProfile(), 2000), A);
  std::shared_ptr<lir::CompileMemo> B = Table.memoFor(Seen, 2000);
  EXPECT_NE(B, A);
  EXPECT_EQ(Table.memoFor(SeenAgain, 2000), B);
  // A different profile or budget gives a different memo.
  EXPECT_NE(Table.memoFor(Other, 2000), B);
  EXPECT_NE(Table.memoFor(Seen, 1000), B);
  ASSERT_EQ(Table.memos().size(), 4u);
  for (const std::shared_ptr<lir::CompileMemo> &M : Table.memos())
    EXPECT_EQ(&M->file(), App.File.get());

  // Concurrent first requests for one key build one memo.
  std::vector<std::shared_ptr<lir::CompileMemo>> Got(4);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != Got.size(); ++I)
    Threads.emplace_back([&, I] { Got[I] = Table.memoFor(Other, 500); });
  for (std::thread &T : Threads)
    T.join();
  for (const std::shared_ptr<lir::CompileMemo> &M : Got)
    EXPECT_EQ(M, Got.front());
  EXPECT_EQ(Table.memos().size(), 5u);
}

// --- Long-run soak after installing the GA winner --------------------------------
//
// The paper's end state: the winning binary is installed on the user's
// device and lives through weeks of real sessions. Fifty sessions with
// evolving app state must stay correct (identical results to a stock
// instance run in lockstep) and stay fast.

TEST(Soak, InstalledWinnerSurvivesFiftySessions) {
  workloads::Application App = buildByName("Sieve");
  PipelineConfig Config = fastConfig(31);
  IterativeCompiler Pipeline(Config);
  OptimizationReport Report = Pipeline.optimize(buildByName("Sieve"));
  ASSERT_TRUE(Report.Succeeded) << Report.FailureReason;

  // Re-create the winner's code cache.
  auto Profiled = Pipeline.profileApp(App);
  ASSERT_TRUE(Profiled.Region.has_value());
  std::vector<CapturedRegion> Captures =
      Pipeline.captureRegionMulti(*Profiled.Instance, *Profiled.Region, 1);
  ASSERT_EQ(Captures.size(), 1u);
  RegionEvaluator Eval(App, *Profiled.Region, Captures, Config);
  std::optional<vm::CodeCache> Winner = Eval.compileRegion(Report.Best.G);
  ASSERT_TRUE(Winner.has_value());

  AppInstance Stock(App, /*Seed=*/909);
  AppInstance Tuned(App, /*Seed=*/909);
  Tuned.overrideRegionCode(Report.Region.Methods, *Winner);

  uint64_t StockCycles = 0, TunedCycles = 0;
  for (int I = 0; I != 50; ++I) {
    vm::CallResult S = Stock.runSession(App.DefaultParam + (I % 9));
    vm::CallResult T = Tuned.runSession(App.DefaultParam + (I % 9));
    ASSERT_TRUE(S.ok()) << "stock session " << I;
    ASSERT_TRUE(T.ok()) << "tuned session " << I;
    // Lockstep: identical observable results on every single session.
    ASSERT_EQ(S.Ret.Raw, T.Ret.Raw) << "diverged at session " << I;
    StockCycles += S.Cycles;
    TunedCycles += T.Cycles;
  }
  // And the win persists across the whole soak.
  EXPECT_LT(TunedCycles, StockCycles);
}
