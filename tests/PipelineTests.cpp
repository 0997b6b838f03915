//===- tests/PipelineTests.cpp - core/ end-to-end tests ----------------------===//
//
// The full Figure-6 loop on real applications, with a scaled-down GA so
// the suite stays fast. The full-scale paper configuration runs in the
// bench harnesses.
//
//===----------------------------------------------------------------------===//

#include "core/IterativeCompiler.h"
#include "core/OnlineEvaluator.h"
#include "support/Metrics.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

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
// once per boot per process, even with parallel engine workers.
TEST(Pipeline, RuntimeImageBuiltAtMostOnce) {
#if ROPT_OBSERVABILITY
  uint64_t Before =
      Metrics::instance().snapshot().counter("vm.runtime_image_builds");
  PipelineConfig Config = fastConfig();
  Config.Search.Jobs = 2;
  OptimizationReport Report =
      IterativeCompiler(Config).optimize(buildByName("FFT"));
  ASSERT_TRUE(Report.Succeeded) << Report.FailureReason;
  uint64_t After =
      Metrics::instance().snapshot().counter("vm.runtime_image_builds");
  EXPECT_LE(After - Before, 1u);
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
    RegionEvaluator Single(App, *Profiled.Region, C.Cap, C.Map, C.Profile,
                           Config);
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
  auto Cap = Pipeline.captureRegion(*Profiled.Instance, *Profiled.Region);
  ASSERT_TRUE(Cap.has_value());
  RegionEvaluator Eval(App, *Profiled.Region, Cap->Cap, Cap->Map,
                       Cap->Profile, Config);
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
