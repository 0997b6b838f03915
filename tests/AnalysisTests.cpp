//===- tests/AnalysisTests.cpp - The observability-loop analysis layer ------===//
//
// src/analysis/: span-DAG reconstruction (nesting, self time, critical
// path, top-spans rollup), the bottleneck-classifier rule cascade, the
// per-app region analysis (weight invariants, determinism across
// reruns), the criticality-scaled GA configuration, and the pruned-arm
// genome sampling.
//
//===----------------------------------------------------------------------===//

#include "analysis/RegionAnalysis.h"
#include "analysis/SpanDag.h"

#include "core/IterativeCompiler.h"
#include "lir/Passes.h"
#include "search/Genome.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace ropt;

namespace {

TraceEvent span(const char *Name, uint64_t StartUs, uint64_t DurUs,
                uint32_t Tid) {
  TraceEvent E;
  E.Ph = TraceEvent::Phase::Complete;
  E.Name = Name;
  E.StartUs = StartUs;
  E.DurUs = DurUs;
  E.ThreadId = Tid;
  return E;
}

} // namespace

// --- SpanDag ----------------------------------------------------------------

TEST(SpanDag, NestsByContainmentAndComputesSelfTime) {
  // Thread 1: outer [0,100) containing early [10,30) and late [50,20);
  // thread 2: an unrelated root. Events arrive in RAII close order
  // (inner spans first).
  std::vector<TraceEvent> Events = {
      span("early", 10, 30, 1),
      span("late", 50, 20, 1),
      span("outer", 0, 100, 1),
      span("other", 0, 40, 2),
  };
  analysis::SpanDag Dag = analysis::SpanDag::fromEvents(Events);
  ASSERT_EQ(Dag.nodes().size(), 4u);
  ASSERT_EQ(Dag.roots().size(), 2u);

  const analysis::SpanNode *Outer = nullptr, *Early = nullptr,
                           *Late = nullptr, *Other = nullptr;
  for (const analysis::SpanNode &N : Dag.nodes()) {
    if (N.Name == "outer")
      Outer = &N;
    else if (N.Name == "early")
      Early = &N;
    else if (N.Name == "late")
      Late = &N;
    else if (N.Name == "other")
      Other = &N;
  }
  ASSERT_TRUE(Outer && Early && Late && Other);
  EXPECT_EQ(Outer->Parent, -1);
  EXPECT_EQ(Other->Parent, -1);
  EXPECT_EQ(Outer->Children.size(), 2u);
  EXPECT_EQ(&Dag.nodes()[static_cast<size_t>(Early->Parent)], Outer);
  EXPECT_EQ(&Dag.nodes()[static_cast<size_t>(Late->Parent)], Outer);
  // Self time: 100 - (30 + 20).
  EXPECT_EQ(Outer->SelfUs, 50u);
  EXPECT_EQ(Early->SelfUs, 30u);
  EXPECT_EQ(Other->SelfUs, 40u);
}

TEST(SpanDag, CriticalPathFollowsLongestChildren) {
  std::vector<TraceEvent> Events = {
      span("leaf", 12, 10, 1),   span("mid.a", 10, 30, 1),
      span("mid.b", 50, 20, 1),  span("root.big", 0, 100, 1),
      span("root.small", 0, 40, 2),
  };
  analysis::SpanDag Dag = analysis::SpanDag::fromEvents(Events);
  std::vector<int> Path = Dag.criticalPath();
  ASSERT_EQ(Path.size(), 3u);
  EXPECT_EQ(Dag.nodes()[static_cast<size_t>(Path[0])].Name, "root.big");
  EXPECT_EQ(Dag.nodes()[static_cast<size_t>(Path[1])].Name, "mid.a");
  EXPECT_EQ(Dag.nodes()[static_cast<size_t>(Path[2])].Name, "leaf");
}

TEST(SpanDag, TopSpansAggregateByName) {
  std::vector<TraceEvent> Events = {
      span("work", 0, 10, 1),
      span("work", 20, 30, 1),
      span("idle", 60, 5, 1),
  };
  analysis::SpanDag Dag = analysis::SpanDag::fromEvents(Events);
  std::vector<analysis::SpanStats> Top = Dag.topSpans(10);
  ASSERT_EQ(Top.size(), 2u);
  EXPECT_EQ(Top[0].Name, "work");
  EXPECT_EQ(Top[0].Count, 2u);
  EXPECT_EQ(Top[0].TotalUs, 40u);
  EXPECT_EQ(Top[1].Name, "idle");
}

// --- The classifier cascade -------------------------------------------------

namespace {

analysis::RegionFeatures featuresWith(uint64_t Cycles) {
  analysis::RegionFeatures F;
  F.Cycles = Cycles;
  F.Insns = Cycles / 4;
  return F;
}

} // namespace

TEST(Classifier, NativeHeavyWinsTheCascade) {
  analysis::RegionFeatures F = featuresWith(10000);
  F.NativeCycles = 5000;          // nativeShare 1/3 >= 0.25.
  F.MemReads = 4000;              // Memory traffic too: native must win.
  F.CacheMisses = 200;
  EXPECT_EQ(analysis::classify(F), analysis::Bottleneck::NativeHeavy);
  EXPECT_STREQ(analysis::bottleneckName(analysis::Bottleneck::NativeHeavy),
               "native_heavy");
}

TEST(Classifier, MemoryBoundBeforeBranchy) {
  analysis::RegionFeatures F = featuresWith(10000);
  F.MemReads = 1000;
  F.CacheMisses = 120; // 1000*3 + 120*28 = 6360 cycles -> share 0.64.
  F.Mispredicts = 100; // 40/kiloinsn, also above the branchy bar.
  EXPECT_EQ(analysis::classify(F), analysis::Bottleneck::MemoryBound);
}

TEST(Classifier, BranchyComputeAndBalanced) {
  analysis::RegionFeatures Branchy = featuresWith(10000);
  Branchy.Branches = 1000;
  Branchy.Mispredicts = 50; // 20/kiloinsn.
  EXPECT_EQ(analysis::classify(Branchy), analysis::Bottleneck::Branchy);

  analysis::RegionFeatures Compute = featuresWith(10000);
  Compute.Mispredicts = 2; // 0.8/kiloinsn, no memory traffic.
  EXPECT_EQ(analysis::classify(Compute), analysis::Bottleneck::Compute);

  analysis::RegionFeatures Balanced = featuresWith(10000);
  Balanced.MemReads = 700; // share ~0.21: between compute and memory.
  Balanced.Mispredicts = 20; // 8/kiloinsn: between compute and branchy.
  EXPECT_EQ(analysis::classify(Balanced), analysis::Bottleneck::Balanced);
}

TEST(Classifier, NamesRoundTrip) {
  using analysis::Bottleneck;
  for (Bottleneck B :
       {Bottleneck::NativeHeavy, Bottleneck::MemoryBound,
        Bottleneck::Branchy, Bottleneck::Compute, Bottleneck::Balanced})
    EXPECT_EQ(analysis::bottleneckFromName(analysis::bottleneckName(B)), B);
  EXPECT_EQ(analysis::bottleneckFromName("gibberish"),
            Bottleneck::Balanced);
}

TEST(Classifier, PrunedMasksNeverCoverTheRegistry) {
  uint32_t Full = 0;
  for (const lir::PassDescriptor &D : lir::passRegistry())
    Full |= 1u << static_cast<uint32_t>(D.Id);
  using analysis::Bottleneck;
  for (Bottleneck B :
       {Bottleneck::NativeHeavy, Bottleneck::MemoryBound,
        Bottleneck::Branchy, Bottleneck::Compute, Bottleneck::Balanced}) {
    uint32_t Mask = analysis::prunedPassMask(B);
    EXPECT_NE(Mask & Full, Full) << analysis::bottleneckName(B);
  }
  EXPECT_EQ(analysis::prunedPassMask(Bottleneck::Balanced), 0u);
}

// --- Region analysis over a real profile ------------------------------------

namespace {

analysis::AppAnalysis analyzeOf(const std::string &Name) {
  workloads::Application App = workloads::buildByName(Name);
  core::IterativeCompiler Pipeline(core::PipelineConfig::paperDefaults());
  core::IterativeCompiler::ProfiledApp Profiled = Pipeline.profileApp(App);
  return analysis::analyzeApp(*App.File, Profiled.Profile, Profiled.RA);
}

bool sameAnalysis(const analysis::AppAnalysis &A,
                  const analysis::AppAnalysis &B) {
  if (A.Regions.size() != B.Regions.size())
    return false;
  for (size_t I = 0; I != A.Regions.size(); ++I) {
    const analysis::RegionReport &X = A.Regions[I];
    const analysis::RegionReport &Y = B.Regions[I];
    if (X.Root != Y.Root || X.RootName != Y.RootName ||
        X.Methods != Y.Methods || X.Label != Y.Label ||
        X.CriticalPathCycles != Y.CriticalPathCycles ||
        X.CriticalChain != Y.CriticalChain || X.Slack != Y.Slack ||
        X.BudgetWeight != Y.BudgetWeight ||
        X.BudgetScale != Y.BudgetScale ||
        X.Features.Cycles != Y.Features.Cycles ||
        X.Features.Insns != Y.Features.Insns ||
        X.Features.Mispredicts != Y.Features.Mispredicts ||
        X.Features.CacheMisses != Y.Features.CacheMisses ||
        X.Features.NativeCycles != Y.Features.NativeCycles)
      return false;
  }
  return true;
}

} // namespace

TEST(RegionAnalysis, WeightInvariantsHoldOnRealProfiles) {
  for (const char *Name : {"FFT", "Sieve", "Reversi Android"}) {
    analysis::AppAnalysis A = analyzeOf(Name);
    ASSERT_FALSE(A.empty()) << Name;

    // Hottest-first: index 0 is the slack-0 critical region and keeps
    // the full budget.
    EXPECT_EQ(A.Regions.front().Slack, 0u) << Name;
    EXPECT_DOUBLE_EQ(A.Regions.front().BudgetScale, 1.0) << Name;
    EXPECT_EQ(A.critical(), &A.Regions.front()) << Name;

    double WeightSum = 0.0;
    uint64_t PrevCycles = ~0ull;
    int SlackZero = 0;
    for (const analysis::RegionReport &R : A.Regions) {
      EXPECT_LE(R.Features.Cycles, PrevCycles) << Name;
      PrevCycles = R.Features.Cycles;
      WeightSum += R.BudgetWeight;
      SlackZero += R.Slack == 0 ? 1 : 0;
      EXPECT_GT(R.BudgetWeight, 0.0) << Name;
      EXPECT_LE(R.BudgetScale, 1.0) << Name;
      // The critical chain starts at the region root and its cycles are
      // bounded by the closure's.
      ASSERT_FALSE(R.CriticalChain.empty()) << Name;
      EXPECT_EQ(R.CriticalChain.front(), R.Root) << Name;
      EXPECT_LE(R.CriticalPathCycles, R.Features.Cycles) << Name;
      EXPECT_EQ(A.byRoot(R.Root), &R) << Name;
    }
    EXPECT_NEAR(WeightSum, 1.0, 1e-12) << Name;
    EXPECT_EQ(SlackZero, 1) << Name;

    // The critical region dominates: its weight is the maximum.
    for (const analysis::RegionReport &R : A.Regions)
      EXPECT_LE(R.BudgetWeight, A.Regions.front().BudgetWeight) << Name;
  }
  EXPECT_EQ(analyzeOf("FFT").byRoot(dex::InvalidId), nullptr);
}

TEST(RegionAnalysis, DetectedRegionKeepsTheFullGaConfiguration) {
  // The hot region detectHotRegion() picks is always the analysis's
  // slack-0 region: both keep the first maximum in method-id order under
  // the same filters. So the guided configuration of a pipeline's own
  // region is its base configuration, field for field, on every app —
  // which is why fleet classes (which only search their detected region)
  // have no analysis-guided branch.
  search::GaConfig Base;
  for (const workloads::Application &App : workloads::buildSuite()) {
    core::IterativeCompiler Pipeline(core::PipelineConfig::paperDefaults());
    core::IterativeCompiler::ProfiledApp Profiled = Pipeline.profileApp(App);
    ASSERT_TRUE(Profiled.Region.has_value()) << App.Name;
    analysis::AppAnalysis A =
        analysis::analyzeApp(*App.File, Profiled.Profile, Profiled.RA);
    const analysis::RegionReport *R = A.byRoot(Profiled.Region->Root);
    ASSERT_NE(R, nullptr) << App.Name;
    EXPECT_EQ(R->Slack, 0u) << App.Name;
    search::GaConfig Got = core::guidedGaConfig(Base, *R);
    EXPECT_EQ(Got.Generations, Base.Generations) << App.Name;
    EXPECT_EQ(Got.PopulationSize, Base.PopulationSize) << App.Name;
    EXPECT_EQ(Got.GenomeMutationProb, Base.GenomeMutationProb) << App.Name;
    EXPECT_EQ(Got.Genomes.MinLength, Base.Genomes.MinLength) << App.Name;
    EXPECT_EQ(Got.Genomes.MaxInitialLength, Base.Genomes.MaxInitialLength)
        << App.Name;
    EXPECT_EQ(Got.Genomes.MaxLength, Base.Genomes.MaxLength) << App.Name;
    EXPECT_EQ(Got.Genomes.AggressiveProb, Base.Genomes.AggressiveProb)
        << App.Name;
    EXPECT_EQ(Got.Genomes.GeneMutationProb, Base.Genomes.GeneMutationProb)
        << App.Name;
    EXPECT_EQ(Got.Genomes.DisabledPassMask, Base.Genomes.DisabledPassMask)
        << App.Name;
    EXPECT_EQ(Got.TournamentSize, Base.TournamentSize) << App.Name;
    EXPECT_EQ(Got.TournamentProb, Base.TournamentProb) << App.Name;
    EXPECT_EQ(Got.MaxIdenticalBinaries, Base.MaxIdenticalBinaries)
        << App.Name;
    EXPECT_EQ(Got.Gen0ReplacementRetries, Base.Gen0ReplacementRetries)
        << App.Name;
    EXPECT_EQ(Got.EliteCount, Base.EliteCount) << App.Name;
    EXPECT_EQ(Got.HillClimbRounds, Base.HillClimbRounds) << App.Name;
    EXPECT_EQ(Got.SignificanceAlpha, Base.SignificanceAlpha) << App.Name;
  }
}

TEST(RegionAnalysis, DeterministicAcrossReruns) {
  // The analysis is a pure function of the deterministic profile, so two
  // independent profile-and-analyze passes agree exactly — the property
  // `ropt-report analyze` byte-identity rests on.
  for (const char *Name : {"FFT", "Dhrystone"}) {
    analysis::AppAnalysis A = analyzeOf(Name);
    analysis::AppAnalysis B = analyzeOf(Name);
    EXPECT_TRUE(sameAnalysis(A, B)) << Name;
  }
}

// --- Criticality-scaled GA configuration ------------------------------------

TEST(ScaledGaConfig, ScaleOneAndAboveReturnBaseUntouched) {
  search::GaConfig Base; // 11 x 50 paper defaults.
  search::GaConfig Same = core::scaledGaConfig(Base, 1.0);
  EXPECT_EQ(Same.Generations, Base.Generations);
  EXPECT_EQ(Same.PopulationSize, Base.PopulationSize);
  EXPECT_EQ(Same.TournamentSize, Base.TournamentSize);
  EXPECT_EQ(Same.EliteCount, Base.EliteCount);
  EXPECT_EQ(Same.HillClimbRounds, Base.HillClimbRounds);
  search::GaConfig Bigger = core::scaledGaConfig(Base, 7.5);
  EXPECT_EQ(Bigger.Generations, Base.Generations);
  EXPECT_EQ(Bigger.PopulationSize, Base.PopulationSize);
}

TEST(ScaledGaConfig, EvaluationsScaleRoughlyLinearly) {
  search::GaConfig Base;
  search::GaConfig Quarter = core::scaledGaConfig(Base, 0.25);
  double Ratio =
      static_cast<double>(Quarter.Generations * Quarter.PopulationSize) /
      static_cast<double>(Base.Generations * Base.PopulationSize);
  EXPECT_GT(Ratio, 0.15);
  EXPECT_LT(Ratio, 0.40);
  EXPECT_LE(Quarter.TournamentSize, Quarter.PopulationSize);
  EXPECT_LT(Quarter.EliteCount, Quarter.PopulationSize);
  EXPECT_LE(Quarter.HillClimbRounds, Quarter.Generations);
}

TEST(ScaledGaConfig, FloorsKeepTinyScalesSearchable) {
  search::GaConfig Base;
  search::GaConfig Tiny = core::scaledGaConfig(Base, 1e-6);
  EXPECT_GE(Tiny.Generations, 2);
  EXPECT_GE(Tiny.PopulationSize, 8);
  EXPECT_GE(Tiny.TournamentSize, 1);
  EXPECT_LE(Tiny.EliteCount, Tiny.PopulationSize - 1);
}

// --- Pruned-arm genome sampling ---------------------------------------------

TEST(Genome, RandomGeneRespectsDisabledPassMask) {
  const auto &Registry = lir::passRegistry();
  ASSERT_GE(Registry.size(), 4u);
  search::GenomeConfig Config;
  Config.DisabledPassMask =
      (1u << static_cast<uint32_t>(Registry[0].Id)) |
      (1u << static_cast<uint32_t>(Registry[2].Id));
  Rng R(42);
  for (int I = 0; I != 2000; ++I) {
    lir::PassInstance P = search::randomGene(R, Config);
    EXPECT_EQ(Config.DisabledPassMask &
                  (1u << static_cast<uint32_t>(P.Id)),
              0u);
  }
  // An unmasked configuration still reaches every arm.
  search::GenomeConfig Open;
  std::set<lir::PassId> Seen;
  Rng R2(7);
  for (int I = 0; I != 4000; ++I)
    Seen.insert(search::randomGene(R2, Open).Id);
  EXPECT_EQ(Seen.size(), Registry.size());
}
