//===- tests/ReportTests.cpp - The run-report flight recorder ---------------===//
//
// support/Json building + parsing, RunReport round trips through a real
// run directory, the jobs-invariance guarantee for provenance records
// (the acceptance criterion: a seeded pipeline writes a byte-identical
// evaluations.jsonl at --jobs 1 and --jobs 4), ropt-report's diff gate on
// synthesized regressions, and the bench parseArgs contract.
//
//===----------------------------------------------------------------------===//

#include "report/RunDiff.h"
#include "report/RunReport.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Random.h"

#include "bench/BenchUtil.h"
#include "core/IterativeCompiler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace ropt;

namespace {

/// Fresh directory under the test temp dir, removed on destruction.
class TempRunDir {
public:
  explicit TempRunDir(const std::string &Name)
      : Path(std::filesystem::path(::testing::TempDir()) / Name) {
    std::filesystem::remove_all(Path);
  }
  ~TempRunDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }

private:
  std::filesystem::path Path;
};

std::string slurpFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::string Out((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  return Out;
}

} // namespace

// --- support/Json -----------------------------------------------------------

TEST(Json, BuilderRendersObjectsAndArrays) {
  json::Builder B;
  B.field("s", "a\"b\\c\n");
  B.field("i", int64_t(-42));
  B.field("u", uint64_t(18446744073709551615ull));
  B.field("b", true);
  B.fieldNull("n");
  {
    json::Builder A(/*Array=*/true);
    A.element(1.5);
    A.element(std::string("x"));
    B.fieldRaw("a", std::move(A).str());
  }
  std::string S = std::move(B).str();
  EXPECT_EQ(S, "{\"s\":\"a\\\"b\\\\c\\n\",\"i\":-42,"
               "\"u\":18446744073709551615,\"b\":true,\"n\":null,"
               "\"a\":[1.5,\"x\"]}");
}

TEST(Json, ParseRoundTripsBuilderOutput) {
  json::Builder B;
  B.field("name", "trailing \\ slash");
  B.field("pi", 3.141592653589793);
  B.field("neg", int64_t(-7));
  std::string S = std::move(B).str();

  support::Result<json::Value> V = json::parse(S);
  ASSERT_TRUE(V.ok()) << V.error().Message;
  EXPECT_EQ(V.value().string("name"), "trailing \\ slash");
  // %.17g formatting makes the double round trip exact.
  EXPECT_EQ(V.value().number("pi"), 3.141592653589793);
  EXPECT_EQ(V.value().number("neg"), -7.0);
}

TEST(Json, ParseHandlesEscapesAndNesting) {
  support::Result<json::Value> V = json::parse(
      "{\"u\":\"\\u0041\\u00e9\",\"arr\":[1,[2,3],{\"k\":null}],"
      "\"t\":true,\"f\":false}");
  ASSERT_TRUE(V.ok()) << V.error().Message;
  EXPECT_EQ(V.value().string("u"), "A\xc3\xa9"); // UTF-8 for "Aé"
  const json::Value *Arr = V.value().find("arr");
  ASSERT_NE(Arr, nullptr);
  ASSERT_EQ(Arr->elements().size(), 3u);
  EXPECT_EQ(Arr->elements()[1].elements()[1].asNumber(), 3.0);
  EXPECT_EQ(Arr->elements()[2].find("k")->kind(), json::Value::Kind::Null);
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(json::parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(json::parse("{\"a\":}").ok());
  EXPECT_FALSE(json::parse("[1,]").ok());
  EXPECT_FALSE(json::parse("").ok());
  EXPECT_FALSE(json::parse("\"unterminated").ok());
}

namespace {

/// Seeded damage to a real document: a truncation, one to four bit
/// flips, or both.
std::string corrupt(const std::string &Doc, Rng &R) {
  std::string Bad = Doc;
  uint64_t Mode = R.below(3);
  if (Mode != 1)
    Bad.resize(R.below(Bad.size() + 1));
  if (Mode != 0 && !Bad.empty())
    for (uint64_t F = 0, N = 1 + R.below(4); F != N; ++F)
      Bad[R.below(Bad.size())] ^= static_cast<char>(1u << R.below(8));
  return Bad;
}

/// Visits every node of a parsed value; returns the node count.
size_t walk(const json::Value &V) {
  size_t Nodes = 1;
  switch (V.kind()) {
  case json::Value::Kind::Array:
    for (const json::Value &E : V.elements())
      Nodes += walk(E);
    break;
  case json::Value::Kind::Object:
    for (const json::Value::Member &M : V.members()) {
      EXPECT_NE(V.find(M.first), nullptr);
      Nodes += walk(M.second);
    }
    break;
  default:
    EXPECT_TRUE(V.elements().empty() && V.members().empty());
    break;
  }
  return Nodes;
}

} // namespace

TEST(Json, ParseSurvivesRandomCorruption) {
  // A real document: what the report writers emit, escapes and nesting
  // included.
  json::Builder B;
  B.field("tool", "fig07 \"speedups\"\n\u00e9");
  B.field("seed", uint64_t(18446744073709551615ull));
  B.field("ratio", 0.1234567890123);
  B.field("ok", true);
  B.fieldNull("none");
  {
    json::Builder A(/*Array=*/true);
    for (int I = 0; I != 8; ++I) {
      json::Builder E;
      E.field("gen", int64_t(I)).field("name", "licm!,loop-unroll=4|ra=freq");
      A.elementRaw(std::move(E).str());
    }
    B.fieldRaw("records", std::move(A).str());
  }
  std::string Doc = std::move(B).str();
  ASSERT_TRUE(json::parse(Doc).ok());

  Rng R(0x15f0);
  int Parsed = 0, Rejected = 0;
  for (int I = 0; I != 4000; ++I) {
    std::string Bad = corrupt(Doc, R);
    support::Result<json::Value> V = json::parse(Bad);
    if (!V.ok()) {
      EXPECT_FALSE(V.error().Message.empty());
      ++Rejected;
      continue;
    }
    EXPECT_GE(walk(V.value()), 1u);
    ++Parsed;
  }
  // Both outcomes happen: flips inside strings still parse.
  EXPECT_GT(Parsed, 0);
  EXPECT_GT(Rejected, 0);
}

// --- RunReport round trip ---------------------------------------------------

TEST(RunReport, RoundTripsThroughRunDirectory) {
  TempRunDir Dir("ropt_report_roundtrip");
  report::RunInfo Info;
  Info.Tool = "report_tests";
  Info.Seed = 7;
  Info.Jobs = 2;
  Info.Generations = 3;
  Info.PopulationSize = 5;

  Rng R(42);
  search::Genome G1 = search::randomGenome(R, search::GenomeConfig{});
  search::Genome G2 = search::randomGenome(R, search::GenomeConfig{});

  {
    support::Result<std::unique_ptr<report::RunReport>> Opened =
        report::RunReport::open(Dir.str(), Info);
    ASSERT_TRUE(Opened.ok()) << Opened.error().Message;
    report::RunReport &RR = *Opened.value();
    RR.beginApp("TestApp");

    search::Evaluation Ok;
    Ok.Kind = search::EvalKind::Ok;
    Ok.Samples = {10.0, 11.0, 12.0};
    Ok.MedianCycles = 11.0;
    Ok.CodeSize = 123;
    Ok.BinaryHash = 0xdeadbeefcafef00dull;
    uint64_t Id1 = RR.onEvaluation(G1, Ok, 0, {});
    EXPECT_EQ(Id1, 1u);

    search::Evaluation Bad;
    Bad.Kind = search::EvalKind::RuntimeCrash;
    Bad.Error = support::ErrorCode::ReplayCrash;
    uint64_t Id2 = RR.onEvaluation(G2, Bad, 1, {Id1});
    EXPECT_EQ(Id2, 2u);

    search::GenerationStats S;
    S.Generation = 0;
    S.Evaluations = 2;
    S.Invalid = 1;
    S.BestCycles = 11.0;
    S.WorstCycles = 11.0;
    S.MeanCycles = 11.0;
    RR.onGenerationDone(S);

    report::AppOutcome Out;
    Out.Succeeded = true;
    Out.Counters.Ok = 1;
    Out.Counters.RuntimeCrash = 1;
    Out.Cache.Misses = 2;
    RR.endApp(Out);
    EXPECT_TRUE(RR.finish());
  }

  support::Result<report::LoadedRun> Loaded = report::loadRun(Dir.str());
  ASSERT_TRUE(Loaded.ok()) << Loaded.error().Message;
  const report::LoadedRun &Run = Loaded.value();

  EXPECT_EQ(Run.Manifest.string("tool"), "report_tests");
  EXPECT_EQ(Run.Manifest.number("seed"), 7.0);
  ASSERT_EQ(Run.Evaluations.size(), 2u);
  EXPECT_EQ(Run.Evaluations[0].App, "TestApp");
  EXPECT_EQ(Run.Evaluations[0].Genome, G1.name());
  EXPECT_EQ(Run.Evaluations[0].Verdict, "ok");
  EXPECT_EQ(Run.Evaluations[0].BinaryHash, "0xdeadbeefcafef00d");
  EXPECT_EQ(Run.Evaluations[0].MedianCycles, 11.0);
  EXPECT_LT(Run.Evaluations[0].CiLow, Run.Evaluations[0].CiHigh);
  EXPECT_EQ(Run.Evaluations[1].Verdict, "runtime-crash");
  EXPECT_EQ(Run.Evaluations[1].Error, "replay-crash");
  ASSERT_EQ(Run.Evaluations[1].Parents.size(), 1u);
  EXPECT_EQ(Run.Evaluations[1].Parents[0], 1u);
  ASSERT_EQ(Run.Generations.size(), 1u);
  EXPECT_EQ(Run.Generations[0].Evaluations, 2);

  report::ValidationResult V = report::validateRun(Run);
  EXPECT_TRUE(V.ok());
#if ROPT_OBSERVABILITY
  EXPECT_TRUE(V.Warnings.empty());
#else
  // The manifest records observability:false; validation says why
  // metrics.json and trace.json are absent, and warns about nothing else.
  ASSERT_EQ(V.Warnings.size(), 1u);
  EXPECT_NE(V.Warnings[0].find("ROPT_OBSERVABILITY=0"), std::string::npos);
#endif

  std::string Summary = report::summarize(Run);
  EXPECT_NE(Summary.find("TestApp"), std::string::npos);
  EXPECT_NE(Summary.find("report_tests"), std::string::npos);
}

TEST(RunReport, SummarizeReportsCompileMemoReuse) {
  report::LoadedRun Run;
  Run.Dir = "memo-run";
  Run.Manifest = json::parse("{\"tool\":\"t\",\"seed\":1,\"jobs\":2}").value();
  Run.Metrics =
      json::parse("{\"counters\":{\"compile.memo_transition_hits\":75,"
                  "\"compile.memo_transition_misses\":25,"
                  "\"compile.memo_codegen_hits\":1,"
                  "\"compile.memo_codegen_misses\":3,"
                  "\"compile.memo_evictions\":7,"
                  "\"compile.memo_recomputes\":2}}")
          .value();
  Run.HasMetrics = true;
  EXPECT_NE(report::summarize(Run).find(
                "compile memo: 75.0% of 100 pass applications reused, "
                "codegen 25.0% of 4 verified methods reused, 7 evictions, "
                "2 recomputes\n"),
            std::string::npos);
  // No metrics.json (an observability-off build): no memo line.
  Run.HasMetrics = false;
  EXPECT_EQ(report::summarize(Run).find("compile memo"), std::string::npos);
}

TEST(RunReport, LoadRunFailsOnMissingDirectory) {
  support::Result<report::LoadedRun> R =
      report::loadRun("/nonexistent/run/dir");
  EXPECT_FALSE(R.ok());
}

// --- The acceptance criterion: provenance is jobs-invariant -----------------

namespace {

core::PipelineConfig smallConfig(uint64_t Seed, int Jobs) {
  core::PipelineConfig Config;
  Config.Seed = Seed;
  Config.Search.GA.Generations = 2;
  Config.Search.GA.PopulationSize = 8;
  Config.Search.GA.HillClimbRounds = 1;
  Config.Search.MaxReplaysPerEvaluation = 5;
  Config.Search.Jobs = Jobs;
  Config.Capture.ProfileSessions = 4;
  Config.Measure.FinalMeasurementRuns = 4;
  return Config;
}

std::string runWithReport(const std::string &Dir, uint64_t Seed,
                          int Jobs) {
  core::PipelineConfig Config = smallConfig(Seed, Jobs);
  report::RunInfo Info;
  Info.Tool = "report_tests";
  Info.Seed = Seed;
  Info.Jobs = Jobs;
  support::Result<std::unique_ptr<report::RunReport>> Opened =
      report::RunReport::open(Dir, Info);
  EXPECT_TRUE(Opened.ok());
  report::RunReport &RR = *Opened.value();
  Config.Provenance = &RR;

  RR.beginApp("Sieve");
  core::IterativeCompiler Pipeline(Config);
  core::OptimizationReport R =
      Pipeline.optimize(workloads::buildByName("Sieve"));
  EXPECT_TRUE(R.Succeeded) << R.FailureReason;
  report::AppOutcome Out;
  Out.Succeeded = R.Succeeded;
  Out.Counters = R.Counters;
  Out.Cache = R.CacheStats;
  Out.RegionAndroid = R.RegionAndroid;
  Out.RegionO3 = R.RegionO3;
  Out.RegionBest = R.RegionBest;
  RR.endApp(Out);
  RR.finish();
  return Dir;
}

} // namespace

TEST(RunReport, RecordsAreIdenticalAtAnyJobsCount) {
  TempRunDir DirA("ropt_report_jobs1");
  TempRunDir DirB("ropt_report_jobs4");
  runWithReport(DirA.str(), /*Seed=*/1, /*Jobs=*/1);
  runWithReport(DirB.str(), /*Seed=*/1, /*Jobs=*/4);

  // Byte-identical record streams — not merely equivalent.
  std::string EvalsA = slurpFile(DirA.str() + "/evaluations.jsonl");
  std::string EvalsB = slurpFile(DirB.str() + "/evaluations.jsonl");
  ASSERT_FALSE(EvalsA.empty());
  EXPECT_EQ(EvalsA, EvalsB);
  EXPECT_EQ(slurpFile(DirA.str() + "/generations.jsonl"),
            slurpFile(DirB.str() + "/generations.jsonl"));

  // And the diff gate agrees: zero regressions between the two runs.
  support::Result<report::LoadedRun> A = report::loadRun(DirA.str());
  support::Result<report::LoadedRun> B = report::loadRun(DirB.str());
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  EXPECT_TRUE(report::validateRun(A.value()).ok());
  report::DiffResult D = report::diffRuns(A.value(), B.value());
  EXPECT_EQ(D.FitnessRegressions, 0);
  EXPECT_EQ(D.VerdictShifts, 0);
  EXPECT_FALSE(D.regressed());
}

// --- The diff gate on synthesized regressions -------------------------------

namespace {

/// Builds a run directory whose single app has the given ok-evaluation
/// medians and one crash record per \p Crashes.
void synthesizeRun(const std::string &Dir,
                   const std::vector<double> &OkMedians, int Crashes) {
  report::RunInfo Info;
  Info.Tool = "synth";
  support::Result<std::unique_ptr<report::RunReport>> Opened =
      report::RunReport::open(Dir, Info);
  ASSERT_TRUE(Opened.ok());
  report::RunReport &RR = *Opened.value();
  RR.beginApp("Synth");
  Rng R(1);
  for (double Median : OkMedians) {
    search::Evaluation E;
    E.Kind = search::EvalKind::Ok;
    E.MedianCycles = Median;
    E.Samples = {Median};
    E.BinaryHash = static_cast<uint64_t>(Median);
    RR.onEvaluation(search::randomGenome(R, search::GenomeConfig{}), E, 0,
                    {});
  }
  for (int I = 0; I != Crashes; ++I) {
    search::Evaluation E;
    E.Kind = search::EvalKind::RuntimeCrash;
    E.Error = support::ErrorCode::ReplayCrash;
    RR.onEvaluation(search::randomGenome(R, search::GenomeConfig{}), E, 0,
                    {});
  }
  report::AppOutcome Out;
  Out.Succeeded = true;
  RR.endApp(Out);
  RR.finish();
}

} // namespace

TEST(RunDiff, FlagsFitnessRegressionsBeyondThreshold) {
  TempRunDir DirA("ropt_diff_base");
  TempRunDir DirB("ropt_diff_slow");
  synthesizeRun(DirA.str(), {100.0, 150.0}, 0); // best 100
  synthesizeRun(DirB.str(), {110.0, 150.0}, 0); // best 110: +10%

  report::LoadedRun A = report::loadRun(DirA.str()).value();
  report::LoadedRun B = report::loadRun(DirB.str()).value();

  report::DiffOptions Opt;
  Opt.FitnessThreshold = 0.02;
  report::DiffResult D = report::diffRuns(A, B, Opt);
  EXPECT_EQ(D.FitnessRegressions, 1);
  EXPECT_TRUE(D.regressed());
  EXPECT_NE(D.Text.find("FITNESS REGRESSION"), std::string::npos);

  // A generous threshold swallows the same delta.
  Opt.FitnessThreshold = 0.5;
  EXPECT_FALSE(report::diffRuns(A, B, Opt).regressed());

  // The reverse direction is an improvement, not a regression.
  EXPECT_FALSE(report::diffRuns(B, A).regressed());
}

TEST(RunDiff, FlagsVerdictMixShifts) {
  TempRunDir DirA("ropt_diff_mix_a");
  TempRunDir DirB("ropt_diff_mix_b");
  synthesizeRun(DirA.str(), {100.0, 100.0, 100.0, 100.0}, 0);
  synthesizeRun(DirB.str(), {100.0, 100.0}, 2); // 50% now crash

  report::LoadedRun A = report::loadRun(DirA.str()).value();
  report::LoadedRun B = report::loadRun(DirB.str()).value();
  report::DiffResult D = report::diffRuns(A, B);
  EXPECT_GT(D.VerdictShifts, 0);
  // Mix shifts warn but do not fail the gate on their own.
  EXPECT_FALSE(D.regressed());
}

// --- The one schema, and damaged run directories ---------------------------

namespace {

void writeRawFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Content;
  ASSERT_TRUE(Out.good()) << "cannot write " << Path;
}

/// A current-schema fleet run directory with every artifact the writer
/// knows — evaluations, generations, a region analysis, fleet steps, the
/// fleet section, telemetry and the fleet trace — written through the
/// RunReport API, consistent enough that validateRun finds no problem.
void synthesizeFleetRun(const std::string &Dir) {
  report::RunInfo Info;
  Info.Tool = "synth_fleet";
  support::Result<std::unique_ptr<report::RunReport>> Opened =
      report::RunReport::open(Dir, Info);
  ASSERT_TRUE(Opened.ok()) << Opened.error().Message;
  report::RunReport &RR = *Opened.value();
  RR.beginApp("Synth");
  Rng R(5);
  search::Evaluation Ok;
  Ok.Kind = search::EvalKind::Ok;
  Ok.Samples = {100.0, 102.0};
  Ok.MedianCycles = 101.0;
  Ok.BinaryHash = 0x1234;
  uint64_t Id = RR.onEvaluation(search::randomGenome(R, {}), Ok, 0, {});
  search::Evaluation Crash;
  Crash.Kind = search::EvalKind::RuntimeCrash;
  Crash.Error = support::ErrorCode::ReplayCrash;
  RR.onEvaluation(search::randomGenome(R, {}), Crash, 1, {Id});
  search::GenerationStats G;
  G.Evaluations = 2;
  G.Invalid = 1;
  G.BestCycles = G.WorstCycles = G.MeanCycles = 101.0;
  RR.onGenerationDone(G);

  report::AppOutcome Out;
  Out.Succeeded = true;
  for (int I = 0; I != 2; ++I) {
    analysis::RegionReport Region;
    Region.Root = static_cast<dex::MethodId>(3 + I);
    Region.RootName = I ? "cool" : "hot";
    Region.Methods = {Region.Root};
    Region.Features.Cycles = I ? 400 : 1000;
    Region.Features.Insns = 500;
    Region.Label = I ? analysis::Bottleneck::Branchy
                     : analysis::Bottleneck::Compute;
    Region.CriticalPathCycles = I ? 300 : 900;
    Region.CriticalChain = {Region.Root};
    Region.Slack = I ? 600 : 0;
    Region.BudgetWeight = I ? 0.25 : 0.75;
    Region.BudgetScale = I ? 1.0 / 3.0 : 1.0;
    Out.Analysis.Regions.push_back(Region);
  }
  RR.endApp(Out);

  // Two devices of two classes; device 1 adopts device 0's genome.
  fleet::FleetTelemetry T;
  T.App = "Synth";
  T.Devices = 2;
  fleet::ProvenanceChain Chain;
  Chain.Id = 0xabc;
  Chain.Key = "gvn,dce";
  Chain.Device = 0;
  Chain.DiscoveryTime = 10;
  Chain.FirstMergeTime = 14;
  Chain.Arrivals = 1;
  Chain.LatencyTicksTotal = 8;
  Chain.Adoptions = 1;
  Chain.FirstAdoptDevice = 1;
  Chain.FirstAdoptTime = 20;
  Chain.Won = true;
  T.Chains.push_back(Chain);
  int Adopted = 0;
  for (int D = 0; D != 2; ++D) {
    fleet::ClassTelemetry C;
    C.ClassId = D;
    C.Devices = 1;
    C.Sketches.Speedup.observe(1.5 + D);
    C.Sketches.StepTicks.observe(40.0);
    if (D == 1)
      C.Sketches.HintLatency.observe(8.0);
    T.Classes.push_back(C);
    T.Total += C.Sketches;

    report::FleetStepRecord S;
    S.App = "Synth";
    S.FleetDevices = 2;
    S.Device = D;
    S.VirtualTime = 20 + 10 * static_cast<uint64_t>(D);
    S.BestSpeedup = 1.5 + D;
    S.BestGenome = "gvn,dce";
    S.BestSource = D ? "seeded" : "random";
    S.BestFromHint = D == 1;
    S.HintsReceived = D;
    S.HintsAdopted = D;
    S.Evaluations = 8;
    S.DeviceClass = D;
    S.BestProvenance = Chain.Id;
    S.BestDiscoveryDevice = 0;
    S.BestDiscoveryTime = Chain.DiscoveryTime;
    S.TransportAttempts = 1;
    S.TransportTicks = 4;
    RR.onFleetStep(S);
    Adopted += S.HintsAdopted;

    analysis::FleetTraceEvent E;
    E.Time = S.VirtualTime - 10;
    E.Duration = 10;
    E.Track = D;
    E.Device = D;
    E.Name = "step 0";
    RR.onFleetTrace("Synth", 2, 2, {E});
  }
  RR.onFleetCell(T);
  report::FleetSummary F;
  F.DeviceSweep = "2";
  F.Steps = 1;
  F.HintsAdopted = static_cast<uint64_t>(Adopted);
  F.BestSpeedup = 2.5;
  RR.setFleetSummary(F);
  EXPECT_TRUE(RR.finish());
}

} // namespace

TEST(RunDiff, RefusesEveryOtherManifestSchema) {
  TempRunDir Dir("ropt_other_schema");
  synthesizeRun(Dir.str(), {100.0}, 1);
  std::string Manifest = slurpFile(Dir.str() + "/manifest.json");
  const std::string Current = "\"schema\":7,";
  ASSERT_EQ(Manifest.rfind(Current, 1), 1u);
  ASSERT_TRUE(report::loadRun(Dir.str()).ok());
  for (int Schema : {1, 2, 3, 4, 5, 6, 8}) {
    writeRawFile(Dir.str() + "/manifest.json",
                 "{\"schema\":" + std::to_string(Schema) + "," +
                     Manifest.substr(1 + Current.size()));
    support::Result<report::LoadedRun> Run = report::loadRun(Dir.str());
    ASSERT_FALSE(Run.ok()) << "schema " << Schema;
    EXPECT_EQ(Run.error().Message,
              Dir.str() + "/manifest.json: unsupported schema " +
                  std::to_string(Schema) + " (this build reads 7)");
  }
}

TEST(RunDiff, LoadAndValidateSurviveCorruptRunDirectories) {
  TempRunDir Dir("ropt_corrupt_run");
  synthesizeFleetRun(Dir.str());
  support::Result<report::LoadedRun> Pristine = report::loadRun(Dir.str());
  ASSERT_TRUE(Pristine.ok()) << Pristine.error().Message;
  report::ValidationResult V = report::validateRun(Pristine.value());
  ASSERT_TRUE(V.ok()) << V.Problems.front();
  ASSERT_TRUE(Pristine.value().HasFleetLog);
  ASSERT_TRUE(Pristine.value().HasAnalysisLog);
  ASSERT_TRUE(Pristine.value().HasTelemetry);

  // Every artifact, each damaged many ways: truncated at a random length
  // or with one random bit flipped. loadRun must return an error or a
  // run, and every reader must take whatever loads without crashing
  // (the ASan+UBSan build runs this too).
  std::vector<std::pair<std::string, std::string>> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir.str()))
    Files.push_back({E.path().string(), slurpFile(E.path().string())});
  ASSERT_GE(Files.size(), 7u);
  Rng R(2024);
  int Loaded = 0, Refused = 0;
  for (const auto &[Path, Bytes] : Files) {
    for (int Trial = 0; Trial != 60; ++Trial) {
      std::string Damaged = Bytes;
      if (Trial % 2 == 0 || Damaged.empty())
        Damaged.resize(R.below(Damaged.size() + 1));
      else
        Damaged[R.below(Damaged.size())] ^=
            static_cast<char>(1u << R.below(8));
      writeRawFile(Path, Damaged);
      support::Result<report::LoadedRun> Run = report::loadRun(Dir.str());
      if (!Run) {
        ++Refused;
        continue;
      }
      ++Loaded;
      const report::LoadedRun &L = Run.value();
      report::validateRun(L);
      report::summarize(L);
      report::summarize(L, /*Markdown=*/true);
      report::analyzeRun(L, &Pristine.value());
      report::diffRuns(Pristine.value(), L);
      report::diffRuns(L, Pristine.value());
      report::fleetReport(L, &Pristine.value());
    }
    writeRawFile(Path, Bytes);
  }
  EXPECT_GT(Loaded, 0);
  EXPECT_GT(Refused, 0);

  // Numbers no span field can hold — negative, or past uint64_t — read
  // as 0 in the summary's top spans rather than as undefined conversions.
  writeRawFile(Dir.str() + "/trace.json",
               "{\"traceEvents\":["
               "{\"ph\":\"X\",\"name\":\"hostile\",\"ts\":-1,"
               "\"dur\":1e30,\"tid\":-7},"
               "{\"ph\":\"X\",\"name\":\"hostile\",\"ts\":1e30,"
               "\"dur\":-2,\"tid\":1e30}]}");
  support::Result<report::LoadedRun> Hostile = report::loadRun(Dir.str());
  ASSERT_TRUE(Hostile.ok()) << Hostile.error().Message;
  EXPECT_NE(report::summarize(Hostile.value())
                .find(format("%-28s %8d %12.3f %12.3f", "hostile", 2, 0.0,
                             0.0)),
            std::string::npos);
}

TEST(RunDiff, RejectsEmptyAndOutOfOrderGenerationRecords) {
  auto Gen = [](const char *App, int G, int Evals) {
    return std::string("{\"app\":\"") + App + "\",\"gen\":" +
           std::to_string(G) + ",\"evaluations\":" + std::to_string(Evals) +
           ",\"invalid\":0,\"best_cycles\":100,\"worst_cycles\":100," +
           "\"mean_cycles\":100}\n";
  };
  auto Validate = [](const std::string &Name, const std::string &Gens) {
    TempRunDir Dir(Name);
    synthesizeRun(Dir.str(), {100.0}, 1);
    writeRawFile(Dir.str() + "/generations.jsonl", Gens);
    return report::validateRun(report::loadRun(Dir.str()).value());
  };
  // Gaps are fine, and each app counts on its own.
  EXPECT_TRUE(Validate("ropt_gens_ok", Gen("Synth", 0, 2) + Gen("Synth", 3, 1) +
                                           Gen("Other", 0, 4))
                  .ok());
  // A zeroed row, a repeat and a step back are problems.
  report::ValidationResult Empty =
      Validate("ropt_gens_empty", Gen("Synth", 0, 2) + Gen("Synth", 0, 0));
  ASSERT_FALSE(Empty.ok());
  EXPECT_NE(Empty.Problems.front().find("empty"), std::string::npos);
  EXPECT_FALSE(
      Validate("ropt_gens_repeat", Gen("Synth", 1, 2) + Gen("Synth", 1, 2))
          .ok());
  report::ValidationResult Back =
      Validate("ropt_gens_back", Gen("Synth", 2, 2) + Gen("Synth", 1, 2));
  ASSERT_FALSE(Back.ok());
  EXPECT_NE(Back.Problems.front().find("out of order"), std::string::npos);
}

TEST(RunDiff, WarnsButDoesNotFailOnFleetArtifactMismatch) {
  TempRunDir Dir("ropt_fleet_mismatch");
  synthesizeRun(Dir.str(), {100.0}, 1);
  // A stray fleet.jsonl next to a manifest with no fleet section: the
  // validator flags it as a warning, not a gate failure.
  writeRawFile(Dir.str() + "/fleet.jsonl",
               "{\"app\":\"Synth\",\"devices\":2,\"round\":0,"
               "\"device\":0,\"best_speedup\":1.5,\"best_genome\":\"g1\","
               "\"best_source\":\"seeded\",\"best_from_hint\":true,"
               "\"hints_received\":2,\"hints_adopted\":1,"
               "\"hints_rejected\":1,\"evaluations\":8,"
               "\"transport_attempts\":2,\"transport_drops\":0,"
               "\"transport_ticks\":4,\"delivered\":true}\n");

  report::LoadedRun Run = report::loadRun(Dir.str()).value();
  ASSERT_TRUE(Run.HasFleetLog);
  ASSERT_EQ(Run.Fleet.size(), 1u);
  EXPECT_EQ(Run.Fleet[0].BestSource, "seeded");
  EXPECT_TRUE(Run.Fleet[0].BestFromHint);

  report::ValidationResult V = report::validateRun(Run);
  EXPECT_TRUE(V.ok());
  bool Warned = false;
  for (const std::string &W : V.Warnings)
    Warned |= W.find("no fleet section") != std::string::npos;
  EXPECT_TRUE(Warned);
}

TEST(RunDiff, FlagsInternallyInconsistentFleetRecords) {
  TempRunDir Dir("ropt_fleet_bad");
  synthesizeRun(Dir.str(), {100.0}, 1);
  // adopted + rejected exceeds received, and the source spelling is
  // unknown: both are validation problems.
  writeRawFile(Dir.str() + "/fleet.jsonl",
               "{\"app\":\"Synth\",\"devices\":2,\"round\":0,"
               "\"device\":0,\"best_speedup\":1.5,\"best_genome\":\"g1\","
               "\"best_source\":\"psychic\",\"hints_received\":1,"
               "\"hints_adopted\":1,\"hints_rejected\":1,"
               "\"evaluations\":8,\"transport_attempts\":2,"
               "\"transport_drops\":0,\"transport_ticks\":4,"
               "\"delivered\":true}\n");

  report::LoadedRun Run = report::loadRun(Dir.str()).value();
  report::ValidationResult V = report::validateRun(Run);
  EXPECT_FALSE(V.ok());
  EXPECT_GE(V.Problems.size(), 2u);
}

TEST(RunDiff, FleetGateFlagsBestSpeedupRegressions) {
  // Two in-memory runs with one fleet cell each (Synth x4) whose final
  // best speedup drops 2.0x -> 1.5x: the fleet gate in both diffRuns and
  // fleetReport must flag the regressed direction and only that one.
  auto MakeRun = [](double Best) {
    report::LoadedRun Run;
    Run.Dir = "synth";
    Run.HasFleetLog = true;
    report::FleetStepRecord R;
    R.App = "Synth";
    R.FleetDevices = 4;
    R.BestSpeedup = Best;
    R.BestGenome = "g1";
    R.Delivered = true;
    Run.Fleet.push_back(R);
    return Run;
  };
  report::LoadedRun A = MakeRun(2.0);
  report::LoadedRun B = MakeRun(1.5);

  report::DiffResult D = report::diffRuns(A, B);
  EXPECT_EQ(D.FleetRegressions, 1);
  EXPECT_TRUE(D.regressed());
  EXPECT_NE(D.Text.find("FLEET REGRESSION"), std::string::npos);

  // Identity and the improved direction stay clean.
  EXPECT_FALSE(report::diffRuns(A, A).regressed());
  EXPECT_FALSE(report::diffRuns(B, A).regressed());

  // The standalone fleet view applies the same gate...
  EXPECT_EQ(report::fleetReport(B, &A, 0.05).Regressions, 1);
  EXPECT_EQ(report::fleetReport(A, &B, 0.05).Regressions, 0);

  // ...and a generous threshold swallows the 25% drop.
  report::DiffOptions Opt;
  Opt.FleetThreshold = 0.5;
  EXPECT_FALSE(report::diffRuns(A, B, Opt).regressed());
}

// --- bench/BenchUtil.h::parseArgs -------------------------------------------

TEST(BenchParseArgs, UnknownFlagExitsNonZeroWithUsage) {
  const char *Argv[] = {"report_tests", "--no-such-flag"};
  EXPECT_EXIT(bench::parseArgs(2, const_cast<char **>(Argv)),
              ::testing::ExitedWithCode(2), "usage:");
}

TEST(BenchParseArgs, FlagMissingValueExitsNonZero) {
  const char *Argv[] = {"report_tests", "--seed"};
  EXPECT_EXIT(bench::parseArgs(2, const_cast<char **>(Argv)),
              ::testing::ExitedWithCode(2), "usage:");
}

TEST(BenchParseArgs, ParsesReportFlag) {
  const char *Argv[] = {"report_tests", "--report", "/tmp/some-run",
                        "--jobs", "3"};
  bench::Options Opt = bench::parseArgs(5, const_cast<char **>(Argv));
  EXPECT_EQ(Opt.ReportDir, "/tmp/some-run");
  EXPECT_EQ(Opt.Jobs, 3);
}

/// True when some validation warning mentions the loader-stats check.
/// (Match by substring, not position or count: observability-off builds
/// add an unrelated warning about the absent trace/metrics files.)
static bool hasLoaderWarning(const report::ValidationResult &V) {
  for (const std::string &W : V.Warnings)
    if (W.find("pages_restored") != std::string::npos)
      return true;
  return false;
}

TEST(RunDiff, WarnsWhenFreshBackendsLostLoaderStats) {
  // A run claiming fresh (session_backends=false) backends must
  // show loader work in metrics.json: replays without pages_restored mean
  // the LoaderStats plumbing regressed (the pre-session-fix bug).
  auto MakeRun = [](TempRunDir &Dir, double PagesRestored) {
    report::RunInfo Info;
    Info.Tool = "report_tests";
    Info.SessionBackends = false;
    auto Opened = report::RunReport::open(Dir.str(), Info);
    ASSERT_TRUE(Opened.ok()) << Opened.error().Message;
    report::RunReport &RR = *Opened.value();
    RR.beginApp("App");
    report::AppOutcome Out;
    Out.Succeeded = true;
    RR.endApp(Out);
    EXPECT_TRUE(RR.finish());
    std::ofstream M(Dir.str() + "/metrics.json", std::ios::binary);
    M << "{\"counters\":{\"replay.replays\":12,\"replay.pages_restored\":"
      << PagesRestored << "},\"gauges\":{},\"histograms\":{}}\n";
  };

  TempRunDir Bad("ropt_report_fresh_noloader");
  MakeRun(Bad, 0);
  auto BadRun = report::loadRun(Bad.str());
  ASSERT_TRUE(BadRun.ok()) << BadRun.error().Message;
  EXPECT_TRUE(hasLoaderWarning(report::validateRun(BadRun.value())));

  // Control: the same run with loader work recorded draws no warning.
  TempRunDir Good("ropt_report_fresh_withloader");
  MakeRun(Good, 480);
  auto GoodRun = report::loadRun(Good.str());
  ASSERT_TRUE(GoodRun.ok()) << GoodRun.error().Message;
  EXPECT_FALSE(hasLoaderWarning(report::validateRun(GoodRun.value())));
}

TEST(RunDiff, SessionBackendRunDoesNotWarnOnZeroRestores) {
  // Sessions legitimately restore pages only once per session build, so
  // a session_backends=true run is exempt from the loader-stats check.
  TempRunDir Dir("ropt_report_session_backends");
  report::RunInfo Info;
  Info.Tool = "report_tests"; // SessionBackends defaults to true
  auto Opened = report::RunReport::open(Dir.str(), Info);
  ASSERT_TRUE(Opened.ok()) << Opened.error().Message;
  report::RunReport &RR = *Opened.value();
  RR.beginApp("App");
  report::AppOutcome Out;
  Out.Succeeded = true;
  RR.endApp(Out);
  EXPECT_TRUE(RR.finish());
  std::ofstream M(Dir.str() + "/metrics.json", std::ios::binary);
  M << "{\"counters\":{\"replay.replays\":12,\"replay.pages_restored\":0},"
       "\"gauges\":{},\"histograms\":{}}\n";
  M.close();

  auto Run = report::loadRun(Dir.str());
  ASSERT_TRUE(Run.ok()) << Run.error().Message;
  EXPECT_FALSE(hasLoaderWarning(report::validateRun(Run.value())));
}

TEST(RunReport, ReplayBackendSectionRoundTrips) {
  TempRunDir Dir("ropt_report_replay_backend");
  report::RunInfo Info;
  Info.Tool = "report_tests";
  auto Opened = report::RunReport::open(Dir.str(), Info);
  ASSERT_TRUE(Opened.ok()) << Opened.error().Message;
  report::RunReport &RR = *Opened.value();
  RR.beginApp("App");
  {
    Rng R(3);
    search::Evaluation Ok;
    Ok.Kind = search::EvalKind::Ok;
    Ok.Samples = {10.0};
    Ok.MedianCycles = 10.0;
    RR.onEvaluation(search::randomGenome(R, search::GenomeConfig{}), Ok, 0,
                    {});
  }
  report::AppOutcome Out;
  Out.Succeeded = true;
  Out.ReplayBackend.SessionsCreated = 2;
  Out.ReplayBackend.SessionReplays = 40;
  Out.ReplayBackend.DeltaResets = 40;
  Out.ReplayBackend.PagesReverted = 120;
  RR.endApp(Out);
  EXPECT_TRUE(RR.finish());

  auto Run = report::loadRun(Dir.str());
  ASSERT_TRUE(Run.ok()) << Run.error().Message;
  EXPECT_EQ(Run.value().Manifest.number("schema"), 7.0);
  const json::Value *Config = Run.value().Manifest.find("config");
  ASSERT_NE(Config, nullptr);
  EXPECT_TRUE(Config->find("session_backends") != nullptr);

  // The per-app replay_backend section survives the round trip and the
  // summarize rendering shows the replay-backend line.
  std::string Manifest = slurpFile(Dir.str() + "/manifest.json");
  EXPECT_NE(Manifest.find("\"replay_backend\""), std::string::npos);
  EXPECT_NE(Manifest.find("\"session_replays\":40"), std::string::npos);
  std::string Summary = report::summarize(Run.value());
  EXPECT_NE(Summary.find("replay backend"), std::string::npos);
  EXPECT_NE(Summary.find("40 session replays"), std::string::npos);
}
