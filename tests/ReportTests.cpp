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
#include "support/Json.h"

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
  EXPECT_TRUE(Arr->elements()[2].find("k")->isNull());
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(json::parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(json::parse("{\"a\":}").ok());
  EXPECT_FALSE(json::parse("[1,]").ok());
  EXPECT_FALSE(json::parse("").ok());
  EXPECT_FALSE(json::parse("\"unterminated").ok());
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
  EXPECT_TRUE(V.Warnings.empty());

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

// --- Older-schema run directories -------------------------------------------
//
// Run directories written before measurement racing and the fleet layer
// (manifest schema 1, no racing block, no fleet section, no fleet.jsonl)
// must still load, validate without problems, summarize and diff.

namespace {

void writeRawFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Content;
  ASSERT_TRUE(Out.good()) << "cannot write " << Path;
}

/// A minimal schema-1 run directory, as the pre-racing pre-fleet tool
/// wrote them: evaluation records without racing provenance fields, app
/// manifest entries without "racing", no fleet artifacts at all.
void synthesizeSchema1Run(const std::string &Dir) {
  std::filesystem::create_directories(Dir);
  writeRawFile(
      Dir + "/manifest.json",
      "{\"schema\":1,\"tool\":\"synth_v1\",\"git\":\"deadbee\","
      "\"seed\":1,\"jobs\":1,\"fast\":false,"
      "\"config\":{\"generations\":2,\"population\":4},"
      "\"wall_seconds\":0.5,\"evaluations\":2,"
      "\"apps\":[{\"name\":\"Synth\",\"succeeded\":true,\"failure\":null,"
      "\"verdicts\":{\"ok\":1,\"compile_error\":0,\"runtime_crash\":1,"
      "\"runtime_timeout\":0,\"wrong_output\":0,\"total\":2},"
      "\"cache\":{\"genome_hits\":0,\"binary_hits\":0,\"misses\":2,"
      "\"hit_rate\":0},"
      "\"region_android_cycles\":200,\"region_o3_cycles\":150,"
      "\"region_best_cycles\":100,"
      "\"speedup_ga_over_android\":2,\"speedup_ga_over_o3\":1.5}],"
      "\"totals\":{\"verdicts\":{\"ok\":1,\"total\":2},"
      "\"cache\":{\"misses\":2}}}");
  writeRawFile(
      Dir + "/evaluations.jsonl",
      "{\"id\":1,\"app\":\"Synth\",\"gen\":0,\"genome\":\"g1\","
      "\"parents\":[],\"verdict\":\"ok\",\"error\":null,"
      "\"cache\":\"miss\",\"median_cycles\":100,\"ci_low\":99,"
      "\"ci_high\":101,\"samples\":[100],\"code_size\":10,"
      "\"binary_hash\":\"0x0000000000000001\"}\n"
      "{\"id\":2,\"app\":\"Synth\",\"gen\":0,\"genome\":\"g2\","
      "\"parents\":[1],\"verdict\":\"runtime-crash\","
      "\"error\":\"replay-crash\",\"cache\":\"miss\","
      "\"median_cycles\":0,\"ci_low\":0,\"ci_high\":0,\"samples\":[],"
      "\"code_size\":0,\"binary_hash\":\"0x0000000000000000\"}\n");
  writeRawFile(Dir + "/generations.jsonl",
               "{\"app\":\"Synth\",\"gen\":0,\"evaluations\":2,"
               "\"invalid\":1,\"best_cycles\":100,\"worst_cycles\":100,"
               "\"mean_cycles\":100}\n");
}

} // namespace

TEST(RunDiff, ToleratesPreFleetSchema1RunDirectories) {
  TempRunDir Dir("ropt_schema1");
  synthesizeSchema1Run(Dir.str());

  support::Result<report::LoadedRun> Loaded = report::loadRun(Dir.str());
  ASSERT_TRUE(Loaded.ok()) << Loaded.error().Message;
  const report::LoadedRun &Run = Loaded.value();
  EXPECT_FALSE(Run.HasFleetLog);
  EXPECT_TRUE(Run.Fleet.empty());

  // Missing racing/fleet sections are at most warnings, never problems.
  report::ValidationResult V = report::validateRun(Run);
  EXPECT_TRUE(V.ok()) << (V.Problems.empty() ? "" : V.Problems.front());
  EXPECT_TRUE(V.Warnings.empty());

  // Summarize must not crash on the missing racing block or fleet data.
  std::string Summary = report::summarize(Run);
  EXPECT_NE(Summary.find("Synth"), std::string::npos);
  EXPECT_EQ(Summary.find("replay budget"), std::string::npos);
  EXPECT_EQ(Summary.find("fleet"), std::string::npos);

  // Diffing a schema-1 baseline against a current-schema run works: the
  // gate only needs the evaluation stream both schemas share.
  TempRunDir NewDir("ropt_schema2_vs_1");
  synthesizeRun(NewDir.str(), {100.0}, 1);
  report::LoadedRun NewRun = report::loadRun(NewDir.str()).value();
  report::DiffResult D = report::diffRuns(Run, NewRun);
  EXPECT_FALSE(D.regressed());
  EXPECT_FALSE(report::diffRuns(Run, Run).regressed());
}

TEST(RunDiff, WarnsButDoesNotFailOnFleetArtifactMismatch) {
  TempRunDir Dir("ropt_fleet_mismatch");
  synthesizeSchema1Run(Dir.str());
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
  ASSERT_FALSE(V.Warnings.empty());
  EXPECT_NE(V.Warnings.front().find("fleet"), std::string::npos);
}

TEST(RunDiff, FlagsInternallyInconsistentFleetRecords) {
  TempRunDir Dir("ropt_fleet_bad");
  synthesizeSchema1Run(Dir.str());
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
    report::FleetRecord R;
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
  // A schema-6 run claiming fresh (session_backends=false) backends must
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
