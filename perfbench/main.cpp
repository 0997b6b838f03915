//===- perfbench/main.cpp - The pipeline benchmark ------------------------===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
// Runs one workload through the public pipeline entry points and prints
// its metrics. See perfbench/WORKLOADS.md for why each workload exists.
//
//   pipeline_bench --workload NAME --seed N --trace 0|1 [--out DIR]
//
// --trace 0 (timed run): times the workload's set-up in blocks of
// repetitions, runs the timed section (every app's
// IterativeCompiler::optimize, or the fleet cell's Coordinator::run) once,
// checks the results against the interpreter and prints the end-to-end
// metrics.
//
// --trace 1 (traced run): one untraced pass, then one pass that drives the
// pipeline's phases itself through decorated engine backends (or, for the
// fleet, a counting transport), and prints the per-layer metrics. The two
// passes' result digests must match byte for byte.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit status is 1 when a correctness check failed.
//
//===----------------------------------------------------------------------===//

#include "Check.h"
#include "Probes.h"
#include "Spans.h"

#include "analysis/RegionAnalysis.h"
#include "core/IterativeCompiler.h"
#include "fleet/Coordinator.h"
#include "support/Json.h"
#include "support/Statistics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

using namespace ropt;
using namespace ropt::perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  bool Trace = false;
  std::string OutDir = ".";
};

[[noreturn]] void usage(const char *Argv0, const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: %s --workload ga_compile|suite_short|"
               "fleet_install_base --seed N --trace 0|1 [--out DIR]\n",
               Why, Argv0);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    if (I + 1 >= Argc)
      usage(Argv[0], "every flag takes a value");
    const char *Flag = Argv[I];
    const char *V = Argv[++I];
    char *End = nullptr;
    if (!std::strcmp(Flag, "--workload"))
      A.Workload = V;
    else if (!std::strcmp(Flag, "--seed"))
      A.Seed = std::strtoull(V, &End, 10);
    else if (!std::strcmp(Flag, "--trace"))
      A.Trace = std::strtol(V, &End, 10) != 0;
    else if (!std::strcmp(Flag, "--out"))
      A.OutDir = V;
    else
      usage(Argv[0], "unknown flag");
    if (End && (End == V || *End != '\0'))
      usage(Argv[0], "malformed number");
  }
  if (A.Workload.empty())
    usage(Argv[0], "missing --workload");
  return A;
}

using AppBuilder = workloads::Application (*)();

/// One benchmark workload: an app set under a pipeline configuration, or
/// a fleet cell.
struct Workload {
  std::string Name;
  std::vector<AppBuilder> Apps; ///< Builders, in Table-1 order.
  core::PipelineConfig Config;
  bool Fleet = false;
  fleet::FleetOptions FleetOpt;
  /// Set-ups per timed block, about 20 ms of work on a 4-core host.
  int SetupReps = 0;
};

/// Every workload is a closed loop over a 2-worker evaluation engine.
constexpr int Jobs = 2;
/// The fleet population: the smallest that gets install-base budgets.
constexpr int FleetDevices = 500;

Workload makeWorkload(const Args &A) {
  using namespace workloads;
  Workload W;
  W.Name = A.Workload;
  // Paper defaults: racing off, sessions on, memoize on, analysis off.
  W.Config = core::PipelineConfig::paperDefaults();
  W.Config.Seed = A.Seed;
  W.Config.Search.Jobs = Jobs;
  if (W.Name == "ga_compile") {
    // Apps whose search is dominated by compile time (WORKLOADS.md).
    W.Apps = {buildFFT,           buildLinpack,          buildFibonacciRecv,
              buildColorOverflow, buildSvarkaCalculator, buildReversi};
    W.SetupReps = 600;
  } else if (W.Name == "suite_short") {
    // The harnesses' --fast GA over the suite, minus Fibonacci.iter and
    // Dhrystone: their searches can adopt aggressive genes that pass
    // replay verification but return wrong values on the measured
    // sessions (6 of 10 seeds, and 4 of about 70), which the benchmark's
    // check rejects (WORKLOADS.md).
    W.Apps = {buildFFT,           buildSOR,          buildMonteCarlo,
              buildSparseMatmult, buildLU,           buildSieve,
              buildBubbleSort,    buildSelectionSort, buildLinpack,
              buildFibonacciRecv, buildMaterialLife, buildFourInARow,
              buildDroidFish,     buildColorOverflow, buildBrainstonz,
              buildBlokish,       buildSvarkaCalculator, buildReversi,
              buildPokerOdds};
    W.SetupReps = 100;
    W.Config.Search.GA.Generations = 4;
    W.Config.Search.GA.PopulationSize = 12;
    W.Config.Search.GA.HillClimbRounds = 1;
    W.Config.Search.MaxReplaysPerEvaluation = 5;
  } else if (W.Name == "fleet_install_base") {
    // bench/fleet_scale at install-base scale: Sieve, 3 steps, 24 device
    // classes, install-base per-step budgets, the lossy paper network.
    W.Fleet = true;
    W.Apps = {buildSieve};
    W.SetupReps = 3000;
    W.Config.Search.GA.Generations = 1;
    W.Config.Search.GA.PopulationSize = 4;
    W.Config.Search.GA.HillClimbRounds = 0;
    W.Config.Search.MaxReplaysPerEvaluation = 3;
    W.FleetOpt = fleet::FleetOptions::paperDefaults();
    W.FleetOpt.Devices = FleetDevices;
    W.FleetOpt.Rounds = 3;
    W.FleetOpt.ProfileClasses = 24;
    W.FleetOpt.Jobs = Jobs;
    W.FleetOpt.Seed = A.Seed;
  } else {
    usage("pipeline_bench", "unknown workload");
  }
  return W;
}

/// Builds the workload's apps, and only those.
std::vector<workloads::Application> buildApps(const Workload &W) {
  std::vector<workloads::Application> Out;
  for (AppBuilder Build : W.Apps)
    Out.push_back(Build());
  return Out;
}

/// A fleet cell's server, network and coordinator. Built fresh for every
/// run: the server accumulates leaderboard state.
struct FleetCell {
  explicit FleetCell(const Workload &W)
      : Net(W.FleetOpt.Net, W.Config.Seed), Co(W.FleetOpt, W.Config) {}
  fleet::Server Srv;
  fleet::SimTransport Net;
  fleet::Coordinator Co;
};

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) / 1e6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : Xs)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(Xs.size()));
}

std::vector<core::OptimizationReport>
optimizeAll(const Workload &W,
            const std::vector<workloads::Application> &Apps) {
  std::vector<core::OptimizationReport> Out;
  for (const workloads::Application &App : Apps) {
    core::IterativeCompiler Pipeline(W.Config);
    Out.push_back(Pipeline.optimize(App));
  }
  return Out;
}

/// Metrics in print order, rendered once as text lines and once as the
/// result line's "metrics" object.
class MetricSet {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Rows.push_back({Name, Value, Unit});
  }

  void printText() const {
    for (const Row &R : Rows)
      std::printf("  %-28s %16.6f %s\n", R.Name.c_str(), R.Value,
                  R.Unit.c_str());
  }

  std::string json() const {
    json::Builder B;
    for (const Row &R : Rows) {
      json::Builder M;
      M.field("value", R.Value).field("unit", R.Unit);
      B.fieldRaw(R.Name.c_str(), std::move(M).str());
    }
    return std::move(B).str();
  }

private:
  struct Row {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Row> Rows;
};

int finish(bool Correct, uint64_t Attempted, uint64_t Failed,
           const MetricSet &Metrics) {
  json::Builder B;
  B.field("correct", Correct)
      .field("attempted", Attempted)
      .field("failed", Failed)
      .fieldRaw("metrics", Metrics.json());
  std::printf("%s\n", std::move(B).str().c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

void writeText(const std::string &Path, const std::string &Text) {
  if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
    std::fputs(Text.c_str(), F);
    std::fclose(F);
  }
}

/// Checks every result of one pass and prints the per-unit verdicts.
/// Returns the number of units (apps, or the one fleet cell) that failed.
uint64_t checkResults(const Workload &W,
                      const std::vector<workloads::Application> &Apps,
                      const std::vector<core::OptimizationReport> &Reports,
                      const fleet::FleetResult *Fleet,
                      const FleetCell *Cell) {
  uint64_t Failed = 0;
  if (Fleet) {
    std::string Err =
        checkFleetResult(Apps.front(), *Fleet, Cell->Srv, W.Config, 3);
    std::printf("check %-22s %s\n", Apps.front().Name.c_str(),
                Err.empty() ? "ok" : Err.c_str());
    return Err.empty() ? 0 : 1;
  }
  for (size_t I = 0; I != Reports.size(); ++I) {
    std::string Err = checkGaReport(Apps[I], Reports[I], W.Config);
    Failed += !Err.empty();
    if (!Err.empty())
      std::printf("check %-22s FAILED: %s\n", Apps[I].Name.c_str(),
                  Err.c_str());
  }
  std::printf("check: %llu of %zu apps failed\n",
              static_cast<unsigned long long>(Failed), Reports.size());
  return Failed;
}

void printSpeedups(const std::vector<core::OptimizationReport> &Reports) {
  std::printf("%-22s %9s %9s %6s %6s %s\n", "application", "LLVM -O3",
              "LLVM GA", "evals", "misses", "halted");
  for (const core::OptimizationReport &R : Reports)
    if (R.Succeeded)
      std::printf("%-22s %8.2fx %8.2fx %6d %6llu %s\n", R.AppName.c_str(),
                  R.speedupO3OverAndroid(), R.speedupGaOverAndroid(),
                  R.Counters.total(),
                  static_cast<unsigned long long>(R.CacheStats.Misses),
                  R.Trace.HaltedOnIdentical ? "yes" : "no");
    else
      std::printf("%-22s  FAILED: %s\n", R.AppName.c_str(),
                  R.FailureReason.c_str());
}

// --- Timed run ---------------------------------------------------------------

/// One set-up takes well under a millisecond, too short for one interval
/// to be timed steadily. Set-up is timed in blocks of W.SetupReps
/// repetitions; the reported time is the median block's time per set-up.
constexpr int SetupBlocks = 11;

/// Builds the apps (and, for the fleet, the cell objects) SetupBlocks x
/// W.SetupReps times; returns the median block's seconds per set-up.
double timeSetup(const Workload &W,
                 std::vector<workloads::Application> &Apps) {
  std::vector<double> PerSetup;
  for (int B = 0; B != SetupBlocks; ++B) {
    Clock::time_point T0 = Clock::now();
    for (int I = 0; I != W.SetupReps; ++I) {
      Apps = buildApps(W);
      if (W.Fleet)
        FleetCell Cell(W);
    }
    PerSetup.push_back(msSince(T0) / 1e3 / W.SetupReps);
  }
  return median(PerSetup);
}

int runTimed(const Workload &W, const Args &A) {
  std::vector<workloads::Application> Apps;
  double SetupS = timeSetup(W, Apps);

  // The timed section runs once: the seed panel in run.py sets how much
  // work a timed run measures.
  std::unique_ptr<FleetCell> Cell;
  if (W.Fleet)
    Cell = std::make_unique<FleetCell>(W);
  std::vector<core::OptimizationReport> Reports;
  std::optional<fleet::FleetResult> Fleet;
  double Cpu0 = cpuSeconds();
  Clock::time_point T0 = Clock::now();
  if (W.Fleet)
    Fleet = Cell->Co.run(Apps.front().Name, Cell->Srv, Cell->Net);
  else
    Reports = optimizeAll(W, Apps);
  double WallS = msSince(T0) / 1e3;
  double CpuS = cpuSeconds() - Cpu0;
  double PeakRss = peakRssMb();

  std::printf("workload %s: seed %llu, jobs %d\n", W.Name.c_str(),
              static_cast<unsigned long long>(A.Seed), Jobs);
  double Speedup = 0.0;
  if (W.Fleet) {
    Speedup = Fleet->BestSpeedup;
    std::printf("fleet %s: %d devices, best %.3fx (%s)\n",
                Fleet->AppName.c_str(), Fleet->Devices, Speedup,
                Fleet->BestGenome.c_str());
  } else {
    std::vector<double> Xs;
    for (const core::OptimizationReport &R : Reports)
      if (R.Succeeded)
        Xs.push_back(R.speedupGaOverAndroid());
    Speedup = geomean(Xs);
    printSpeedups(Reports);
  }
  uint64_t Attempted = W.Fleet ? 1 : Apps.size();
  uint64_t Failed =
      checkResults(W, Apps, Reports, Fleet ? &*Fleet : nullptr, Cell.get());

  std::string Digest = Fleet ? Fleet->digest() : gaDigestText(Reports);
  writeText(A.OutDir + "/" + W.Name + ".digest.txt", Digest);
  std::printf("result_digest %s\n", hashHex(Digest).c_str());

  MetricSet M;
  M.add("wall_s", WallS, "s");
  M.add("cpu_s", CpuS, "s");
  M.add("peak_rss_mb", PeakRss, "MiB");
  M.add("setup_s", SetupS, "s");
  M.add("speedup_ga_geomean", Speedup, "x");
  std::printf("end-to-end metrics:\n");
  M.printText();
  std::printf("  %-28s %16.6f %s\n", "failed_ratio",
              static_cast<double>(Failed) / static_cast<double>(Attempted),
              "ratio");
  return finish(Failed == 0, Attempted, Failed, M);
}

// --- Traced run --------------------------------------------------------------

/// One app's traced state: its per-worker backend stats and what the
/// compile-stage probe needs to re-run its compiles.
struct AppTrace {
  const workloads::Application *App = nullptr;
  std::vector<dex::MethodId> Methods;
  lir::TypeProfile Profile; ///< Merged across captures, as the backends use.
  std::vector<std::unique_ptr<BackendStats>> Backends;
};

/// Everything the traced GA pass accumulates across apps.
struct GaTraceState {
  std::mutex M;
  std::deque<AppTrace> Apps; ///< Stable addresses while backends run.
  uint64_t Batches = 0;
  uint64_t CapturePages = 0;
};

/// IterativeCompiler::optimize, phase by phase, through the public pieces
/// it is built from, with spans around each phase and decorators on the
/// engine's backends and on the evaluator GeneticSearch sees. Supports the
/// configurations this benchmark runs (no analysis-guided budgets, no
/// forced region root); a digest mismatch against optimize() exposes any
/// drift.
core::OptimizationReport mirrorOptimize(const core::PipelineConfig &Config,
                                        const workloads::Application &App,
                                        SpanLog &Log, GaTraceState &State) {
  core::OptimizationReport Report;
  Report.AppName = App.Name;
  Span Root(Log, "core.optimize", -1, App.Name);
  core::IterativeCompiler Pipeline(Config);

  core::IterativeCompiler::ProfiledApp Profiled = [&] {
    Span S(Log, "core.profile", Root.id(), App.Name);
    return Pipeline.profileApp(App);
  }();
  Report.Breakdown = Profiled.Breakdown;
  Report.Analysis =
      analysis::analyzeApp(*App.File, Profiled.Profile, Profiled.RA);
  if (!Profiled.Region) {
    Report.FailureReason = "no replayable hot region";
    return Report;
  }
  Report.Region = *Profiled.Region;

  std::vector<core::CapturedRegion> Captures = [&] {
    Span S(Log, "core.capture", Root.id(), App.Name);
    return Pipeline.captureRegionMulti(
        *Profiled.Instance, Report.Region,
        std::max(1, Config.Capture.CapturesPerRegion));
  }();
  if (Captures.empty()) {
    Report.FailureReason = "capture failed";
    return Report;
  }
  Report.Cap = Captures.front().Cap;
  Report.CapturePostponements = Captures.front().Postponements;

  AppTrace *Trace;
  {
    std::lock_guard<std::mutex> Lock(State.M);
    State.Apps.emplace_back();
    Trace = &State.Apps.back();
  }
  Trace->App = &App;
  Trace->Methods = Report.Region.Methods;
  for (const core::CapturedRegion &C : Captures) {
    Trace->Profile.merge(C.Profile);
    State.CapturePages += C.Cap.Pages.size();
  }

  core::RegionEvaluator Baselines(App, Report.Region, Captures, Config);
  search::EngineOptions EngineOpts;
  EngineOpts.Jobs = Config.Search.Jobs;
  EngineOpts.Memoize = Config.Search.Memoize;
  EngineOpts.Racing = Config.Search.Racing;
  EngineOpts.MinReplays = Config.Search.MinReplaysPerEvaluation;
  EngineOpts.MaxReplays = Config.Search.MaxReplaysPerEvaluation;
  EngineOpts.RacingAlpha = Config.Search.GA.SignificanceAlpha;
  std::atomic<int> CurrentBatch{-1};
  search::EvaluationEngine Engine(
      [&]() -> std::unique_ptr<search::EvalBackend> {
        std::lock_guard<std::mutex> Lock(State.M);
        Trace->Backends.push_back(std::make_unique<BackendStats>());
        return std::make_unique<TimedBackend>(
            std::make_unique<core::RegionEvaluator>(App, Report.Region,
                                                    Captures, Config),
            *Trace->Backends.back(), Log, CurrentBatch, App.Name);
      },
      EngineOpts, Config.Seed);

  search::Evaluation Android, O3;
  {
    Span S(Log, "core.baselines", Root.id(), App.Name);
    Android = Baselines.evaluateAndroid();
    O3 = Baselines.evaluatePipeline(lir::o3Pipeline());
  }
  if (!Android.ok()) {
    Report.FailureReason = "android baseline replay failed";
    return Report;
  }
  Report.RegionAndroid = Android.MedianCycles;
  Report.RegionO3 = O3.ok() ? O3.MedianCycles : 0.0;

  std::optional<search::Scored> Best;
  {
    Span S(Log, "search.run", Root.id(), App.Name);
    TimedBatch Batches(Engine, Log, CurrentBatch, S.id(), App.Name);
    search::GeneticSearch GA(Config.Search.GA, Config.Seed ^ 0x6a5e, Batches,
                             nullptr);
    if (!Config.Search.WarmStart.empty())
      GA.seedPopulation(Config.Search.WarmStart);
    Best = GA.run(Android.MedianCycles,
                  O3.ok() ? O3.MedianCycles : Android.MedianCycles,
                  &Report.Trace);
    State.Batches += Batches.batches();
  }
  Report.Counters = Engine.counters();
  Report.Counters += Baselines.counters();
  Report.CacheStats = Engine.cacheStats();
  Report.RacingStats = Engine.racingStats();
  Report.ReplayBackend = Engine.replayBackendStats();
  Report.ReplayBackend += Baselines.replayStats();
  if (!Best) {
    Report.FailureReason = "search produced no valid binary";
    return Report;
  }
  Report.Best = *Best;
  Report.RegionBest = Best->E.MedianCycles;

  // Phase 5: install the winner and O3, measure three whole-program
  // session blocks outside the replay environment.
  Span Install(Log, "core.install", Root.id(), App.Name);
  std::optional<vm::CodeCache> BestCode = Baselines.compileRegion(Best->G);
  if (!BestCode) {
    Report.FailureReason = "winning genome stopped compiling";
    return Report;
  }
  lir::CompileOptions O3Options;
  O3Options.Pipeline = lir::o3Pipeline();
  vm::CodeCache O3Code;
  lir::compileAllLlvm(*App.File, Report.Region.Methods, O3Options, O3Code,
                      &Captures.front().Profile);
  Rng NoiseRng(Config.Seed ^ 0x0911e);
  auto MeasureVariant =
      [&](const vm::CodeCache *Override) -> std::vector<double> {
    core::AppInstance Fresh(App, Config.Seed + 7);
    if (Override)
      Fresh.overrideRegionCode(Report.Region.Methods, *Override);
    uint64_t Block = Fresh.runSessionBlock(Config.Measure.FinalSessionBlock,
                                           App.DefaultParam);
    if (Block == 0)
      return {};
    std::vector<double> Samples;
    for (int I = 0; I != Config.Measure.FinalMeasurementRuns; ++I)
      Samples.push_back(Config.Measure.Noise.online(
          NoiseRng, static_cast<double>(Block)));
    return Samples;
  };
  Report.WholeAndroid = MeasureVariant(nullptr);
  Report.WholeO3 = MeasureVariant(&O3Code);
  Report.WholeGa = MeasureVariant(&*BestCode);
  Report.Succeeded = !Report.WholeAndroid.empty() && !Report.WholeGa.empty();
  if (!Report.Succeeded)
    Report.FailureReason = "final measurement failed";
  return Report;
}

/// Every per-layer metric, in print order. Each traced run prints all of
/// them; a layer a workload does not reach reads 0.
const std::vector<std::pair<const char *, const char *>> &perLayerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> Names = {
      {"workloads.build_ms", "ms"},
      {"core.profile_ms", "ms"},
      {"core.capture_ms", "ms"},
      {"core.baselines_ms", "ms"},
      {"core.install_ms", "ms"},
      {"core.online_share", "ratio"},
      {"capture.pages", "count"},
      {"search.batch_ms", "ms"},
      {"search.batches", "count"},
      {"search.compile_calls", "count"},
      {"search.compile_ms", "ms"},
      {"search.measure_calls", "count"},
      {"search.measure_ms", "ms"},
      {"search.worker_busy_ratio", "ratio"},
      {"search.genome_hits", "count"},
      {"search.binary_hits", "count"},
      {"search.misses", "count"},
      {"search.binary_hit_ratio", "ratio"},
      {"search.evaluations", "count"},
      {"search.ok_ratio", "ratio"},
      {"search.replays_spent", "count"},
      {"hgraph.build_us", "us"},
      {"lir.translate_us", "us"},
      {"lir.passes_us", "us"},
      {"lir.verify_us", "us"},
      {"lir.codegen_us", "us"},
      {"lir.ir_insns_in", "count"},
      {"lir.ir_insns_out", "count"},
      {"lir.genomes_probed", "count"},
      {"lir.status_mismatch", "count"},
      {"replay.vcycles_per_s", "1/s"},
      {"replay.sessions_created", "count"},
      {"replay.delta_resets", "count"},
      {"replay.pages_per_reset", "count"},
      {"replay.full_rebuilds", "count"},
      {"fleet.run_ms", "ms"},
      {"fleet.steps", "count"},
      {"fleet.evaluations", "count"},
      {"fleet.cache_hit_ratio", "ratio"},
      {"fleet.hints_published", "count"},
      {"fleet.hints_adopted", "count"},
      {"fleet.hints_rejected", "count"},
      {"fleet.transport_attempts", "count"},
      {"fleet.transport_drops", "count"},
      {"fleet.transport_us", "us"},
      {"fleet.virtual_ticks", "vticks"},
      {"bench.untraced_wall_s", "s"},
      {"bench.traced_wall_s", "s"},
      {"bench.trace_overhead_s", "s"},
      {"bench.digest_match", "count"},
  };
  return Names;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// The engine-level counts shared by both pass kinds.
void addSearchCounts(std::map<std::string, double> &V,
                     const search::EngineCounters &C,
                     const search::EngineCacheStats &Cache,
                     const search::EngineRacingStats &Racing,
                     const search::ReplayBackendStats &Replay) {
  V["search.genome_hits"] = static_cast<double>(Cache.GenomeHits);
  V["search.binary_hits"] = static_cast<double>(Cache.BinaryHits);
  V["search.misses"] = static_cast<double>(Cache.Misses);
  V["search.binary_hit_ratio"] =
      ratio(static_cast<double>(Cache.BinaryHits),
            static_cast<double>(Cache.BinaryHits + Cache.Misses));
  V["search.evaluations"] = C.total();
  V["search.ok_ratio"] = ratio(C.Ok, C.total());
  V["search.replays_spent"] = static_cast<double>(Racing.ReplaysSpent);
  V["replay.sessions_created"] = static_cast<double>(Replay.SessionsCreated);
  V["replay.delta_resets"] = static_cast<double>(Replay.DeltaResets);
  V["replay.pages_per_reset"] = Replay.pagesPerReset();
  V["replay.full_rebuilds"] = static_cast<double>(Replay.FullRebuilds);
}

int runTraced(const Workload &W, const Args &A) {
  SpanLog Log;
  std::map<std::string, double> V;
  std::vector<workloads::Application> Apps;
  {
    Span S(Log, "workloads.build");
    Apps = buildApps(W);
  }
  V["workloads.build_ms"] = Log.totalMs("workloads.build");

  // Untraced pass: the timed section exactly as the timed run measures it.
  std::vector<core::OptimizationReport> Plain;
  std::unique_ptr<FleetCell> PlainCell;
  std::optional<fleet::FleetResult> PlainFleet;
  Clock::time_point T0 = Clock::now();
  if (W.Fleet) {
    PlainCell = std::make_unique<FleetCell>(W);
    T0 = Clock::now();
    PlainFleet =
        PlainCell->Co.run(Apps.front().Name, PlainCell->Srv, PlainCell->Net);
  } else {
    Plain = optimizeAll(W, Apps);
  }
  double Untraced = msSince(T0) / 1e3;
  std::string PlainDigest =
      W.Fleet ? PlainFleet->digest() : gaDigestText(Plain);
  // Check now and release the untraced pass's state, so the traced pass
  // starts from the same heap the untraced one did.
  uint64_t Failed = checkResults(W, Apps, Plain,
                                 PlainFleet ? &*PlainFleet : nullptr,
                                 PlainCell.get());
  Plain.clear();
  PlainFleet.reset();
  PlainCell.reset();

  // Traced pass.
  std::string TracedDigest;
  double Traced;
  GaTraceState State;
  if (W.Fleet) {
    FleetCell Cell(W);
    CountingTransport Net(Cell.Net);
    T0 = Clock::now();
    fleet::FleetResult R = [&] {
      Span S(Log, "fleet.run", -1, Apps.front().Name);
      return Cell.Co.run(Apps.front().Name, Cell.Srv, Net);
    }();
    Traced = msSince(T0) / 1e3;
    TracedDigest = R.digest();
    V["fleet.run_ms"] = Log.totalMs("fleet.run");
    V["fleet.steps"] = static_cast<double>(R.Log.size());
    V["fleet.evaluations"] = R.Counters.total();
    V["fleet.cache_hit_ratio"] =
        ratio(static_cast<double>(R.Cache.hits()),
              static_cast<double>(R.Cache.hits() + R.Cache.Misses));
    V["fleet.hints_published"] = static_cast<double>(R.HintsPublished);
    V["fleet.hints_adopted"] = static_cast<double>(R.HintsAdopted);
    V["fleet.hints_rejected"] = static_cast<double>(R.HintsRejected);
    V["fleet.transport_attempts"] = static_cast<double>(Net.Attempts);
    V["fleet.transport_drops"] = static_cast<double>(Net.Drops);
    V["fleet.transport_us"] = Net.BusyUs;
    V["fleet.virtual_ticks"] = static_cast<double>(R.VirtualDuration);
    addSearchCounts(V, R.Counters, R.Cache, R.Racing, R.ReplayBackend);
  } else {
    std::vector<core::OptimizationReport> Reports;
    T0 = Clock::now();
    for (const workloads::Application &App : Apps)
      Reports.push_back(mirrorOptimize(W.Config, App, Log, State));
    Traced = msSince(T0) / 1e3;
    TracedDigest = gaDigestText(Reports);

    search::EngineCounters C;
    search::EngineCacheStats Cache;
    search::EngineRacingStats Racing;
    search::ReplayBackendStats Replay;
    for (const core::OptimizationReport &R : Reports) {
      C += R.Counters;
      Cache.GenomeHits += R.CacheStats.GenomeHits;
      Cache.BinaryHits += R.CacheStats.BinaryHits;
      Cache.Misses += R.CacheStats.Misses;
      Racing.ReplaysSpent += R.RacingStats.ReplaysSpent;
      Replay += R.ReplayBackend;
    }
    addSearchCounts(V, C, Cache, Racing, Replay);

    BackendStats All;
    for (const AppTrace &T : State.Apps)
      for (const std::unique_ptr<BackendStats> &B : T.Backends)
        All.merge(*B);
    V["core.profile_ms"] = Log.totalMs("core.profile");
    V["core.capture_ms"] = Log.totalMs("core.capture");
    V["core.baselines_ms"] = Log.totalMs("core.baselines");
    V["core.install_ms"] = Log.totalMs("core.install");
    V["capture.pages"] = static_cast<double>(State.CapturePages);
    V["search.batch_ms"] = Log.totalMs("search.batch");
    V["search.batches"] = static_cast<double>(State.Batches);
    V["search.compile_calls"] = static_cast<double>(All.CompileCalls);
    V["search.compile_ms"] = All.CompileMs;
    V["search.measure_calls"] = static_cast<double>(All.MeasureCalls);
    V["search.measure_ms"] = All.MeasureMs;
    V["search.worker_busy_ratio"] =
        ratio(All.CompileMs + All.MeasureMs,
              V["search.batch_ms"] * Jobs);
    V["replay.vcycles_per_s"] =
        ratio(All.VirtualCycles, All.OkMeasureMs / 1e3);

    // Compile-stage probe: every distinct genome each app compiled, re-run
    // one stage at a time with the same budget and merged type profile.
    CompileStageStats Stages;
    for (const AppTrace &T : State.Apps) {
      std::map<std::string, std::pair<search::Genome, bool>> Distinct;
      for (const std::unique_ptr<BackendStats> &B : T.Backends)
        Distinct.insert(B->Compiled.begin(), B->Compiled.end());
      for (const auto &KV : Distinct)
        probeCompile(*T.App->File, T.Methods, KV.second.first,
                     W.Config.Search.CompileSizeBudget, T.Profile,
                     KV.second.second, Stages);
    }
    double Methods = static_cast<double>(Stages.Methods);
    V["hgraph.build_us"] = ratio(Stages.BuildUs, Methods);
    V["lir.translate_us"] = ratio(Stages.TranslateUs, Methods);
    V["lir.passes_us"] = ratio(Stages.PassesUs, Methods);
    V["lir.verify_us"] = ratio(Stages.VerifyUs, Methods);
    V["lir.codegen_us"] = ratio(Stages.CodegenUs, Methods);
    V["lir.ir_insns_in"] = ratio(static_cast<double>(Stages.InsnsIn), Methods);
    V["lir.ir_insns_out"] =
        ratio(static_cast<double>(Stages.InsnsOut),
              static_cast<double>(Stages.PipelinesDone));
    V["lir.genomes_probed"] = static_cast<double>(Stages.Genomes);
    V["lir.status_mismatch"] = static_cast<double>(Stages.StatusMismatch);
  }
  V["core.online_share"] =
      ratio(V["core.profile_ms"] + V["core.capture_ms"] + V["core.install_ms"],
            Untraced * 1e3);
  V["bench.untraced_wall_s"] = Untraced;
  V["bench.traced_wall_s"] = Traced;
  V["bench.trace_overhead_s"] = Traced - Untraced;
  bool DigestMatch = TracedDigest == PlainDigest;
  V["bench.digest_match"] = DigestMatch ? 1.0 : 0.0;

  std::printf("workload %s: seed %llu, traced run, jobs %d\n",
              W.Name.c_str(), static_cast<unsigned long long>(A.Seed), Jobs);
  std::printf("result_digest %s (untraced) %s (traced)\n",
              hashHex(PlainDigest).c_str(), hashHex(TracedDigest).c_str());
  std::string SpanPath = A.OutDir + "/" + W.Name + ".spans.jsonl";
  if (Log.writeJsonl(SpanPath))
    std::printf("spans: %s\n", SpanPath.c_str());

  uint64_t Attempted = W.Fleet ? 1 : Apps.size();
  if (!DigestMatch)
    std::printf("traced digest differs from the untraced run\n");
  if (V["lir.status_mismatch"] != 0)
    std::printf("compile-stage probe disagrees with the real compile\n");

  MetricSet M;
  for (const auto &[Name, Unit] : perLayerMetrics())
    M.add(Name, V[Name], Unit);
  std::printf("per-layer metrics:\n");
  M.printText();
  bool Correct = Failed == 0 && DigestMatch && V["lir.status_mismatch"] == 0;
  return finish(Correct, Attempted, Failed, M);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  Workload W = makeWorkload(A);
  return A.Trace ? runTraced(W, A) : runTimed(W, A);
}
