//===- core/IterativeCompiler.h - The replay-based main loop ----*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The system of Figure 6, end to end: profile online -> detect the hot
/// region -> capture transparently -> interpreted replay (verification map
/// + type profile) -> GA over the LLVM transformation space with
/// replay-based fitness and verification-map rejection -> install the best
/// binary -> measure whole-program speedups outside the replay
/// environment.
///
/// A search is set up in two steps. IterativeCompiler::captureInputs
/// captures the profiled app's hot region into SearchInputs (captures,
/// verification maps, type profiles, and the witness of what they depend
/// on); IterativeCompiler::prepareSearch builds a RegionSearch from them —
/// one compile memo, one verdict memo, a serial RegionEvaluator for the
/// baselines and the install, and a search::EvaluationEngine over one
/// RegionEvaluator per worker (each with its own replay sandbox) that
/// parallelizes and memoizes the GA's batches. optimize(), every fleet
/// device class and the experiment harnesses go through both steps; a
/// fleet cell's classes share one verdict memo, one CompileMemoTable and,
/// where the witness allows, the inputs of one class per session input
/// (DESIGN.md §23). A binary draws the same samples wherever it is
/// measured: the serial calls and the engine both seed its noise stream
/// with search::binaryNoiseSeed.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_CORE_ITERATIVE_COMPILER_H
#define ROPT_CORE_ITERATIVE_COMPILER_H

#include "analysis/RegionAnalysis.h"
#include "capture/CaptureManager.h"
#include "core/AppInstance.h"
#include "core/Measurement.h"
#include "lir/Backend.h"
#include "lir/CompileMemo.h"
#include "profiler/HotRegion.h"
#include "replay/Replayer.h"
#include "replay/VerdictMemo.h"
#include "search/EvaluationEngine.h"
#include "search/GeneticSearch.h"
#include "support/Result.h"

#include <memory>
#include <mutex>
#include <optional>

namespace ropt {
namespace core {

/// Everything that shapes the offline search (phase 4).
struct SearchOptions {
  search::GaConfig GA;
  /// Adaptive measurement racing (DESIGN.md §11). Off — the paper's
  /// configuration — every evaluation pays MaxReplaysPerEvaluation
  /// replays; on, fresh binaries start with MinReplaysPerEvaluation and
  /// race the incumbent for the rest, early-stopping clear losers.
  bool Racing = false;
  int MinReplaysPerEvaluation = 3;
  /// Fork-server replay sessions (DESIGN.md §16): each evaluation backend
  /// keeps one pristine restored address space per capture and
  /// delta-resets dirty pages between replays instead of re-running the
  /// loader. Purely a throughput lever — measurements, digests and
  /// evaluations.jsonl are byte-identical either way.
  bool SessionBackends = true;
  /// The measurement budget per binary (the paper's fixed 10).
  int MaxReplaysPerEvaluation = 10;
  size_t CompileSizeBudget = 2000;
  /// Worker threads for the evaluation engine; 0 = hardware concurrency.
  int Jobs = 0;
  /// The engine's two-level genome/binary cache and the verdict memo
  /// under it (DESIGN.md §22).
  bool Memoize = true;
  /// Genomes injected into generation 0 ahead of the random fill
  /// (search::GenomeSource::Seeded), each carrying the provenance id of
  /// the hint chain it rides on (0 = locally minted). The fleet layer
  /// routes re-verified server hints and a device's previous best through
  /// this, and the persistent store's restored leaderboard entries keep
  /// their prior-night chains; empty — the paper's cold-start
  /// configuration — leaves generation 0 fully random.
  std::vector<search::SeedGenome> WarmStart;
  /// Close the observability loop (DESIGN.md §13): scale the GA budget by
  /// the optimized region's criticality (the slack-0 region keeps the
  /// full budget; cooler regions get quadratically less) and disable the
  /// genome arms the region's bottleneck label rules out. Off — the
  /// default — leaves the search identical to the paper's configuration.
  bool AnalysisGuided = false;
};

/// \p Scale in (0, 1]: shrinks generations and population evenly (sqrt
/// split, so total evaluations scale roughly linearly with \p Scale) with
/// floors of 2 generations and 8 genomes; tournament/elite sizes are
/// re-clamped to the smaller population. Scale >= 1 returns \p Base
/// untouched — the critical region's search is bit-identical to the
/// unscaled configuration.
search::GaConfig scaledGaConfig(const search::GaConfig &Base, double Scale);

/// The observability loop's allocation for one region (DESIGN.md §13):
/// \p Base scaled by \p R's criticality (scaledGaConfig), with the genome
/// arms R's bottleneck label rules out disabled unless R is the slack-0
/// region. optimize() searches with this config when
/// SearchOptions::AnalysisGuided is on; on the pipeline's own detected
/// region (the slack-0 one) it returns \p Base unchanged, which is why
/// fleet classes, which only search that region, never apply it.
search::GaConfig guidedGaConfig(const search::GaConfig &Base,
                                const analysis::RegionReport &R);

/// Everything that shapes profiling and capture (phases 1-3).
struct CaptureOptions {
  /// Captures taken per region; >1 evaluates genomes across several real
  /// inputs (the paper's §5.4 multi-capture setting).
  int CapturesPerRegion = 1;
  int ProfileSessions = 6;
  os::KernelCostModel KernelCosts;
};

/// Everything that shapes the final whole-program measurement (phase 5)
/// and the noise model shared with replay-time sampling.
struct MeasureOptions {
  int FinalSessionBlock = 3; ///< Sessions per whole-program sample.
  int FinalMeasurementRuns = 10;
  MeasurementModel Noise;
};

/// Pipeline configuration. The member initializers *are* the paper's
/// Section 4 values; paperDefaults() spells that out at call sites.
struct PipelineConfig {
  uint64_t Seed = 1;
  SearchOptions Search;
  CaptureOptions Capture;
  MeasureOptions Measure;

  /// Run-report flight recorder (report::RunReport), when the harness
  /// opened one with --report: the GA hands it one provenance record per
  /// evaluation, strictly in batch order. Not owned; may be null.
  search::ProvenanceSink *Provenance = nullptr;

  /// When set, optimize() searches the compilable closure of this root
  /// instead of the detected hot region — the multi-region harnesses
  /// (abl_critical_path) point the pipeline at each candidate in turn.
  dex::MethodId ForceRegionRoot = dex::InvalidId;

  /// The configuration of the paper's evaluation (Section 4): 11x50 GA,
  /// 10 replays per evaluation, single capture, 6 profile sessions.
  static PipelineConfig paperDefaults();
};

/// One captured region with its interpreted-replay artifacts.
struct CapturedRegion {
  capture::Capture Cap;
  replay::VerificationMap Map;
  lir::TypeProfile Profile;
  uint64_t Postponements = 0;
  /// Simulated work of the interpreted replay that produced Map and
  /// Profile.
  uint64_t ReplayCycles = 0;
  uint64_t ReplayInsns = 0;
};

/// Phases 1-3 of one search, what a RegionSearch is built from: the
/// region and its captures with their verification maps and type
/// profiles (IterativeCompiler::captureInputs).
struct SearchInputs {
  profiler::HotRegion Region;
  /// Never changed once captured, so every search that adopts these
  /// inputs holds the same captures, maps and profiles (DESIGN.md §23).
  /// Their Cap.Overheads are priced by the capturing pipeline's kernel
  /// costs.
  std::shared_ptr<const std::vector<CapturedRegion>> Captures;
  /// The sharing witness: calls to natives that read the session
  /// environment (readInput, randomInt, currentTimeMillis) while the app
  /// was booted, profiled and captured. The seed reaches the app only
  /// through those natives.
  uint64_t EnvironmentReads = 0;
  /// Simulated work of the boot, profile and capture sessions and the
  /// interpreted replays: what a pipeline that adopts these inputs does
  /// not execute.
  uint64_t SetupCycles = 0;
  uint64_t SetupInsns = 0;

  /// True when no environment read happened: then the inputs are a
  /// function of the DexFile, the runtime configuration, the session
  /// parameter and the capture options — not of the seed — except for
  /// the captures' Overheads, which the kernel cost model prices.
  bool seedIndependent() const { return EnvironmentReads == 0; }
};

/// The type profile merged across \p Captures: what a region's compile
/// memo specializes on.
lir::TypeProfile mergedTypeProfile(const std::vector<CapturedRegion> &Captures);

/// The compile memo (DESIGN.md §18) for one optimized region: \p App's
/// DexFile, the type profile merged across \p Captures, and the search's
/// CompileSizeBudget. One memo is shared by the baselines evaluator and
/// every engine worker of a region.
std::shared_ptr<lir::CompileMemo>
makeCompileMemo(const workloads::Application &App,
                const std::vector<CapturedRegion> &Captures,
                const PipelineConfig &Config);

/// Compile memos keyed by content (DESIGN.md §18): one per distinct
/// (merged type profile, size budget) over one DexFile. A fleet cell's
/// classes take their memos from one table, so classes whose captures
/// merge to equal profiles compile through one memo, and a pass
/// application or a codegen one class paid for is a hit for the others.
/// Thread-safe.
class CompileMemoTable {
public:
  /// \p File must outlive the table and its memos.
  explicit CompileMemoTable(const dex::DexFile &File) : File(File) {}

  CompileMemoTable(const CompileMemoTable &) = delete;
  CompileMemoTable &operator=(const CompileMemoTable &) = delete;

  /// The memo for (\p Profile, \p SizeBudget), built on first request.
  std::shared_ptr<lir::CompileMemo> memoFor(const lir::TypeProfile &Profile,
                                            size_t SizeBudget);

  /// Memos built so far, in build order.
  std::vector<std::shared_ptr<lir::CompileMemo>> memos() const;

private:
  const dex::DexFile &File;
  mutable std::mutex Mutex;
  /// A cell holds a handful: a linear scan finds the match.
  std::vector<std::shared_ptr<lir::CompileMemo>> Memos; ///< Guarded.
};

/// The verdict memo (DESIGN.md §22) for searches over \p App: bound to
/// its DexFile and runtime configuration. One per RegionSearch, or one per
/// fleet app cell shared by every device class.
std::shared_ptr<replay::VerdictMemo>
makeVerdictMemo(const workloads::Application &App);

/// Evaluates one optimization decision against one or more captures:
/// compile, verify through replay (against *every* capture — a binary that
/// is only right for some inputs is wrong), measure. Implements the
/// engine's per-worker EvalBackend; the evaluation engine creates one
/// RegionEvaluator per worker slot, so instances need no locking (the
/// compile memo they may share locks itself). Multiple captures per region
/// are the paper's §5.4 "realistic system" setting and guard the search
/// against overfitting to a single input.
class RegionEvaluator : public search::EvalBackend {
public:
  /// \p Captures (one, in the paper's default configuration) must outlive
  /// the evaluator. \p Memo must come from makeCompileMemo() over the same
  /// app, captures and config; null gives the evaluator a private one.
  /// \p Verdicts, from makeVerdictMemo() over the same app, answers
  /// verified replays it already holds; null replays every one.
  RegionEvaluator(const workloads::Application &App,
                  const profiler::HotRegion &Region,
                  const std::vector<CapturedRegion> &Captures,
                  const PipelineConfig &Config,
                  std::shared_ptr<lir::CompileMemo> Memo = nullptr,
                  std::shared_ptr<replay::VerdictMemo> Verdicts = nullptr);

  /// EvalBackend: compile with the genome, hand back hash/size/artifact.
  search::CompiledBinary compileGenome(const search::Genome &G) override;

  /// EvalBackend: verify + draw \p SampleCount raw timing samples for a
  /// compiled binary. Sample \c i is a pure function of (\p NoiseSeed,
  /// i), so the result is independent of scheduling and of how the
  /// racing engine splits the budget into blocks.
  search::Evaluation measureBinary(const search::CompiledBinary &B,
                                   uint64_t NoiseSeed,
                                   size_t SampleCount) override;

  /// EvalBackend: raw samples [\p Begin, \p Begin + \p Count) of an
  /// already-verified binary's noise stream, drawn around E.BaseCycles —
  /// no artifact or replay needed.
  std::vector<double> extendSamples(const search::Evaluation &E,
                                    uint64_t NoiseSeed, size_t Begin,
                                    size_t Count) override;

  /// EvalBackend: this evaluator's fork-server session accounting
  /// (all-zeros when SearchOptions::SessionBackends is off).
  search::ReplayBackendStats replayStats() const override;

  /// Serial evaluation of an explicit pipeline (an -O preset, or a
  /// genome's passes and allocator): compile + verify + sample in one
  /// call. The result is what the engine records for the same binary
  /// with racing off, whatever this evaluator measured before.
  search::Evaluation
  evaluatePipeline(const std::vector<lir::PassInstance> &Pipeline,
                   hgraph::RegAllocKind RegAlloc =
                       hgraph::RegAllocKind::LinearScan);

  /// Evaluates the stock Android binary of the region.
  search::Evaluation evaluateAndroid();

  /// Compiles the region with \p G without evaluating (for installs).
  /// Returns nullopt when compilation fails.
  std::optional<vm::CodeCache> compileRegion(const search::Genome &G);

  /// Outcome counts over every evaluation this instance performed.
  using Counters = search::EngineCounters;
  const Counters &counters() const { return Stats; }

private:
  /// The full fixed-budget measurement of \p B on its binaryNoiseSeed
  /// stream, outliers removed; a failed compile is a CompileError.
  search::Evaluation measure(const search::CompiledBinary &B);
  /// Verified replay against every capture, through the verdict memo
  /// when there is one; fills Kind/Error, size and BaseCycles (the
  /// deterministic cycle sum noise samples around) and records
  /// \p BinaryHash, hashCodeCache(Code), which the caller already has.
  /// Returns true when the binary is Ok.
  bool verifyCache(const vm::CodeCache &Code, uint64_t BinaryHash,
                   search::Evaluation &E);

  struct CaptureRef {
    const capture::Capture *Cap;
    const replay::VerificationMap *Map;
    replay::ContentKey Key; ///< captureKey(), when there is a verdict memo.
  };

  const workloads::Application &App;
  const profiler::HotRegion &Region;
  std::vector<CaptureRef> Caps;
  const PipelineConfig &Config;
  /// Compiles through the memo; its profile is merged across captures.
  std::shared_ptr<lir::CompileMemo> Memo;
  std::shared_ptr<replay::VerdictMemo> Verdicts; ///< May be null.
  vm::NativeRegistry Natives;
  replay::Replayer Rep;
  Counters Stats;
};

/// Phase 4 set up for one region (§3.6-3.7): its inputs, one compile
/// memo and one verdict memo shared by a serial RegionEvaluator (the
/// baselines and the install) and the evaluation engine's per-worker
/// RegionEvaluators, and the stock Android and -O3 evaluations the GA's
/// fitness is measured against. IterativeCompiler::prepareSearch builds
/// it. The evaluators refer into it, so it never moves; the application
/// must outlive it.
struct RegionSearch {
  /// \p Verdicts is shared with other searches over \p App (a fleet
  /// cell's classes); null gives the search a private one. Without
  /// SearchOptions::Memoize the search has none. \p Memo, when given,
  /// must be bound to \p App's DexFile, the captures' merged type profile
  /// and the search's CompileSizeBudget (a CompileMemoTable's); null
  /// builds one with makeCompileMemo.
  RegionSearch(const workloads::Application &App, SearchInputs Inputs,
               const PipelineConfig &Config,
               std::shared_ptr<replay::VerdictMemo> Verdicts = nullptr,
               std::shared_ptr<lir::CompileMemo> Memo = nullptr);
  RegionSearch(const RegionSearch &) = delete;
  RegionSearch &operator=(const RegionSearch &) = delete;

  const PipelineConfig Config; ///< What the evaluators were built with.
  const SearchInputs Inputs;   ///< What the search was built from.
  const profiler::HotRegion &Region = Inputs.Region;
  const std::vector<CapturedRegion> &Captures = *Inputs.Captures;
  /// One compile memo for Baselines and every engine worker.
  const std::shared_ptr<lir::CompileMemo> Memo;
  /// The verdict memo under Baselines and every engine worker (null
  /// without SearchOptions::Memoize).
  const std::shared_ptr<replay::VerdictMemo> Verdicts;
  RegionEvaluator Baselines;
  search::EvaluationEngine Engine;
  search::Evaluation Android;
  search::Evaluation O3;

  /// The GA's -O3 bar: the -O3 median, or Android's when -O3 fails
  /// verification.
  double o3Bar() const;
  /// Fork-server session accounting: engine backends plus Baselines.
  search::ReplayBackendStats replayBackendStats() const;
};

/// Everything the pipeline produced for one application.
struct OptimizationReport {
  std::string AppName;
  bool Succeeded = false;
  std::string FailureReason;

  profiler::HotRegion Region;
  profiler::CodeBreakdown Breakdown;
  capture::Capture Cap;
  uint64_t CapturePostponements = 0;

  /// The observability loop's region analysis: every candidate region
  /// with its features, label, slack and budget share (always computed —
  /// it is a cheap pure function of the profile — and recorded in the run
  /// report whether or not AnalysisGuided applied it).
  analysis::AppAnalysis Analysis;
  /// What the search actually ran with: 1.0 / 0 unless AnalysisGuided.
  double AppliedBudgetScale = 1.0;
  uint32_t AppliedPassMask = 0;

  /// Region-level replay medians (cycles).
  double RegionAndroid = 0.0;
  double RegionO3 = 0.0;
  double RegionBest = 0.0;

  search::Scored Best;
  search::GaTrace Trace;
  /// GA evaluations (through the engine) plus the two baselines.
  search::EngineCounters Counters;
  /// The engine's memoization story for the search.
  search::EngineCacheStats CacheStats;
  /// The engine's replay-budget accounting (racing vs fixed budget).
  search::EngineRacingStats RacingStats;
  /// Fork-server replay-session accounting, summed over every evaluation
  /// backend (engine workers plus the serial baselines evaluator).
  search::ReplayBackendStats ReplayBackend;

  /// Whole-program session samples, measured outside the replay
  /// environment (online noise included).
  std::vector<double> WholeAndroid;
  std::vector<double> WholeO3;
  std::vector<double> WholeGa;

  double speedupGaOverAndroid() const;
  double speedupO3OverAndroid() const;
  double speedupGaOverO3() const;
};

/// The orchestrator.
class IterativeCompiler {
public:
  explicit IterativeCompiler(PipelineConfig Config) : Config(Config) {}

  /// Runs the full pipeline on one application.
  OptimizationReport optimize(const workloads::Application &App);

  /// Pieces, exposed for the experiment harnesses: profile the app and
  /// detect its region (phase 1-2)...
  struct ProfiledApp {
    std::unique_ptr<AppInstance> Instance;
    profiler::ReplayabilityAnalysis RA;
    profiler::MethodProfile Profile;
    std::optional<profiler::HotRegion> Region;
    profiler::CodeBreakdown Breakdown;
  };
  ProfiledApp profileApp(const workloads::Application &App);
  /// The same from a fork of \p Image, which must serve the pipeline's
  /// seed.
  ProfiledApp profileApp(const BootImage &Image);

  /// ...and capture its hot region (phase 3), returning the capture plus
  /// the interpreted replay artifacts.
  using CapturedRegion = core::CapturedRegion;
  /// \p SessionOffset shifts the scripted session parameters so distinct
  /// captures snapshot distinct user inputs.
  std::optional<CapturedRegion>
  captureRegion(AppInstance &Instance, const profiler::HotRegion &Region,
                int SessionOffset = 0);

  /// Takes \p Count captures of the region across distinct sessions.
  std::vector<CapturedRegion>
  captureRegionMulti(AppInstance &Instance,
                     const profiler::HotRegion &Region, int Count);

  /// ...and turn the captures of its region into the inputs of its
  /// search: CapturesPerRegion captures of \p Region from \p Profiled's
  /// instance, the sharing witness and the setup's simulated work. On
  /// failure the error's message is the pipeline's failure reason.
  support::Result<SearchInputs>
  captureInputs(ProfiledApp &Profiled, const profiler::HotRegion &Region);

  /// ...and set up its search (phase 4) from \p Inputs: wire the
  /// RegionSearch and measure the Android and -O3 baselines. On failure
  /// the error's message is the pipeline's failure reason. \p App must
  /// outlive the result. \p Verdicts is a verdict memo shared with other
  /// searches over \p App and \p Memo a compile memo from a
  /// CompileMemoTable over its DexFile; null gives the search its own.
  support::Result<std::unique_ptr<RegionSearch>>
  prepareSearch(const workloads::Application &App, SearchInputs Inputs,
                std::shared_ptr<replay::VerdictMemo> Verdicts = nullptr,
                std::shared_ptr<lir::CompileMemo> Memo = nullptr);

  const PipelineConfig &config() const { return Config; }

private:
  /// Runs the profile sessions on \p Instance and detects its region.
  ProfiledApp profile(std::unique_ptr<AppInstance> Instance);

  PipelineConfig Config;
};

} // namespace core
} // namespace ropt

#endif // ROPT_CORE_ITERATIVE_COMPILER_H
