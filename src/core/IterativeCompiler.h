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
/// Fitness runs through search::EvaluationEngine: the pipeline hands the
/// engine a factory for RegionEvaluator backends (one per worker, each
/// with its own replay sandbox) and the engine parallelizes and memoizes
/// the GA's batches. RegionEvaluator remains directly usable as the
/// serial per-genome evaluator for the ablation experiments.
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
#include "search/EvaluationEngine.h"
#include "search/GeneticSearch.h"

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
  /// The engine's two-level genome/binary cache.
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
};

/// The compile memo (DESIGN.md §18) for one optimized region: \p App's
/// DexFile, the type profile merged across \p Captures, and the search's
/// CompileSizeBudget. One memo is shared by the baselines evaluator and
/// every engine worker of a region.
std::shared_ptr<lir::CompileMemo>
makeCompileMemo(const workloads::Application &App,
                const std::vector<CapturedRegion> &Captures,
                const PipelineConfig &Config);

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
  /// Single-capture constructor (the paper's default configuration). A
  /// null \p Memo gives the evaluator a private one over \p Profile.
  RegionEvaluator(const workloads::Application &App,
                  const profiler::HotRegion &Region,
                  const capture::Capture &Cap,
                  const replay::VerificationMap &Map,
                  const lir::TypeProfile &Profile,
                  const PipelineConfig &Config,
                  std::shared_ptr<lir::CompileMemo> Memo = nullptr);

  /// Multi-capture constructor; \p Captures must outlive the evaluator.
  /// \p Memo must come from makeCompileMemo() over the same app, captures
  /// and config; null gives the evaluator a private one.
  RegionEvaluator(const workloads::Application &App,
                  const profiler::HotRegion &Region,
                  const std::vector<CapturedRegion> &Captures,
                  const PipelineConfig &Config,
                  std::shared_ptr<lir::CompileMemo> Memo = nullptr);

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

  /// Serial convenience: compile + verify + sample in one call, drawing
  /// noise from this evaluator's own stream (the ablation harnesses'
  /// entry point).
  search::Evaluation evaluate(const search::Genome &G);

  /// Evaluates an explicit pipeline (the -O presets).
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
  search::Evaluation evaluateCache(const vm::CodeCache &Code, Rng &Noise);
  /// Verified replay against every capture; fills Kind/Error, hash, size
  /// and BaseCycles (the deterministic cycle sum noise samples around).
  /// Returns true when the binary is Ok.
  bool verifyCache(const vm::CodeCache &Code, search::Evaluation &E);

  struct CaptureRef {
    const capture::Capture *Cap;
    const replay::VerificationMap *Map;
  };

  const workloads::Application &App;
  const profiler::HotRegion &Region;
  std::vector<CaptureRef> Caps;
  const PipelineConfig &Config;
  /// Compiles through the memo; its profile is merged across captures.
  std::shared_ptr<lir::CompileMemo> Memo;
  vm::NativeRegistry Natives;
  replay::Replayer Rep;
  Rng NoiseRng; ///< Serial-path noise stream (evaluate()).
  Counters Stats;
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

  const PipelineConfig &config() const { return Config; }

private:
  PipelineConfig Config;
};

} // namespace core
} // namespace ropt

#endif // ROPT_CORE_ITERATIVE_COMPILER_H
