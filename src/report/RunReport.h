//===- report/RunReport.h - The run-report flight recorder ------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent provenance for every pipeline run: a RunReport owns one run
/// directory and records every genome evaluation (`evaluations.jsonl`),
/// every per-generation aggregate (`generations.jsonl`), per-app outcomes
/// and engine cache statistics (`manifest.json`), the final metrics
/// snapshot (`metrics.json`) and the Chrome trace (`trace.json`).
///
/// The recorder implements search::ProvenanceSink, so the GA hands it one
/// record per evaluation strictly in batch order on the calling thread.
/// Records carry no timestamps, doubles are formatted %.17g, and 64-bit
/// binary hashes are hex strings — a seeded run therefore produces a
/// byte-identical `evaluations.jsonl` at any `--jobs` value, which is
/// exactly what `ropt-report diff` leans on as a regression gate.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_REPORT_RUN_REPORT_H
#define ROPT_REPORT_RUN_REPORT_H

#include "analysis/FleetTrace.h"
#include "analysis/RegionAnalysis.h"
#include "fleet/Telemetry.h"
#include "fleet/Transport.h"
#include "report/ReportWriter.h"
#include "search/EvaluationEngine.h"
#include "search/GeneticSearch.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ropt {
namespace report {

/// What the harness knows about the run before it starts; lands in
/// manifest.json verbatim.
struct RunInfo {
  std::string Tool;     ///< Harness name, e.g. "fig09_ga_evolution".
  uint64_t Seed = 1;
  int Jobs = 0;         ///< Requested workers (0 = hardware).
  bool Fast = false;
  bool Memoize = true;
  int Generations = 0;
  int PopulationSize = 0;
  bool Racing = false; ///< Adaptive measurement racing enabled?
  int MinReplaysPerEvaluation = 0; ///< Racing seed/escalation block.
  int MaxReplaysPerEvaluation = 0; ///< Measurement budget per binary.
  int CapturesPerRegion = 0;
  bool AnalysisGuided = false; ///< Criticality-weighted search budget?
  /// Fork-server replay sessions in the evaluation backends?
  bool SessionBackends = true;
  /// The persistent-store directory the run loaded/saved (config.store;
  /// empty = no store, a cold one-night run).
  std::string StoreDir;
};

/// Everything the harness reports when one app's pipeline run ends;
/// summarized per app in the manifest (and into the run totals).
struct AppOutcome {
  bool Succeeded = false;
  std::string FailureReason;
  search::EngineCounters Counters;  ///< GA + baseline verdict counts.
  search::EngineCacheStats Cache;   ///< The engine's memoization story.
  search::EngineRacingStats Racing; ///< Replay-budget accounting.
  /// Fork-server replay-session accounting over the app's
  /// evaluation backends. Session/backend counts depend on worker count,
  /// so the manifest's "replay_backend" section is jobs-variant (like
  /// wall_seconds) — evaluations.jsonl stays byte-identical regardless.
  search::ReplayBackendStats ReplayBackend;
  double RegionAndroid = 0.0;
  double RegionO3 = 0.0;
  double RegionBest = 0.0;
  double SpeedupGaOverAndroid = 0.0;
  double SpeedupGaOverO3 = 0.0;
  /// The observability loop's region analysis (manifest "region_analysis"
  /// section + one analysis.jsonl line per region). A pure function of
  /// the profile, so manifests stay byte-identical across --jobs.
  analysis::AppAnalysis Analysis;
  /// What the search actually ran with (1.0 / 0 unless the run was
  /// analysis-guided).
  double AppliedBudgetScale = 1.0;
  uint32_t AppliedPassMask = 0;
};

/// What the persistent optimization service contributed to
/// this run — the manifest's "warm_start" section. Written only when the
/// harness ran with --store.
struct WarmStartInfo {
  bool Used = false;          ///< A prior night's store was loaded.
  int StoreSchema = 0;        ///< Schema of the loaded document.
  uint64_t Nights = 0;        ///< Nights folded into the store pre-run.
  uint64_t EntriesLoaded = 0; ///< Leaderboard rows restored.
  uint64_t QuarantinedLoaded = 0; ///< Restored rows under quarantine.
  uint64_t HintsInjected = 0; ///< Warm-start hints pre-seeded to devices.
};

/// One per-class leaderboard row of the manifest's
/// "fleet.class_leaderboards" snapshot (top entries per device class at
/// the end of each sweep cell).
struct ClassLeaderboardRow {
  std::string App;
  int Devices = 0; ///< Sweep cell (device count) the row belongs to.
  int Class = 0;
  std::string Genome;
  double Speedup = 0.0;
  int Reports = 0;
  bool Restored = false; ///< Entry predates this run (store-loaded).
};

/// Run-level fleet aggregate for the manifest's "fleet" section.
struct FleetSummary {
  std::string DeviceSweep; ///< Device counts run, e.g. "1,4,16".
  int Steps = 0; ///< Search steps per device.
  int TopK = 0;
  double DropProb = 0.0;
  double ReorderProb = 0.0;
  uint64_t HintsPublished = 0;
  uint64_t HintsAdopted = 0;
  uint64_t HintsRejected = 0;
  /// All sends, both channels, across the sweep (one shared struct and
  /// JSON emitter with FleetResult — see fleet/Transport.h).
  fleet::TransportStats Transport;
  double BestSpeedup = 0.0; ///< Best across the whole sweep.
  /// Per-class leaderboard snapshot across the sweep cells.
  std::vector<ClassLeaderboardRow> ClassBoards;
};

/// The flight recorder. Open one per run, point PipelineConfig at it (it
/// is the search's ProvenanceSink), bracket each app with
/// beginApp()/endApp(), and call finish() (or let the destructor) to seal
/// the manifest.
class RunReport : public search::ProvenanceSink {
public:
  /// Creates \p Dir and its streams. \p Info is frozen into the manifest.
  static support::Result<std::unique_ptr<RunReport>>
  open(const std::string &Dir, RunInfo Info);

  ~RunReport() override;

  const std::string &directory() const { return Writer->directory(); }

  /// Starts attributing records to \p AppName (the "app" field of every
  /// subsequent JSONL record).
  void beginApp(const std::string &AppName);
  /// Seals the current app's manifest entry.
  void endApp(const AppOutcome &Outcome);

  // ProvenanceSink: called by the GA in batch order.
  uint64_t onEvaluation(const search::Genome &G,
                        const search::Evaluation &E, int Generation,
                        const std::vector<uint64_t> &Parents) override;
  void onGenerationDone(const search::GenerationStats &S) override;

  /// One fleet step, appended to fleet.jsonl. The coordinator calls
  /// this serially in event-commit order.
  void onFleetStep(const FleetStepRecord &R);

  /// Installs the run-level fleet aggregate; the manifest grows a
  /// "fleet" section (and bumps nothing else) only when this was called.
  void setFleetSummary(const FleetSummary &S);

  /// Installs the persistent-store contribution; the manifest grows a
  /// "warm_start" section only when this was called.
  void setWarmStart(const WarmStartInfo &W);

  /// One coordinator cell's merged telemetry. finish() folds
  /// every cell into telemetry.json: per-class sketches, the cell
  /// totals, a fleet-level merge, and all provenance chains.
  void onFleetCell(const fleet::FleetTelemetry &T);

  /// One coordinator cell's virtual-clock trace events; finish() renders
  /// every cell into one fleet.trace.json (one Chrome track per device
  /// class, async delivery arrows, churn instants).
  void onFleetTrace(const std::string &App, int Devices, int NumClasses,
                    const std::vector<analysis::FleetTraceEvent> &Events);

  /// Writes manifest.json, metrics.json and (when the recorder is
  /// enabled) trace.json. Idempotent; returns false on I/O failure.
  bool finish();

private:
  RunReport(std::unique_ptr<ReportWriter> Writer, RunInfo Info);

  struct AppEntry {
    std::string Name;
    AppOutcome Outcome;
    bool Ended = false;
  };

  std::string manifestJson() const;

  std::unique_ptr<ReportWriter> Writer;
  RunInfo Info;
  std::chrono::steady_clock::time_point Start;

  mutable std::mutex Mutex;
  std::vector<AppEntry> Apps;
  uint64_t NextId = 1;
  uint64_t TotalEvaluations = 0;
  bool Finished = false;
  bool HasFleet = false;
  FleetSummary Fleet;
  bool HasWarmStart = false;
  WarmStartInfo Warm;
  std::vector<fleet::FleetTelemetry> TelemetryCells;
  analysis::FleetTrace FleetTraceOut;
};

} // namespace report
} // namespace ropt

#endif // ROPT_REPORT_RUN_REPORT_H
