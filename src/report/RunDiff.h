//===- report/RunDiff.h - Loading, summarizing, diffing runs ----*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read side of the run-report flight recorder: parse a run directory
/// back into typed records, validate its artifacts, render a human (or
/// markdown) summary, and diff two runs as a regression gate — fitness
/// regressions beyond a configurable threshold and verdict-mix shifts
/// both fail the gate, which is what `ropt-report diff` exits non-zero
/// on.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_REPORT_RUN_DIFF_H
#define ROPT_REPORT_RUN_DIFF_H

#include "report/ReportWriter.h"
#include "support/Json.h"
#include "support/Result.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ropt {
namespace report {

/// One evaluations.jsonl record, parsed.
struct EvalRecord {
  uint64_t Id = 0;
  std::string App;
  int Generation = 0;
  std::string Genome;
  std::vector<uint64_t> Parents;
  std::string Verdict; ///< evalKindName spelling ("ok", "compile-error"...).
  std::string Error;   ///< errorCodeName spelling; "" when verdict is ok.
  std::string Cache;   ///< "miss", "genome-hit" or "binary-hit".
  double MedianCycles = 0.0;
  double CiLow = 0.0;
  double CiHigh = 0.0;
  uint64_t CodeSize = 0;
  std::string BinaryHash; ///< "0x..." hex string.
  int SamplesSpent = 0;      ///< Raw measurement replays paid.
  int EscalationRounds = 0;  ///< Racing blocks beyond the seed block.
  bool EarlyStop = false;    ///< Race ended as a statistically-clear loser.
};

/// One generations.jsonl record, parsed.
struct GenRecord {
  std::string App;
  int Generation = 0;
  int Evaluations = 0;
  int Invalid = 0;
  double BestCycles = 0.0;
  double WorstCycles = 0.0;
  double MeanCycles = 0.0;
};

/// One analysis.jsonl record, parsed: a candidate region's feature
/// vector, bottleneck label and budget allocation.
struct AnalysisRecord {
  std::string App;
  uint64_t Root = 0;
  std::string RootName;
  std::string Label; ///< bottleneckName spelling ("memory_bound"...).
  // Feature vector (the classifier's auditable inputs).
  double Cycles = 0.0;
  double Insns = 0.0;
  double Branches = 0.0;
  double Mispredicts = 0.0;
  double MemReads = 0.0;
  double MemWrites = 0.0;
  double CacheMisses = 0.0;
  double Allocs = 0.0;
  double AllocSlots = 0.0;
  double NativeCycles = 0.0;
  double NativeShare = 0.0;
  double MemShare = 0.0;
  double MispredictsPerKiloInsn = 0.0;
  // Criticality + allocation.
  double CriticalPathCycles = 0.0;
  std::vector<uint64_t> CriticalChain;
  double Slack = 0.0;
  double BudgetWeight = 0.0;
  double BudgetScale = 0.0;
  int Methods = 0;
};

/// A run directory pulled back into memory.
struct LoadedRun {
  std::string Dir;
  json::Value Manifest;
  std::vector<EvalRecord> Evaluations;
  std::vector<GenRecord> Generations;
  std::vector<FleetStepRecord> Fleet; ///< Empty when HasFleetLog is false.
  bool HasFleetLog = false;       ///< fleet.jsonl existed and parsed.
  std::vector<AnalysisRecord> Analysis; ///< Empty without analysis.jsonl.
  bool HasAnalysisLog = false; ///< analysis.jsonl existed and parsed.
  /// telemetry.json parsed wholesale: per-class sketches, cell and fleet
  /// totals, provenance chains. Absent in non-fleet runs.
  json::Value Telemetry;
  bool HasTelemetry = false;
  /// metrics.json, when the run was built with the observability layer
  /// (validation cross-checks replay counters against the manifest's
  /// session_backends claim).
  json::Value Metrics;
  bool HasMetrics = false;
};

/// Reads manifest.json + the JSONL streams. Fails on missing files,
/// unparseable JSON (line number in the message), or a manifest whose
/// schema is not CurrentSchema ("unsupported schema N (this build reads
/// 7)"). The fleet, analysis, telemetry and metrics artifacts are
/// optional: only the runs that produce them have them.
support::Result<LoadedRun> loadRun(const std::string &Dir);

/// Outcome of validateRun: problems fail the gate (ropt-report validate
/// exits 1), warnings are reported but tolerated — e.g. a manifest fleet
/// section whose fleet.jsonl is missing.
struct ValidationResult {
  std::vector<std::string> Problems;
  std::vector<std::string> Warnings;

  bool ok() const { return Problems.empty(); }
};

/// Structural checks beyond parseability: manifest fields present, record
/// ids dense and increasing, parent ids referencing earlier records,
/// known verdict/cache spellings, and — when fleet artifacts are present
/// — step-log consistency against the manifest's fleet section.
ValidationResult validateRun(const LoadedRun &Run);

/// Renders the run: manifest header, per-app verdict breakdown, cache
/// hit rate, best-fitness-per-generation curve, top rejection reasons,
/// and — when the run directory has a non-empty trace.json — the top
/// spans by total and self duration.
std::string summarize(const LoadedRun &Run, bool Markdown = false);

/// Renders the observability-loop analysis of a run: per-app region DAG
/// summary (candidate regions hottest first), the critical region's
/// chain, and each region's bottleneck label, slack and budget share.
/// With \p Baseline, flags regions whose label changed between the runs.
/// A pure function of analysis.jsonl + the manifest — byte-identical for
/// byte-identical streams (never reads the trace or wall-clock fields).
std::string analyzeRun(const LoadedRun &Run,
                       const LoadedRun *Baseline = nullptr);

struct DiffOptions {
  /// Relative best-fitness slowdown that counts as a regression (B worse
  /// than A by more than this fraction).
  double FitnessThreshold = 0.02;
  /// Absolute shift in a verdict's share of evaluations that counts as a
  /// mix shift.
  double MixThreshold = 0.05;
  /// Relative drop in a fleet cell's final best speedup that counts as a
  /// fleet regression. Looser than the fitness gate: fleet bests ride on
  /// hint timing, so small wobbles between configurations are expected.
  double FleetThreshold = 0.05;
};

struct DiffResult {
  int FitnessRegressions = 0;
  int VerdictShifts = 0;
  /// Fleet gate: per-(app, device-count) cells whose final
  /// best speedup regressed beyond DiffOptions::FleetThreshold.
  int FleetRegressions = 0;
  std::string Text; ///< Human-readable diff report.

  bool regressed() const {
    return FitnessRegressions != 0 || FleetRegressions != 0;
  }
};

/// Compares run B against baseline A, app by app.
DiffResult diffRuns(const LoadedRun &A, const LoadedRun &B,
                    const DiffOptions &Opt = DiffOptions());

/// The fleet view of a run (`ropt-report fleet`): per-(app, device-class)
/// step curves, top provenance chains (discovery -> merge -> adoption
/// with virtual-time latency), and transport health. With \p Baseline,
/// applies the same best-speedup gate as diffRuns and counts regressed
/// cells. A pure function of fleet.jsonl + telemetry.json.
struct FleetDiffResult {
  int Regressions = 0;
  std::string Text;
};
FleetDiffResult fleetReport(const LoadedRun &Run,
                            const LoadedRun *Baseline = nullptr,
                            double Threshold = 0.05);

} // namespace report
} // namespace ropt

#endif // ROPT_REPORT_RUN_DIFF_H
