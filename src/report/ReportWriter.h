//===- report/ReportWriter.h - Run-directory artifact streams ---*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The filesystem half of the run-report flight recorder: creates the run
/// directory, owns the append-only JSONL streams (`evaluations.jsonl`,
/// `generations.jsonl`) and writes the whole-file artifacts
/// (`manifest.json`, `metrics.json`, `trace.json`) at finish time. All
/// appends go through one mutex and are flushed line-at-a-time, so a
/// crashed run leaves a readable prefix rather than a torn record.
///
/// Ordering is the caller's contract: RunReport appends strictly in batch
/// order on the search's calling thread, which is what keeps a seeded
/// run's record stream bit-identical at any `--jobs` value.
///
/// It also holds what the writer (RunReport) and the reader (RunDiff)
/// share about the format: the schema, the file names and the fleet
/// step record.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_REPORT_REPORT_WRITER_H
#define ROPT_REPORT_REPORT_WRITER_H

#include "support/Result.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

namespace ropt {
namespace report {

/// The manifest schema this build writes, and the only one it reads:
/// report::loadRun refuses any other.
inline constexpr int CurrentSchema = 7;

/// Artifact file names inside a run directory.
inline constexpr const char *ManifestFile = "manifest.json";
inline constexpr const char *EvaluationsFile = "evaluations.jsonl";
inline constexpr const char *GenerationsFile = "generations.jsonl";
inline constexpr const char *MetricsFile = "metrics.json";
inline constexpr const char *TraceFile = "trace.json";
/// Per-(step, device) log of a fleet run; absent in non-fleet runs.
inline constexpr const char *FleetFile = "fleet.jsonl";
/// Per-region observability-loop records: one line per candidate region
/// per app with its feature vector, bottleneck label, slack and budget
/// share. Absent when no app produced a region analysis.
inline constexpr const char *AnalysisFile = "analysis.jsonl";
/// Fleet-wide Chrome trace on the virtual clock: one track per device
/// class per coordinator cell, async delivery arrows, churn instants.
/// Absent in non-fleet runs.
inline constexpr const char *FleetTraceFile = "fleet.trace.json";
/// Mergeable per-class telemetry sketches and provenance chains. Absent
/// in non-fleet runs. Unlike metrics.json this is a pure function of the
/// simulation, so it is written even when the observability layer is
/// compiled out.
inline constexpr const char *TelemetryFile = "telemetry.json";

/// One completed device step of a fleet run — one fleet.jsonl line, as
/// RunReport writes it and loadRun reads it back. Like evaluation
/// records, it is a pure function of the run's results (virtual times
/// are simulated, not wall-clock), so a seeded fleet run's step log is
/// byte-identical at any `--jobs` value.
struct FleetStepRecord {
  std::string App;
  int FleetDevices = 0; ///< Device count of the coordinator run (a sweep
                        ///< writes several runs into one stream).
  int Step = 0; ///< The device's step index (steps are asynchronous).
  int Device = 0;
  /// Virtual completion time of the step on the fleet event loop.
  uint64_t VirtualTime = 0;
  double BestSpeedup = 0.0; ///< Device best-so-far vs its own baseline.
  std::string BestGenome;
  std::string BestSource; ///< search::genomeSourceName() spelling.
  bool BestFromHint = false;
  int HintsReceived = 0;
  int HintsAdopted = 0;
  int HintsRejected = 0;
  int Evaluations = 0;
  /// The device's hardware/user class and the provenance chain of its
  /// best genome — which device discovered it, and when (virtual time).
  int DeviceClass = 0;
  uint64_t BestProvenance = 0; ///< 0 = no best yet.
  int BestDiscoveryDevice = -1;
  uint64_t BestDiscoveryTime = 0;
  // Transport accounting for this step's report delivery. Varies with
  // injected network loss; everything above must not.
  int TransportAttempts = 0;
  uint64_t TransportDrops = 0;
  uint64_t TransportTicks = 0;
  bool Delivered = true; ///< The step report reached the server.
};

/// Owns one run directory and its streams. Create through open();
/// destruction closes the streams (finish-time artifacts are the
/// RunReport's job).
class ReportWriter {
public:
  /// Creates \p Dir (and parents) and opens the JSONL streams for
  /// truncation-append. Fails when the directory or streams cannot be
  /// created.
  static support::Result<std::unique_ptr<ReportWriter>>
  open(const std::string &Dir);

  ~ReportWriter();
  ReportWriter(const ReportWriter &) = delete;
  ReportWriter &operator=(const ReportWriter &) = delete;

  const std::string &directory() const { return Dir; }

  /// Appends one pre-rendered JSON object as a line; flushes.
  void appendEvaluation(const std::string &Json);
  void appendGeneration(const std::string &Json);
  /// Same, for the fleet step log. The stream opens lazily on first
  /// append, so only fleet runs grow a fleet.jsonl.
  void appendFleetStep(const std::string &Json);
  /// Same, for the per-region analysis log; lazily opened, so only runs
  /// that produced a region analysis grow an analysis.jsonl.
  void appendAnalysis(const std::string &Json);

  /// Writes \p Content verbatim to `<dir>/<Name>`; false on I/O failure.
  bool writeFile(const char *Name, const std::string &Content);

private:
  explicit ReportWriter(std::string Dir) : Dir(std::move(Dir)) {}
  void appendLine(std::FILE *F, const std::string &Json);

  std::string Dir;
  std::mutex Mutex;
  std::FILE *Evals = nullptr;
  std::FILE *Gens = nullptr;
  std::FILE *Fleet = nullptr; ///< Lazily opened by appendFleetStep().
  std::FILE *Analysis = nullptr; ///< Lazily opened by appendAnalysis().
};

} // namespace report
} // namespace ropt

#endif // ROPT_REPORT_REPORT_WRITER_H
