//===- report/RunDiff.cpp - Loading, summarizing, diffing runs ------------===//

#include "report/RunDiff.h"

#include "analysis/SpanDag.h"
#include "fleet/Telemetry.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace ropt;
using namespace ropt::report;

// --- Loading ----------------------------------------------------------------

namespace {

support::Result<std::string> slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return support::Error(support::ErrorCode::Unknown,
                          "cannot read " + Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Parses a whole-file JSON artifact; the error names the file.
support::Result<json::Value> parseFile(const std::string &Path,
                                       const std::string &Text) {
  support::Result<json::Value> V = json::parse(Text);
  if (!V)
    return support::Error(support::ErrorCode::Unknown,
                          Path + ": " + V.error().Message);
  return V;
}

/// Applies \p Fn to each non-empty line of \p Path as parsed JSON.
/// Returns an error naming the first bad line.
template <typename Fn>
support::Result<bool> forEachJsonl(const std::string &Path, Fn &&F) {
  support::Result<std::string> Text = slurp(Path);
  if (!Text)
    return Text.error();
  std::istringstream In(Text.value());
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    support::Result<json::Value> V = json::parse(Line);
    if (!V)
      return support::Error(support::ErrorCode::Unknown,
                            Path + ":" + std::to_string(LineNo) + ": " +
                                V.error().Message);
    F(V.value());
  }
  return true;
}

/// Reads an optional whole-file artifact: absence leaves \p Has false,
/// an unparseable file is an error.
support::Result<bool> loadOptional(const std::string &Path, json::Value &Into,
                                   bool &Has) {
  support::Result<std::string> Text = slurp(Path);
  if (!Text)
    return false;
  support::Result<json::Value> V = parseFile(Path, Text.value());
  if (!V)
    return V.error();
  Into = std::move(V).value();
  Has = true;
  return true;
}

uint64_t hexId(const std::string &Hex) {
  return Hex.rfind("0x", 0) == 0 ? std::strtoull(Hex.c_str() + 2, nullptr, 16)
                                 : 0;
}

} // namespace

support::Result<LoadedRun> report::loadRun(const std::string &Dir) {
  LoadedRun Run;
  Run.Dir = Dir;

  std::string ManifestPath = Dir + "/" + ManifestFile;
  support::Result<std::string> ManifestText = slurp(ManifestPath);
  if (!ManifestText)
    return ManifestText.error();
  support::Result<json::Value> Manifest =
      parseFile(ManifestPath, ManifestText.value());
  if (!Manifest)
    return Manifest.error();
  Run.Manifest = std::move(Manifest).value();
  double Schema = Run.Manifest.number("schema");
  if (Schema != CurrentSchema)
    return support::Error(
        support::ErrorCode::Unknown,
        ManifestPath + format(": unsupported schema %g (this build reads %d)",
                              Schema, CurrentSchema));

  support::Result<bool> Evals = forEachJsonl(
      Dir + "/" + EvaluationsFile, [&Run](const json::Value &V) {
        EvalRecord R;
        R.Id = V.integer<uint64_t>("id");
        R.App = V.string("app");
        R.Generation = V.integer<int>("gen");
        R.Genome = V.string("genome");
        if (const json::Value *P = V.find("parents"))
          for (const json::Value &E : P->elements())
            R.Parents.push_back(json::toInteger<uint64_t>(E.asNumber()));
        R.Verdict = V.string("verdict");
        R.Error = V.string("error");
        R.Cache = V.string("cache");
        R.MedianCycles = V.number("median_cycles");
        R.CiLow = V.number("ci_low");
        R.CiHigh = V.number("ci_high");
        R.CodeSize = V.integer<uint64_t>("code_size");
        R.BinaryHash = V.string("binary_hash");
        R.SamplesSpent = V.integer<int>("samples_spent");
        R.EscalationRounds = V.integer<int>("escalation_rounds");
        R.EarlyStop = V.flag("early_stop");
        Run.Evaluations.push_back(std::move(R));
      });
  if (!Evals)
    return Evals.error();

  support::Result<bool> Gens = forEachJsonl(
      Dir + "/" + GenerationsFile, [&Run](const json::Value &V) {
        GenRecord R;
        R.App = V.string("app");
        R.Generation = V.integer<int>("gen");
        R.Evaluations = V.integer<int>("evaluations");
        R.Invalid = V.integer<int>("invalid");
        R.BestCycles = V.number("best_cycles");
        R.WorstCycles = V.number("worst_cycles");
        R.MeanCycles = V.number("mean_cycles");
        Run.Generations.push_back(std::move(R));
      });
  if (!Gens)
    return Gens.error();

  // fleet.jsonl and analysis.jsonl exist only for the runs that produce
  // them; a missing stream is normal, a present-but-unparseable one is
  // not.
  std::string FleetPath = Dir + "/" + FleetFile;
  if (std::ifstream(FleetPath).good()) {
    Run.HasFleetLog = true;
    support::Result<bool> Fleet =
        forEachJsonl(FleetPath, [&Run](const json::Value &V) {
          FleetStepRecord R;
          R.App = V.string("app");
          R.FleetDevices = V.integer<int>("devices");
          R.Step = V.integer<int>("round"); // Pinned pre-rename key.
          R.Device = V.integer<int>("device");
          R.VirtualTime = V.integer<uint64_t>("virtual_time");
          R.BestSpeedup = V.number("best_speedup");
          R.BestGenome = V.string("best_genome");
          R.BestSource = V.string("best_source");
          R.BestFromHint = V.flag("best_from_hint");
          R.HintsReceived = V.integer<int>("hints_received");
          R.HintsAdopted = V.integer<int>("hints_adopted");
          R.HintsRejected = V.integer<int>("hints_rejected");
          R.Evaluations = V.integer<int>("evaluations");
          R.DeviceClass = V.integer<int>("device_class");
          R.BestProvenance = hexId(V.string("best_provenance"));
          R.BestDiscoveryDevice =
              json::toInteger<int>(V.number("best_discovery_device", -1));
          R.BestDiscoveryTime = V.integer<uint64_t>("best_discovery_time");
          R.TransportAttempts = V.integer<int>("transport_attempts");
          R.TransportDrops = V.integer<uint64_t>("transport_drops");
          R.TransportTicks = V.integer<uint64_t>("transport_ticks");
          R.Delivered = V.flag("delivered", true);
          Run.Fleet.push_back(std::move(R));
        });
    if (!Fleet)
      return Fleet.error();
  }

  std::string AnalysisPath = Dir + "/" + AnalysisFile;
  if (std::ifstream(AnalysisPath).good()) {
    Run.HasAnalysisLog = true;
    support::Result<bool> Analysis =
        forEachJsonl(AnalysisPath, [&Run](const json::Value &V) {
          AnalysisRecord R;
          R.App = V.string("app");
          R.Root = V.integer<uint64_t>("root");
          R.RootName = V.string("root_name");
          R.Label = V.string("label");
          if (const json::Value *F = V.find("features")) {
            R.Cycles = F->number("cycles");
            R.Insns = F->number("insns");
            R.Branches = F->number("branches");
            R.Mispredicts = F->number("mispredicts");
            R.MemReads = F->number("mem_reads");
            R.MemWrites = F->number("mem_writes");
            R.CacheMisses = F->number("cache_misses");
            R.Allocs = F->number("allocs");
            R.AllocSlots = F->number("alloc_slots");
            R.NativeCycles = F->number("native_cycles");
            R.NativeShare = F->number("native_share");
            R.MemShare = F->number("mem_share");
            R.MispredictsPerKiloInsn =
                F->number("mispredicts_per_kiloinsn");
          }
          R.CriticalPathCycles = V.number("critical_path_cycles");
          if (const json::Value *C = V.find("critical_chain"))
            for (const json::Value &E : C->elements())
              R.CriticalChain.push_back(
                  json::toInteger<uint64_t>(E.asNumber()));
          R.Slack = V.number("slack");
          R.BudgetWeight = V.number("budget_weight");
          R.BudgetScale = V.number("budget_scale");
          R.Methods = V.integer<int>("methods");
          Run.Analysis.push_back(std::move(R));
        });
    if (!Analysis)
      return Analysis.error();
  }

  // telemetry.json exists only for fleet runs and metrics.json only for
  // observability builds.
  support::Result<bool> Telemetry = loadOptional(
      Dir + "/" + TelemetryFile, Run.Telemetry, Run.HasTelemetry);
  if (!Telemetry)
    return Telemetry.error();
  support::Result<bool> Metrics =
      loadOptional(Dir + "/" + MetricsFile, Run.Metrics, Run.HasMetrics);
  if (!Metrics)
    return Metrics.error();
  return Run;
}

// --- Validation -------------------------------------------------------------

ValidationResult report::validateRun(const LoadedRun &Run) {
  ValidationResult Result;
  auto Problem = [&Result](std::string Msg) {
    Result.Problems.push_back(std::move(Msg));
  };
  auto Warning = [&Result](std::string Msg) {
    Result.Warnings.push_back(std::move(Msg));
  };

  for (const char *Key : {"schema", "tool", "git", "seed", "jobs",
                          "config", "apps", "totals"})
    if (!Run.Manifest.find(Key))
      Problem(std::string("manifest.json: missing field \"") + Key + "\"");

  // A warm_start section only makes sense for a run that was pointed at a
  // store directory.
  const json::Value *Config = Run.Manifest.find("config");
  if (const json::Value *W = Run.Manifest.find("warm_start")) {
    if (!Config || Config->string("store").empty())
      Warning("manifest.json: warm_start section present but config.store "
              "is empty");
    if (W->number("entries_loaded") > 0 && !W->find("used"))
      Problem("manifest.json: warm_start section is missing \"used\"");
  }

  // Session accounting: a run that *claims* fresh (non-session)
  // evaluation backends pays the loader on every replay, so a metrics
  // snapshot with replays but zero replay.pages_restored contradicts the
  // claim — loader stats were dropped somewhere (the exact bug session
  // mode's LoaderStats semantics were designed to avoid). Session runs
  // legitimately restore pages only once per session, so the check only
  // applies when session_backends is explicitly false.
  const json::Value *Counters =
      Run.HasMetrics ? Run.Metrics.find("counters") : nullptr;
  if (Config && !Config->flag("session_backends", true) && Counters &&
      Counters->number("replay.replays") > 0.0 &&
      Counters->number("replay.pages_restored") == 0.0)
    Warning("metrics.json: replay.pages_restored is zero in a run claiming "
            "fresh (session_backends=false) backends — loader stats were "
            "lost");

  // A run built without the tracing/metrics layer records
  // observability:false and legitimately has no trace.json/metrics.json;
  // that is worth a heads-up, never a gate failure.
  if (!Run.Manifest.flag("observability", true))
    Warning("manifest.json: run built with ROPT_OBSERVABILITY=0 — "
            "trace.json/metrics.json are intentionally absent");

  static const std::set<std::string> Verdicts = {
      "ok", "compile-error", "runtime-crash", "runtime-timeout",
      "wrong-output"};
  static const std::set<std::string> Caches = {"miss", "genome-hit",
                                               "binary-hit"};

  uint64_t LastId = 0;
  for (const EvalRecord &R : Run.Evaluations) {
    std::string Where = "evaluations.jsonl id " + std::to_string(R.Id);
    if (R.Id != LastId + 1)
      Problem(Where + ": ids not dense (expected " +
              std::to_string(LastId + 1) + ")");
    LastId = R.Id;
    if (!Verdicts.count(R.Verdict))
      Problem(Where + ": unknown verdict \"" + R.Verdict + "\"");
    if (!Caches.count(R.Cache))
      Problem(Where + ": unknown cache origin \"" + R.Cache + "\"");
    if (R.Verdict == "ok" && !R.Error.empty())
      Problem(Where + ": ok verdict carries error \"" + R.Error + "\"");
    for (uint64_t Parent : R.Parents)
      if (Parent == 0 || Parent >= R.Id)
        Problem(Where + ": parent " + std::to_string(Parent) +
                " does not reference an earlier record");
    if (R.BinaryHash.rfind("0x", 0) != 0)
      Problem(Where + ": binary_hash is not a hex string");
  }

  // One search per app, so within an app the generations strictly
  // increase; every record counts at least one evaluation.
  std::map<std::string, int> LastGen;
  for (const GenRecord &G : Run.Generations) {
    std::string Where =
        "generations.jsonl " + G.App + " gen " + std::to_string(G.Generation);
    if (G.Evaluations <= 0)
      Problem(Where + ": empty generation record");
    if (G.Invalid > G.Evaluations)
      Problem(Where + ": invalid > evaluations");
    auto [It, First] = LastGen.try_emplace(G.App, G.Generation);
    if (!First) {
      if (G.Generation <= It->second)
        Problem(Where + ": out of order (after gen " +
                std::to_string(It->second) + ")");
      It->second = G.Generation;
    }
  }

  // --- Fleet artifacts. Presence mismatches with the manifest are
  // warnings; internally inconsistent records are problems.
  const json::Value *FleetM = Run.Manifest.find("fleet");
  if (FleetM && !Run.HasFleetLog)
    Warning("manifest.json has a fleet section but fleet.jsonl is "
            "missing (truncated run directory?)");
  if (!FleetM && Run.HasFleetLog)
    Warning("fleet.jsonl present but manifest.json has no fleet section");

  static const std::set<std::string> Sources = {"random", "seeded", "bred",
                                                "hill-climb"};
  uint64_t Adopted = 0, Rejected = 0;
  // The stream is written in event-commit order, so virtual times must be
  // non-decreasing within one (app, device-count) run.
  std::map<std::pair<std::string, int>, uint64_t> LastVirtual;
  for (size_t I = 0; I < Run.Fleet.size(); ++I) {
    const FleetStepRecord &R = Run.Fleet[I];
    std::string Where = "fleet.jsonl line " + std::to_string(I + 1);
    if (!R.BestGenome.empty() && !Sources.count(R.BestSource))
      Problem(Where + ": unknown best_source \"" + R.BestSource + "\"");
    if (R.HintsAdopted + R.HintsRejected > R.HintsReceived)
      Problem(Where + ": hints_adopted + hints_rejected > hints_received");
    if (R.FleetDevices > 0 && R.Device >= R.FleetDevices)
      Problem(Where + ": device id " + std::to_string(R.Device) +
              " out of range for a " + std::to_string(R.FleetDevices) +
              "-device run");
    if (R.BestSpeedup < 0.0)
      Problem(Where + ": negative best_speedup");
    uint64_t &Last = LastVirtual[{R.App, R.FleetDevices}];
    if (R.VirtualTime < Last)
      Problem(Where + ": virtual_time runs backwards (not commit order)");
    Last = R.VirtualTime;
    Adopted += static_cast<uint64_t>(R.HintsAdopted);
    Rejected += static_cast<uint64_t>(R.HintsRejected);
  }
  if (FleetM && Run.HasFleetLog) {
    if (FleetM->integer<uint64_t>("hints_adopted") != Adopted)
      Problem("manifest.json fleet.hints_adopted disagrees with the "
              "fleet.jsonl step log");
    if (FleetM->integer<uint64_t>("hints_rejected") != Rejected)
      Problem("manifest.json fleet.hints_rejected disagrees with the "
              "fleet.jsonl step log");
  }

  // --- Fleet telemetry. The sketch-merge law is checkable
  // from the artifact alone: fixed bounds make the merge a bucket-wise
  // sum, so class sketches must sum exactly to their cell total and cell
  // totals to the fleet total. Chains must be causally ordered (nothing
  // merges or gets adopted before it was discovered), and every
  // fleet.jsonl best_provenance must resolve to a chain of its cell.
  if (Run.HasFleetLog && !Run.HasTelemetry)
    Warning("fleet run without telemetry.json (truncated run directory?)");
  // Chain ids and (discovery time, restored flag) per (app, devices)
  // cell, for the record cross-check below.
  std::map<std::pair<std::string, int>,
           std::map<uint64_t, std::pair<uint64_t, bool>>>
      CellChains;
  if (Run.HasTelemetry) {
    const json::Value &T = Run.Telemetry;
    auto CountsOf = [](const json::Value *S) {
      std::vector<uint64_t> C;
      if (S)
        if (const json::Value *Co = S->find("counts"))
          for (const json::Value &E : Co->elements())
            C.push_back(json::toInteger<uint64_t>(E.asNumber()));
      return C;
    };
    auto AddInto = [](std::vector<uint64_t> &Acc,
                      const std::vector<uint64_t> &C) {
      if (Acc.size() < C.size())
        Acc.resize(C.size(), 0);
      for (size_t I = 0; I < C.size(); ++I)
        Acc[I] += C[I];
    };
    static const char *SketchKeys[] = {"speedup", "step_ticks",
                                       "hint_latency"};
    std::map<std::string, std::vector<uint64_t>> FleetAcc;
    if (const json::Value *Cells = T.find("cells")) {
      int CellNo = 0;
      for (const json::Value &Cell : Cells->elements()) {
        ++CellNo;
        std::string Where =
            "telemetry.json cell " + std::to_string(CellNo);
        std::string App = Cell.string("app");
        int Devices = Cell.integer<int>("devices");
        const json::Value *Total = Cell.find("total");
        for (const char *Key : SketchKeys) {
          std::vector<uint64_t> ClassSum;
          if (const json::Value *Classes = Cell.find("classes"))
            for (const json::Value &Cl : Classes->elements())
              AddInto(ClassSum, CountsOf(Cl.find(Key)));
          std::vector<uint64_t> CellTotal =
              CountsOf(Total ? Total->find(Key) : nullptr);
          if (ClassSum != CellTotal)
            Problem(Where + ": class " + Key +
                    " sketches do not sum to the cell total "
                    "(merge law violated)");
          AddInto(FleetAcc[Key], CellTotal);
        }
        if (const json::Value *Chains = Cell.find("chains"))
          for (const json::Value &Ch : Chains->elements()) {
            std::string Hex = Ch.string("id");
            uint64_t Id = hexId(Hex);
            uint64_t Disc = Ch.integer<uint64_t>("discovery_time");
            uint64_t Merge = Ch.integer<uint64_t>("first_merge_time");
            uint64_t Adopt = Ch.integer<uint64_t>("first_adopt_time");
            // A chain restored from a persistent store was discovered on
            // a prior run's virtual clock, so same-clock causality checks
            // do not apply to its discovery time.
            bool Restored = Ch.flag("restored");
            std::string ChWhere = Where + " chain " + Hex;
            if (Id == 0)
              Problem(ChWhere + ": unparseable chain id");
            if (!Restored && Merge != 0 && Merge < Disc)
              Problem(ChWhere + ": merged before it was discovered");
            if (!Restored && Adopt != 0 && Adopt < Disc)
              Problem(ChWhere + ": adopted before it was discovered");
            if (Ch.number("adoptions") > 0 && Ch.number("arrivals") == 0)
              Problem(ChWhere + ": adoptions without any hint arrival");
            CellChains[{App, Devices}][Id] = {Disc, Restored};
          }
      }
    }
    for (const char *Key : SketchKeys) {
      std::vector<uint64_t> FleetTotal;
      if (const json::Value *F = T.find("fleet"))
        AddInto(FleetTotal, CountsOf(F->find(Key)));
      if (FleetAcc[Key] != FleetTotal)
        Problem(std::string("telemetry.json: cell ") + Key +
                " totals do not sum to the fleet total "
                "(merge law violated)");
    }
    for (size_t I = 0; I < Run.Fleet.size(); ++I) {
      const FleetStepRecord &R = Run.Fleet[I];
      // Undelivered reports never reach the server, so their genomes'
      // chains legitimately may not exist — only delivered records must
      // resolve.
      if (R.BestProvenance == 0 || !R.Delivered)
        continue;
      std::string Where = "fleet.jsonl line " + std::to_string(I + 1);
      auto Cell = CellChains.find({R.App, R.FleetDevices});
      if (Cell == CellChains.end()) {
        Problem(Where + ": best_provenance set but telemetry.json has "
                        "no chains for this cell");
        continue;
      }
      auto Chain = Cell->second.find(R.BestProvenance);
      if (Chain == Cell->second.end()) {
        Problem(Where + ": best_provenance does not resolve to a "
                        "telemetry chain");
        continue;
      }
      if (R.BestDiscoveryTime != Chain->second.first)
        Problem(Where + ": best_discovery_time disagrees with the "
                        "chain's discovery_time");
      // Restored chains were discovered on a prior run's clock, which
      // may legitimately read later than this run's step times.
      if (!Chain->second.second && R.BestDiscoveryTime > R.VirtualTime)
        Problem(Where + ": best genome discovered after the step that "
                        "reported it (time travel)");
    }
  }

  // --- Region analysis. Absence is normal (harnesses whose pipeline
  // never produced one); present records must satisfy the allocator's
  // invariants.
  static const std::set<std::string> Labels = {
      "native_heavy", "memory_bound", "branchy", "compute", "balanced"};
  std::map<std::string, double> WeightSum;
  std::map<std::string, int> SlackZero;
  for (size_t I = 0; I < Run.Analysis.size(); ++I) {
    const AnalysisRecord &R = Run.Analysis[I];
    std::string Where = "analysis.jsonl line " + std::to_string(I + 1);
    if (!Labels.count(R.Label))
      Problem(Where + ": unknown bottleneck label \"" + R.Label + "\"");
    if (R.BudgetWeight < 0.0 || R.BudgetWeight > 1.0)
      Problem(Where + ": budget_weight outside [0, 1]");
    if (R.BudgetScale < 0.0 || R.BudgetScale > 1.0)
      Problem(Where + ": budget_scale outside [0, 1]");
    if (R.Slack < 0.0)
      Problem(Where + ": negative slack");
    if (R.Slack == 0.0) {
      ++SlackZero[R.App];
      if (R.BudgetScale != 1.0)
        Problem(Where + ": the slack-0 region must keep the full budget "
                        "(budget_scale 1)");
    }
    if (R.CriticalPathCycles > R.Cycles)
      Problem(Where + ": critical_path_cycles exceeds region cycles");
    WeightSum[R.App] += R.BudgetWeight;
  }
  for (const auto &KV : WeightSum) {
    if (std::fabs(KV.second - 1.0) > 1e-9)
      Problem("analysis.jsonl " + KV.first +
              ": budget weights do not sum to 1");
    if (SlackZero[KV.first] != 1)
      Problem("analysis.jsonl " + KV.first +
              ": expected exactly one slack-0 region");
  }
  const bool ManifestHasAnalysis = [&Run] {
    const json::Value *AppsV = Run.Manifest.find("apps");
    if (!AppsV)
      return false;
    for (const json::Value &AppV : AppsV->elements())
      if (AppV.find("region_analysis"))
        return true;
    return false;
  }();
  if (ManifestHasAnalysis && !Run.HasAnalysisLog)
    Warning("manifest.json has region_analysis sections but "
            "analysis.jsonl is missing (truncated run directory?)");
  if (!ManifestHasAnalysis && Run.HasAnalysisLog)
    Warning("analysis.jsonl present but manifest.json has no "
            "region_analysis section");
  return Result;
}

// --- Summarizing ------------------------------------------------------------

namespace {

/// Per-app rollup of the evaluation stream.
struct AppRoll {
  int Total = 0;
  std::map<std::string, int> ByVerdict;
  std::map<std::string, int> ByError; ///< Rejection reasons only.
  int CacheHits = 0;
  int CacheMisses = 0;
  double BestCycles = 0.0; ///< Min ok median; 0 when no ok record.
};

std::map<std::string, AppRoll> rollUp(const LoadedRun &Run) {
  std::map<std::string, AppRoll> Apps;
  for (const EvalRecord &R : Run.Evaluations) {
    AppRoll &A = Apps[R.App];
    ++A.Total;
    ++A.ByVerdict[R.Verdict];
    if (R.Verdict != "ok" && !R.Error.empty())
      ++A.ByError[R.Error];
    if (R.Cache == "miss")
      ++A.CacheMisses;
    else
      ++A.CacheHits;
    if (R.Verdict == "ok" &&
        (A.BestCycles == 0.0 || R.MedianCycles < A.BestCycles))
      A.BestCycles = R.MedianCycles;
  }
  return Apps;
}

/// App order as the evaluation stream first mentions them (map iteration
/// would alphabetize; the stream order is the run order).
std::vector<std::string> appOrder(const LoadedRun &Run) {
  std::vector<std::string> Order;
  std::set<std::string> Seen;
  for (const EvalRecord &R : Run.Evaluations)
    if (Seen.insert(R.App).second)
      Order.push_back(R.App);
  return Order;
}

} // namespace

std::string report::summarize(const LoadedRun &Run, bool Markdown) {
  std::ostringstream Out;
  const json::Value &M = Run.Manifest;
  const char *H = Markdown ? "## " : "=== ";
  const char *HEnd = Markdown ? "" : " ===";

  Out << H << "run " << Run.Dir << HEnd << "\n";
  Out << "tool: " << M.string("tool", "?") << "   git: "
      << M.string("git", "?") << "\n";
  Out << "seed: " << M.integer<uint64_t>("seed") << "   jobs: "
      << M.integer<int>("jobs")
      << "   evaluations: " << Run.Evaluations.size() << "\n";
  // Compile-memo reuse (DESIGN.md §18). With --jobs > 1 the counts depend
  // on which worker computes a state first, so they exist only in
  // metrics.json, never in the deterministic artifacts.
  if (const json::Value *C =
          Run.HasMetrics ? Run.Metrics.find("counters") : nullptr) {
    double Passes = C->number("compile.memo_transition_hits") +
                    C->number("compile.memo_transition_misses");
    double Codegen = C->number("compile.memo_codegen_hits") +
                     C->number("compile.memo_codegen_misses");
    auto Share = [&](const char *Hits, double Base) {
      return format("%.1f", Base > 0 ? 100.0 * C->number(Hits) / Base : 0.0);
    };
    if (Passes > 0)
      Out << "compile memo: " << Share("compile.memo_transition_hits", Passes)
          << "% of " << format("%.0f", Passes)
          << " pass applications reused, codegen "
          << Share("compile.memo_codegen_hits", Codegen) << "% of "
          << format("%.0f", Codegen) << " verified methods reused, "
          << format("%.0f", C->number("compile.memo_evictions"))
          << " evictions, "
          << format("%.0f", C->number("compile.memo_recomputes"))
          << " recomputes\n";
  }
  Out << "\n";

  std::map<std::string, AppRoll> Apps = rollUp(Run);
  for (const std::string &Name : appOrder(Run)) {
    const AppRoll &A = Apps[Name];
    Out << (Markdown ? "### " : "--- ") << Name
        << (Markdown ? "" : " ---") << "\n";

    Out << "verdicts:";
    for (const auto &KV : A.ByVerdict)
      Out << " " << KV.first << "=" << KV.second;
    Out << "  (total " << A.Total << ")\n";

    int CacheTotal = A.CacheHits + A.CacheMisses;
    Out << "cache: " << A.CacheHits << "/" << CacheTotal << " hits ("
        << format("%.1f", CacheTotal ? 100.0 * A.CacheHits / CacheTotal : 0.0)
        << "%)\n";

    const json::Value *AppM = nullptr;
    if (const json::Value *AppsV = M.find("apps"))
      for (const json::Value &AppV : AppsV->elements())
        if (!AppM && AppV.string("name") == Name)
          AppM = &AppV;

    // Replay-budget accounting (manifest "racing" per app), present in
    // both modes: spent vs the fixed-budget equivalent of the same fresh
    // measurements.
    const json::Value *R = AppM ? AppM->find("racing") : nullptr;
    if (R && R->number("fixed_budget") > 0.0) {
      double Spent = R->number("replays_spent");
      double Fixed = R->number("fixed_budget");
      Out << "replay budget: " << format("%.0f", Spent) << " spent vs "
          << format("%.0f", Fixed) << " fixed-budget equivalent ("
          << format("%.1f", 100.0 * (Fixed - Spent) / Fixed)
          << "% saved), early stops "
          << format("%.0f", R->number("early_stops")) << ", escalations "
          << format("%.0f", R->number("escalations")) << ", top-ups "
          << format("%.0f", R->number("top_ups")) << "\n";
    }

    // Fork-server session accounting (manifest "replay_backend" per
    // app): how the replays above were served.
    const json::Value *RB = AppM ? AppM->find("replay_backend") : nullptr;
    double SessionReplays = RB ? RB->number("session_replays") : 0.0;
    double FreshReplays = RB ? RB->number("fresh_replays") : 0.0;
    if (SessionReplays + FreshReplays > 0.0)
      Out << "replay backend: " << format("%.0f", SessionReplays)
          << " session replays across "
          << format("%.0f", RB->number("sessions_created")) << " sessions, "
          << format("%.0f", RB->number("delta_resets")) << " delta resets ("
          << format("%.1f", RB->number("pages_per_reset"))
          << " pages/reset), " << format("%.0f", FreshReplays) << " fresh, "
          << format("%.0f", RB->number("full_rebuilds")) << " rebuilds\n";

    if (!A.ByError.empty()) {
      // Top rejection reasons, most frequent first.
      std::vector<std::pair<int, std::string>> Reasons;
      for (const auto &KV : A.ByError)
        Reasons.push_back({KV.second, KV.first});
      std::sort(Reasons.rbegin(), Reasons.rend());
      Out << "rejections:";
      for (const auto &R : Reasons)
        Out << " " << R.second << "=" << R.first;
      Out << "\n";
    }

    bool Any = false;
    for (const GenRecord &G : Run.Generations) {
      if (G.App != Name)
        continue;
      if (!Any)
        Out << "best by generation:";
      Any = true;
      Out << " " << G.Generation << ":" << format("%.0f", G.BestCycles);
    }
    if (Any)
      Out << "\n";
    if (A.BestCycles != 0.0)
      Out << "best median cycles: " << format("%.1f", A.BestCycles)
          << "\n";
    // One line per candidate region from the observability loop (the
    // full story is `ropt-report analyze`).
    bool AnyRegion = false;
    for (const AnalysisRecord &R : Run.Analysis) {
      if (R.App != Name)
        continue;
      if (!AnyRegion)
        Out << "regions:";
      AnyRegion = true;
      Out << " " << R.RootName << "[" << R.Label << " "
          << format("%.0f", 100.0 * R.BudgetWeight) << "%]";
    }
    if (AnyRegion)
      Out << "\n";
    Out << "\n";
  }

  // Fleet section: manifest aggregate plus a per-(app, device-count)
  // step digest. Non-fleet runs have neither.
  const json::Value *F = M.find("fleet");
  if (F || Run.HasFleetLog) {
    Out << H << "fleet" << HEnd << "\n";
    if (F) {
      Out << "devices: " << F->string("devices", "?") << "   rounds: "
          << F->integer<int>("rounds") << "   top-k: "
          << F->integer<int>("top_k") << "\n";
      Out << "hints: " << format("%.0f", F->number("hints_published"))
          << " published, " << format("%.0f", F->number("hints_adopted"))
          << " adopted, " << format("%.0f", F->number("hints_rejected"))
          << " rejected\n";
      Out << "transport: " << format("%.0f", F->number("transport_attempts"))
          << " attempts, " << format("%.0f", F->number("transport_drops"))
          << " drops (p=" << format("%.2f", F->number("drop_prob"))
          << "), " << format("%.0f", F->number("deliveries_failed"))
          << " failed deliveries\n";
      Out << "reorders: " << format("%.0f", F->number("reorders"))
          << " drawn, " << format("%.0f", F->number("reorders_effective"))
          << " changed hint arrival order\n";
      Out << "best speedup: " << format("%.3f", F->number("best_speedup"))
          << "x\n";
      // Per-class leaderboard winners, one line per
      // (app, devices, class) cell.
      if (const json::Value *Boards = F->find("class_leaderboards"))
        for (const json::Value &Row : Boards->elements())
          Out << "class board " << Row.string("app") << " x"
              << Row.integer<int>("devices") << " c"
              << Row.integer<int>("class") << ": "
              << Row.string("genome") << " "
              << format("%.3f", Row.number("speedup")) << "x ("
              << Row.integer<int>("reports") << " reports"
              << (Row.flag("restored") ? ", restored" : "")
              << ")\n";
    }
    // The persistent-store warm start, if the run used one.
    if (const json::Value *W = Run.Manifest.find("warm_start")) {
      Out << "warm start: "
          << (W->flag("used") ? "yes" : "no")
          << ", night " << W->integer<int>("nights") << ", "
          << W->integer<int>("entries_loaded") << " entries ("
          << W->integer<int>("quarantined_loaded")
          << " quarantined) loaded, "
          << W->integer<int>("hints_injected")
          << " hints pre-seeded\n";
    }
    // Group the step log by (app, device count) in stream order.
    std::vector<std::pair<std::string, int>> Groups;
    for (const FleetStepRecord &R : Run.Fleet) {
      std::pair<std::string, int> Key{R.App, R.FleetDevices};
      if (std::find(Groups.begin(), Groups.end(), Key) == Groups.end())
        Groups.push_back(Key);
    }
    for (const auto &G : Groups) {
      Out << G.first << " x" << G.second << " devices:";
      std::map<int, double> BestByStep;
      uint64_t EndTime = 0;
      for (const FleetStepRecord &R : Run.Fleet)
        if (R.App == G.first && R.FleetDevices == G.second) {
          if (R.BestSpeedup > BestByStep[R.Step])
            BestByStep[R.Step] = R.BestSpeedup;
          EndTime = std::max(EndTime, R.VirtualTime);
        }
      for (const auto &KV : BestByStep)
        Out << " s" << KV.first << ":" << format("%.3f", KV.second) << "x";
      if (EndTime)
        Out << "  (vt " << EndTime << ")";
      Out << "\n";
    }
    // Per-device-class breakdown from the telemetry sketches.
    if (Run.HasTelemetry)
      if (const json::Value *Cells = Run.Telemetry.find("cells"))
        for (const json::Value &Cell : Cells->elements()) {
          Out << Cell.string("app") << " x"
              << Cell.integer<int>("devices")
              << " by device class:\n";
          Out << format("%8s %8s %10s %12s %10s %10s", "class", "devices",
                        "best", "quarantines", "lat p50", "lat p95")
              << "\n";
          const json::Value *Classes = Cell.find("classes");
          if (!Classes)
            continue;
          for (const json::Value &Cl : Classes->elements()) {
            const json::Value *Sp = Cl.find("speedup");
            const json::Value *HL = Cl.find("hint_latency");
            double Best = Sp && Sp->number("count") > 0 ? Sp->number("max")
                                                        : 0.0;
            Histogram::Snapshot Lat =
                HL ? fleet::sketchSnapshot(*HL)
                   : Histogram::Snapshot();
            Out << format(
                       "%8d %8d %9.3fx %12.0f %10.1f %10.1f",
                       Cl.integer<int>("class"),
                       Cl.integer<int>("devices"), Best,
                       Cl.number("quarantines"),
                       Lat.Count ? Lat.quantile(0.5) : 0.0,
                       Lat.Count ? Lat.quantile(0.95) : 0.0)
                << "\n";
          }
        }
    Out << "\n";
  }

  // Top spans by wall-clock, from the run's Chrome trace. Absent or
  // empty traces (ROPT_OBSERVABILITY=0 builds record observability:false
  // and write none) simply skip the section.
  if (support::Result<std::string> TraceText =
          slurp(Run.Dir + "/" + TraceFile)) {
    support::Result<analysis::SpanDag> Dag =
        analysis::SpanDag::fromChromeJson(TraceText.value());
    if (Dag && !Dag.value().nodes().empty()) {
      std::vector<analysis::SpanStats> Top = Dag.value().topSpans(10);
      Out << H << "top spans" << HEnd << "\n";
      Out << format("%-28s %8s %12s %12s", "name", "count", "total ms",
                    "self ms")
          << "\n";
      for (const analysis::SpanStats &S : Top)
        Out << format("%-28s %8llu %12.3f %12.3f", S.Name.c_str(),
                      static_cast<unsigned long long>(S.Count),
                      S.TotalUs / 1000.0, S.SelfUs / 1000.0)
            << "\n";
      Out << "\n";
    }
  }
  return Out.str();
}

// --- Analyzing --------------------------------------------------------------

std::string report::analyzeRun(const LoadedRun &Run,
                               const LoadedRun *Baseline) {
  std::ostringstream Out;
  const json::Value &M = Run.Manifest;

  Out << "=== analysis " << Run.Dir << " ===\n";
  Out << "tool: " << M.string("tool", "?") << "   seed: "
      << M.integer<uint64_t>("seed") << "\n";
  const json::Value *C = M.find("config");
  bool Guided = C && C->flag("analysis_guided");
  Out << "analysis-guided search: " << (Guided ? "on" : "off") << "\n\n";

  if (!Run.HasAnalysisLog) {
    Out << "no analysis.jsonl — no app produced a region analysis\n";
    return Out.str();
  }

  // Stream order is run order: regions arrive hottest-first per app.
  std::vector<std::string> Order;
  std::set<std::string> Seen;
  for (const AnalysisRecord &R : Run.Analysis)
    if (Seen.insert(R.App).second)
      Order.push_back(R.App);

  int LabelChanges = 0;
  for (const std::string &App : Order) {
    Out << "--- " << App << " ---\n";
    for (const AnalysisRecord &R : Run.Analysis) {
      if (R.App != App)
        continue;
      Out << (R.Slack == 0.0 ? "* " : "  ") << R.RootName << " ("
          << R.Methods << " methods): " << R.Label << ", cycles "
          << format("%.0f", R.Cycles) << ", critical path "
          << format("%.0f", R.CriticalPathCycles) << ", slack "
          << format("%.0f", R.Slack) << ", budget "
          << format("%.1f", 100.0 * R.BudgetWeight) << "% (scale "
          << format("%.3f", R.BudgetScale) << ")\n";
      Out << "    features: native " << format("%.2f", R.NativeShare)
          << ", mem " << format("%.2f", R.MemShare) << ", mispredicts/ki "
          << format("%.2f", R.MispredictsPerKiloInsn) << "\n";
      if (R.Slack == 0.0 && !R.CriticalChain.empty()) {
        Out << "    critical chain:";
        for (uint64_t Id : R.CriticalChain)
          Out << " m" << Id;
        Out << "\n";
      }
      if (Baseline)
        for (const AnalysisRecord &B : Baseline->Analysis)
          if (B.App == R.App && B.Root == R.Root && B.Label != R.Label) {
            ++LabelChanges;
            Out << "    LABEL CHANGE vs baseline: " << B.Label << " -> "
                << R.Label << "\n";
          }
    }
    Out << "\n";
  }
  if (Baseline)
    Out << "label changes vs " << Baseline->Dir << ": " << LabelChanges
        << "\n";
  return Out.str();
}

// --- Diffing ----------------------------------------------------------------

namespace {

/// Fleet cells of a run in stream order, with each cell's final best
/// speedup (max over its step records — the device-best is monotone, so
/// this is the end-of-run fleet best).
std::vector<std::pair<std::pair<std::string, int>, double>>
cellBests(const LoadedRun &Run) {
  std::vector<std::pair<std::pair<std::string, int>, double>> Cells;
  for (const FleetStepRecord &R : Run.Fleet) {
    std::pair<std::string, int> Key{R.App, R.FleetDevices};
    auto It = std::find_if(Cells.begin(), Cells.end(),
                           [&Key](const auto &C) { return C.first == Key; });
    if (It == Cells.end())
      Cells.push_back({Key, R.BestSpeedup});
    else
      It->second = std::max(It->second, R.BestSpeedup);
  }
  return Cells;
}

using CellList = std::vector<std::pair<std::pair<std::string, int>, double>>;

/// Pairs baseline cells with new-run cells for the fleet gate: exact
/// (app, device-count) matches first, then — because churn folds late
/// joiners into a cell's participant count — a same-app fallback when
/// each run has exactly one cell of that app left over. Returns, for
/// each baseline cell, the index of its new-run partner (-1: unmatched).
std::vector<int> matchFleetCells(const CellList &A, const CellList &B) {
  std::vector<int> Match(A.size(), -1);
  std::vector<bool> Used(B.size(), false);
  for (size_t I = 0; I < A.size(); ++I)
    for (size_t J = 0; J < B.size(); ++J)
      if (!Used[J] && B[J].first == A[I].first) {
        Match[I] = static_cast<int>(J);
        Used[J] = true;
        break;
      }
  for (size_t I = 0; I < A.size(); ++I) {
    if (Match[I] != -1)
      continue;
    const std::string &App = A[I].first.first;
    size_t LeftA = 0;
    for (size_t K = 0; K < A.size(); ++K)
      if (Match[K] == -1 && A[K].first.first == App)
        ++LeftA;
    int Cand = -1;
    size_t LeftB = 0;
    for (size_t J = 0; J < B.size(); ++J)
      if (!Used[J] && B[J].first.first == App) {
        ++LeftB;
        Cand = static_cast<int>(J);
      }
    if (LeftA == 1 && LeftB == 1) {
      Match[I] = Cand;
      Used[static_cast<size_t>(Cand)] = true;
    }
  }
  return Match;
}

/// The fleet gate shared by diffRuns and fleetReport: each baseline
/// cell's final best speedup against its matched new-run cell. Appends
/// regression/improvement/unmatched lines to \p Text and returns the
/// regression count. Unmatched cells are noted but never gate —
/// device-count sweeps legitimately differ between runs.
int gateFleetCells(const CellList &CellsA, const CellList &CellsB,
                   const std::string &DirA, const std::string &DirB,
                   double Threshold, std::ostringstream &Text) {
  int Regressions = 0;
  std::vector<int> Match = matchFleetCells(CellsA, CellsB);
  std::vector<bool> Used(CellsB.size(), false);
  for (int J : Match)
    if (J >= 0)
      Used[static_cast<size_t>(J)] = true;
  for (size_t I = 0; I < CellsA.size(); ++I) {
    std::string Cell =
        CellsA[I].first.first + " x" + std::to_string(CellsA[I].first.second);
    if (Match[I] < 0) {
      Text << Cell << ": fleet cell only in baseline " << DirA << "\n";
      continue;
    }
    const auto &CB = CellsB[static_cast<size_t>(Match[I])];
    if (CB.first != CellsA[I].first)
      Cell += " -> x" + std::to_string(CB.first.second);
    double BestA = CellsA[I].second, BestB = CB.second;
    if (BestA <= 0.0)
      continue;
    double Rel = (BestA - BestB) / BestA;
    if (Rel > Threshold) {
      ++Regressions;
      Text << Cell << ": FLEET REGRESSION best speedup "
           << format("%.3f", BestA) << "x -> " << format("%.3f", BestB)
           << "x (-" << format("%.1f", 100.0 * Rel) << "%)\n";
    } else if (Rel < -Threshold) {
      Text << Cell << ": fleet improved best " << format("%.3f", BestA)
           << "x -> " << format("%.3f", BestB) << "x\n";
    }
  }
  for (size_t J = 0; J < CellsB.size(); ++J)
    if (!Used[J])
      Text << CellsB[J].first.first << " x" << CellsB[J].first.second
           << ": fleet cell only in new run " << DirB << "\n";
  return Regressions;
}

} // namespace

DiffResult report::diffRuns(const LoadedRun &A, const LoadedRun &B,
                            const DiffOptions &Opt) {
  DiffResult Out;
  std::ostringstream Text;

  std::map<std::string, AppRoll> RollA = rollUp(A), RollB = rollUp(B);

  for (const std::string &Name : appOrder(A)) {
    if (!RollB.count(Name)) {
      Text << Name << ": only in baseline " << A.Dir << "\n";
      continue;
    }
    const AppRoll &RA = RollA[Name];
    const AppRoll &RB = RollB[Name];

    // Fitness gate: best-of-run median cycles, B relative to A.
    if (RA.BestCycles > 0.0 && RB.BestCycles > 0.0) {
      double Rel = (RB.BestCycles - RA.BestCycles) / RA.BestCycles;
      if (Rel > Opt.FitnessThreshold) {
        ++Out.FitnessRegressions;
        Text << Name << ": FITNESS REGRESSION best "
             << format("%.1f", RA.BestCycles) << " -> "
             << format("%.1f", RB.BestCycles) << " (+"
             << format("%.1f", 100.0 * Rel) << "%)\n";
      } else if (Rel < -Opt.FitnessThreshold) {
        Text << Name << ": improved best " << format("%.1f", RA.BestCycles)
             << " -> " << format("%.1f", RB.BestCycles) << " ("
             << format("%.1f", 100.0 * Rel) << "%)\n";
      }
    } else if (RA.BestCycles > 0.0 && RB.BestCycles == 0.0) {
      ++Out.FitnessRegressions;
      Text << Name << ": FITNESS REGRESSION — baseline found a valid "
                      "binary, new run did not\n";
    }

    // Verdict-mix gate: share of each verdict among all evaluations.
    std::set<std::string> Kinds;
    for (const auto &KV : RA.ByVerdict)
      Kinds.insert(KV.first);
    for (const auto &KV : RB.ByVerdict)
      Kinds.insert(KV.first);
    for (const std::string &Kind : Kinds) {
      double ShareA =
          RA.Total ? static_cast<double>(RA.ByVerdict.count(Kind)
                                             ? RA.ByVerdict.at(Kind)
                                             : 0) /
                         RA.Total
                   : 0.0;
      double ShareB =
          RB.Total ? static_cast<double>(RB.ByVerdict.count(Kind)
                                             ? RB.ByVerdict.at(Kind)
                                             : 0) /
                         RB.Total
                   : 0.0;
      if (std::fabs(ShareA - ShareB) > Opt.MixThreshold) {
        ++Out.VerdictShifts;
        Text << Name << ": verdict mix shift " << Kind << " "
             << format("%.1f", 100.0 * ShareA) << "% -> "
             << format("%.1f", 100.0 * ShareB) << "%\n";
      }
    }
  }
  for (const std::string &Name : appOrder(B))
    if (!RollA.count(Name))
      Text << Name << ": only in new run " << B.Dir << "\n";

  // Fleet gate: each (app, device-count) cell's final best
  // speedup, B against A (churned cells pair by app when the device
  // count shifted — see matchFleetCells).
  Out.FleetRegressions = gateFleetCells(cellBests(A), cellBests(B), A.Dir,
                                        B.Dir, Opt.FleetThreshold, Text);

  if (Out.FitnessRegressions == 0 && Out.VerdictShifts == 0 &&
      Out.FleetRegressions == 0)
    Text << "no regressions (" << A.Dir << " vs " << B.Dir << ")\n";
  Out.Text = Text.str();
  return Out;
}

// --- Fleet report -----------------------------------------------------------

FleetDiffResult report::fleetReport(const LoadedRun &Run,
                                    const LoadedRun *Baseline,
                                    double Threshold) {
  FleetDiffResult Out;
  std::ostringstream Text;
  Text << "=== fleet " << Run.Dir << " ===\n";
  if (!Run.HasFleetLog) {
    Text << "no fleet.jsonl — not a fleet run\n";
    Out.Text = Text.str();
    return Out;
  }

  auto Cells = cellBests(Run);
  for (const auto &Cell : Cells) {
    const std::string &App = Cell.first.first;
    int Devices = Cell.first.second;
    Text << "--- " << App << " x" << Devices << " devices (best "
         << format("%.3f", Cell.second) << "x) ---\n";

    // Step curves per device class: best speedup any class member had
    // reported by each step index.
    std::map<int, std::map<int, double>> ByClass; // class -> step -> best
    int64_t Attempts = 0; // Summed from the records: wider than each.
    int Steps = 0, Delivered = 0;
    double Drops = 0.0, Ticks = 0.0;
    for (const FleetStepRecord &R : Run.Fleet) {
      if (R.App != App || R.FleetDevices != Devices)
        continue;
      double &Best = ByClass[R.DeviceClass][R.Step];
      Best = std::max(Best, R.BestSpeedup);
      ++Steps;
      Attempts += R.TransportAttempts;
      Drops += R.TransportDrops;
      Ticks += R.TransportTicks;
      Delivered += R.Delivered ? 1 : 0;
    }
    for (const auto &KV : ByClass) {
      Text << "class " << KV.first << ":";
      for (const auto &RK : KV.second)
        Text << " s" << RK.first << ":" << format("%.3f", RK.second)
             << "x";
      Text << "\n";
    }
    Text << "transport: " << Attempts << " attempts, "
         << format("%.0f", Drops) << " drops, " << Delivered << "/"
         << Steps << " reports delivered, avg latency "
         << format("%.1f", Attempts ? Ticks / Attempts : 0.0)
         << " ticks\n";

    // Top provenance chains of this cell, winner first, then by fleet
    // reach (adoptions, arrivals).
    if (!Run.HasTelemetry)
      continue;
    const json::Value *CellsV = Run.Telemetry.find("cells");
    if (!CellsV)
      continue;
    for (const json::Value &CellV : CellsV->elements()) {
      if (CellV.string("app") != App ||
          CellV.integer<int>("devices") != Devices)
        continue;
      const json::Value *Chains = CellV.find("chains");
      if (!Chains)
        break;
      auto Won = [](const json::Value &Ch) { return Ch.flag("won"); };
      std::vector<const json::Value *> Sorted;
      for (const json::Value &Ch : Chains->elements())
        Sorted.push_back(&Ch);
      std::stable_sort(Sorted.begin(), Sorted.end(),
                       [&Won](const json::Value *L, const json::Value *R) {
                         if (Won(*L) != Won(*R))
                           return Won(*L);
                         if (L->number("adoptions") != R->number("adoptions"))
                           return L->number("adoptions") >
                                  R->number("adoptions");
                         return L->number("arrivals") > R->number("arrivals");
                       });
      size_t Shown = std::min<size_t>(Sorted.size(), 5);
      Text << "chains (" << Shown << " of " << Sorted.size() << "):\n";
      for (size_t I = 0; I < Shown; ++I) {
        const json::Value &Ch = *Sorted[I];
        double Arrivals = Ch.number("arrivals");
        Text << "  " << Ch.string("id") << " " << Ch.string("key")
             << ": discovered d"
             << Ch.integer<int>("device") << "@vt"
             << format("%.0f", Ch.number("discovery_time")) << ", merged@vt"
             << format("%.0f", Ch.number("first_merge_time")) << ", "
             << format("%.0f", Arrivals) << " arrivals";
        if (Arrivals > 0)
          Text << " (mean latency "
               << format("%.1f",
                         Ch.number("latency_ticks_total") / Arrivals)
               << " ticks)";
        Text << ", " << format("%.0f", Ch.number("adoptions"))
             << " adopted, " << format("%.0f", Ch.number("rejections"))
             << " rejected";
        if (Ch.number("adoptions") > 0)
          Text << ", first adopter d"
               << Ch.integer<int>("first_adopt_device") << "@vt"
               << format("%.0f", Ch.number("first_adopt_time"));
        if (Won(Ch))
          Text << "  [winner]";
        Text << "\n";
      }
      break;
    }
  }

  // Baseline gate: same per-cell final-best comparison as diffRuns.
  if (Baseline) {
    Out.Regressions = gateFleetCells(cellBests(*Baseline), Cells,
                                     Baseline->Dir, Run.Dir, Threshold, Text);
    if (Out.Regressions == 0)
      Text << "no fleet regressions (" << Baseline->Dir << " vs "
           << Run.Dir << ")\n";
  }
  Out.Text = Text.str();
  return Out;
}
