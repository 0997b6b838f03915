//===- fleet/Telemetry.h - Provenance chains + mergeable sketches -*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fleet-wide telemetry (DESIGN.md §15), in two halves:
///
///  * **Hint provenance chains.** Every genome a device reports carries a
///    `Provenance` minted at the discovering device's evaluation (device,
///    step, virtual time, 64-bit id). The server's leaderboard keeps the
///    first reporter's provenance, hints carry it back out, and adopting
///    devices thread it through `GeneticSearch::seedPopulation` — so one
///    chain records a genome's whole fleet journey: discovery, first
///    server merge, every hint delivery (with virtual-time latency),
///    adoptions, re-verification rejections, and whether it won the run.
///
///  * **Mergeable per-class sketches.** Fixed-bucket histograms (speedup,
///    step duration, hint latency) accumulated per device and merged
///    associatively upward: device -> class -> cell -> fleet. Fixed
///    bounds make the merge a plain bucket-wise sum, so the fleet total
///    is a pure function of the observations regardless of merge
///    grouping — the property `ropt-report validate` checks.
///
/// Everything the report layer reads or writes (`Provenance`, the sketch
/// bounds, writer and reader, `ProvenanceChain`, `FleetTelemetry`) is defined
/// inline, following the `TransportStats` precedent, so `ropt_report`
/// can persist and parse telemetry without linking `ropt_fleet`. Only
/// `TelemetryHub` — the coordinator-side accumulator — lives in
/// Telemetry.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_FLEET_TELEMETRY_H
#define ROPT_FLEET_TELEMETRY_H

#include "analysis/FleetTrace.h"
#include "fleet/EventLoop.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace ropt {
namespace fleet {

/// Where a genome came from: minted once at the discovering device's
/// evaluation and carried verbatim through server merge, hint delivery,
/// re-verification and GA seeding. Id 0 means "no provenance" (code paths
/// outside the fleet); Device -1 marks server-injected genomes (warm starts,
/// safety tests) whose discovery time is unknown.
struct Provenance {
  uint64_t Id = 0;
  int Device = -1;
  int Step = 0;
  VirtualTime Time = 0;
};

/// Deterministic chain id: FNV-1a over the canonical genome name mixed
/// with the discovering (device, step). Two devices independently
/// discovering the same genome mint distinct chains.
inline uint64_t mintProvenanceId(int Device, int Step,
                                 const std::string &Key) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  for (char C : Key)
    Mix(static_cast<unsigned char>(C));
  Mix(static_cast<uint64_t>(Device + 2) * 0x9e3779b97f4a7c15ull);
  Mix(static_cast<uint64_t>(Step + 1));
  return H ? H : 1; // 0 stays the "no provenance" sentinel.
}

/// "0x%016llx" spelling shared by every telemetry artifact.
inline std::string provenanceHex(uint64_t Id) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(Id));
  return Buf;
}

/// The three canonical telemetry sketches. A sketch is a
/// support::Histogram::Snapshot whose bucket bounds are a pure function
/// of its kind, so any two sketches of the same kind merge by bucket-wise
/// addition — which is what lets per-device sketches roll up to class,
/// cell and fleet totals in any grouping.
enum class SketchKind {
  Speedup,     ///< Per-step best speedup (x over Android baseline).
  StepTicks,   ///< Virtual step duration in ticks.
  HintLatency, ///< Discovery -> hint-arrival latency in ticks.
};

inline std::vector<double> sketchBounds(SketchKind K) {
  switch (K) {
  case SketchKind::Speedup:
    return {0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0};
  case SketchKind::StepTicks:
    return {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
  case SketchKind::HintLatency:
    return {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  }
  return {};
}

/// A sketch as telemetry.json spells it:
/// `{"bounds":[...],"counts":[...],"count":N,"sum":S,"min":m,"max":M}`.
inline std::string sketchJson(const Histogram::Snapshot &S) {
  json::Builder B;
  json::Builder Bo(/*Array=*/true);
  for (double Bd : S.Bounds)
    Bo.element(Bd);
  B.fieldRaw("bounds", std::move(Bo).str());
  json::Builder Co(/*Array=*/true);
  for (uint64_t C : S.Counts)
    Co.element(C);
  B.fieldRaw("counts", std::move(Co).str());
  B.field("count", S.Count)
      .field("sum", S.Sum)
      .field("min", S.Min)
      .field("max", S.Max);
  return std::move(B).str();
}

/// The reader half of sketchJson(). A damaged sketch — counts that do not
/// fit the bounds, or a minimum above the maximum — reads as an empty
/// sketch over its bounds.
inline Histogram::Snapshot sketchSnapshot(const json::Value &V) {
  std::vector<double> Bounds;
  if (const json::Value *Bo = V.find("bounds"))
    for (const json::Value &E : Bo->elements())
      Bounds.push_back(E.asNumber());
  Histogram::Snapshot S(std::move(Bounds));
  std::vector<uint64_t> Counts;
  if (const json::Value *Co = V.find("counts"))
    for (const json::Value &E : Co->elements())
      Counts.push_back(json::toInteger<uint64_t>(E.asNumber()));
  double Min = V.number("min"), Max = V.number("max");
  if (Counts.size() != S.Counts.size() || Min > Max)
    return S;
  S.Counts = std::move(Counts);
  S.Count = V.integer<uint64_t>("count");
  S.Sum = V.number("sum");
  S.Min = Min;
  S.Max = Max;
  return S;
}

/// One genome's fleet journey, keyed by its provenance id.
struct ProvenanceChain {
  uint64_t Id = 0;
  std::string Key;               ///< Canonical genome name.
  int Device = -1;               ///< Discovering device (-1 = injected).
  int Step = 0;                  ///< Discovery step on that device.
  VirtualTime DiscoveryTime = 0; ///< Virtual time of discovery.
  VirtualTime FirstMergeTime = 0; ///< First server merge (0 = never).
  uint64_t Arrivals = 0;          ///< Hint deliveries carrying the chain.
  uint64_t LatencyTicksTotal = 0; ///< Sum of arrival - discovery ticks.
  uint64_t Adoptions = 0;         ///< Foreign devices that verified + seeded.
  uint64_t Rejections = 0;        ///< Re-verification rejections.
  int FirstAdoptDevice = -1;
  VirtualTime FirstAdoptTime = 0;
  bool Won = false; ///< Ended the run as the fleet-best genome.
  /// The chain was restored from a persistent store: its discovery
  /// instant is on a *prior run's* virtual clock, so this run's
  /// merge/adoption times are incomparable with it (and validators must
  /// not apply same-clock causality checks).
  bool Restored = false;

  std::string json() const {
    json::Builder B;
    B.field("id", provenanceHex(Id))
        .field("key", Key)
        .field("device", Device)
        .field("step", Step)
        .field("discovery_time", DiscoveryTime)
        .field("first_merge_time", FirstMergeTime)
        .field("arrivals", Arrivals)
        .field("latency_ticks_total", LatencyTicksTotal)
        .field("adoptions", Adoptions)
        .field("rejections", Rejections)
        .field("first_adopt_device", FirstAdoptDevice)
        .field("first_adopt_time", FirstAdoptTime)
        .field("won", Won)
        .field("restored", Restored);
    return std::move(B).str();
  }
};

/// The three canonical sketches, bundled for each aggregation level.
struct SketchSet {
  Histogram::Snapshot Speedup{sketchBounds(SketchKind::Speedup)};
  Histogram::Snapshot StepTicks{sketchBounds(SketchKind::StepTicks)};
  Histogram::Snapshot HintLatency{sketchBounds(SketchKind::HintLatency)};

  SketchSet &operator+=(const SketchSet &O) {
    Speedup += O.Speedup;
    StepTicks += O.StepTicks;
    HintLatency += O.HintLatency;
    return *this;
  }

  /// Appends the three sketches to \p B as fields.
  void emitJson(json::Builder &B) const {
    B.fieldRaw("speedup", sketchJson(Speedup))
        .fieldRaw("step_ticks", sketchJson(StepTicks))
        .fieldRaw("hint_latency", sketchJson(HintLatency));
  }

  std::string json() const {
    json::Builder B;
    emitJson(B);
    return std::move(B).str();
  }
};

/// Class-level merge of its member devices' sketches.
struct ClassTelemetry {
  int ClassId = 0;
  int Devices = 0;          ///< Devices assigned to the class.
  uint64_t Quarantines = 0; ///< Hint rejections issued by members.
  SketchSet Sketches;

  std::string json() const {
    json::Builder B;
    B.field("class", ClassId)
        .field("devices", Devices)
        .field("quarantines", Quarantines);
    Sketches.emitJson(B);
    return std::move(B).str();
  }
};

/// One coordinator cell's telemetry: per-class sketches, their cell-level
/// merge, and every provenance chain, in discovery order.
struct FleetTelemetry {
  std::string App;
  int Devices = 0;
  std::vector<ClassTelemetry> Classes; ///< Class-id order.
  SketchSet Total;                     ///< Merge of Classes, in order.
  std::vector<ProvenanceChain> Chains; ///< (DiscoveryTime, Id) order.
  uint64_t DroppedEvents = 0;          ///< Trace events the cap dropped.

  std::string json() const {
    json::Builder B;
    B.field("app", App).field("devices", Devices);
    json::Builder Cl(/*Array=*/true);
    for (const ClassTelemetry &C : Classes)
      Cl.elementRaw(C.json());
    B.fieldRaw("classes", std::move(Cl).str());
    B.fieldRaw("total", Total.json());
    json::Builder Ch(/*Array=*/true);
    for (const ProvenanceChain &C : Chains)
      Ch.elementRaw(C.json());
    B.fieldRaw("chains", std::move(Ch).str());
    B.field("dropped_events", DroppedEvents);
    return std::move(B).str();
  }
};

/// The coordinator-side accumulator: owns per-device bounded trace-event
/// buffers, per-class sketches, and the chain table for one cell. Every
/// method is called from serial contexts only (pre-run seeding and event
/// loop commits), so no locking — determinism falls out of commit order.
class TelemetryHub {
public:
  /// \p EventsPerDevice bounds each device's (and the server track's)
  /// trace-event buffer; the oldest events drop first, counted by the
  /// `fleet.telemetry_dropped` metric and FleetTelemetry::DroppedEvents.
  TelemetryHub(std::string App, int Devices, int NumClasses,
               size_t EventsPerDevice);

  /// Declares a device's class before any of its events arrive.
  void setDeviceClass(int Device, int ClassId);

  /// A churn joiner's first step got scheduled at \p At.
  void onJoin(int Device, VirtualTime At);
  /// A device died at \p At (its in-flight step was discarded).
  void onLeave(int Device, VirtualTime At);
  /// A message (step report or hint set) left \p Device at \p Send and
  /// arrives at \p Arrive.
  void onDelivery(bool HintChannel, int Device, VirtualTime Send,
                  VirtualTime Arrive);
  /// The server merged \p Device's step report at \p At: chains named in
  /// it record their first merge time.
  void onMerge(int Device, VirtualTime At);
  /// A report entry with provenance \p P (genome \p Key) reached the
  /// server at \p At.
  void onGenomeMerged(const Provenance &P, const std::string &Key,
                      VirtualTime At);
  /// One hint carrying \p P arrived at a live \p Device at \p At:
  /// observes the discovery->arrival latency into the receiving class's
  /// sketch and the chain.
  void onHintArrival(int Device, const Provenance &P, const std::string &Key,
                     VirtualTime At);
  /// \p Device verified and seeded the chain \p ProvId at step start
  /// \p At.
  void onAdoption(int Device, uint64_t ProvId, VirtualTime At);
  /// \p Device's re-verification rejected the chain \p ProvId.
  void onRejection(int Device, uint64_t ProvId);
  /// One finished device step: span + speedup/duration sketches.
  void onStep(int Device, int StepIndex, VirtualTime Start, VirtualTime End,
              double BestSpeedup);

  /// Flags the chain that produced the run's best genome.
  void markWinner(uint64_t ProvId);

  /// Pre-registers \p P as a chain restored from a persistent store:
  /// its discovery time is a prior run's clock, so hint-latency
  /// observations and same-clock causality checks must not apply. Call
  /// before the loop runs (serial seeding context).
  void markRestored(const Provenance &P, const std::string &Key);

  /// The merged cell telemetry (per-class -> total, chains sorted by
  /// discovery time then id).
  FleetTelemetry telemetry() const;

  /// All surviving trace events in `(Time, Seq)` order.
  std::vector<analysis::FleetTraceEvent> traceEvents() const;

private:
  void push(int Device, analysis::FleetTraceEvent E);
  ProvenanceChain &chainFor(const Provenance &P, const std::string &Key);

  std::string App;
  int Devices = 0;
  int NumClasses = 1;
  size_t EventsPerDevice = 0;
  uint64_t NextSeq = 0;
  uint64_t NextFlowId = 1;
  uint64_t Dropped = 0;
  std::vector<int> DeviceClass;
  /// Buffer 0 is the server track; buffer 1+d is device d.
  std::vector<std::deque<analysis::FleetTraceEvent>> Buffers;
  std::vector<ClassTelemetry> Classes;
  std::map<uint64_t, ProvenanceChain> Chains;
};

} // namespace fleet
} // namespace ropt

#endif // ROPT_FLEET_TELEMETRY_H
