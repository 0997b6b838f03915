//===- fleet/Coordinator.h - Event-driven fleet simulation ------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a device population against one server as a deterministic
/// discrete-event simulation (DESIGN.md §14). The paper's deployment
/// model is an install base of phones that report whenever they finish —
/// not a lock-step barrier — so there are no rounds here, only events on
/// the fleet EventLoop's virtual clock:
///
///   StepExec(d)    the device runs one warm-started search step. The
///                  expensive compute runs on a pool lane (one lane per
///                  device class, so a shared class engine never sees two
///                  concurrent members); the commit schedules...
///   StepDone(d)    ...at begin + the step's virtual duration (derived
///                  from the evaluation work done and the device's cost
///                  scale). Logs the step, applies churn (a device past
///                  its leave tick dies here — results discarded), and
///                  plans the report's delivery through the transport.
///   ReportArrive   the report lands at the server after real in-flight
///                  latency: merge into the leaderboard (TTL-stamped),
///                  snapshot the hint set *at arrival time*, and plan the
///                  hint response's delivery back to the device.
///   HintArrive     the hints land in the device's mailbox — possibly
///                  mid-step, in which case they seed the step after the
///                  next. A hint push overtaken in flight (a later send
///                  arriving first) is counted in `reorders_effective`:
///                  reordering now deterministically changes which hints
///                  seed which search, instead of being hidden by a
///                  barrier.
///
/// Devices self-schedule: after each step the next StepExec fires a
/// short idle later, up to the configured step count; joiners start at
/// their seeded join tick. The §9 determinism contract holds at any
/// `--jobs` because every shared-state mutation is an event commit and
/// commits serialize in `(virtual time, seq)` order — FleetResult::
/// digest() captures exactly that scheduling-independent outcome.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_FLEET_COORDINATOR_H
#define ROPT_FLEET_COORDINATOR_H

#include "fleet/Device.h"
#include "fleet/EventLoop.h"
#include "fleet/Server.h"
#include "fleet/Telemetry.h"
#include "fleet/Transport.h"

#include <string>
#include <vector>

namespace ropt {
namespace report {
class RunReport;
} // namespace report

namespace fleet {

/// Seeded population churn: which devices die mid-run and which join
/// late, all derived from (fleet seed, device id) so a churn run is as
/// replayable as a stable one.
struct Churn {
  /// Each of the initial devices leaves with this probability; a leaver
  /// dies at a seeded tick in [HorizonTicks/4, HorizonTicks] — its
  /// in-flight step is discarded and it never reports again.
  double LeaveFraction = 0.0;
  /// floor(JoinFraction * Devices) extra devices join at seeded ticks in
  /// [1, HorizonTicks] and run the full step count from there.
  double JoinFraction = 0.0;
  /// The virtual-time span the leave/join ticks are drawn from.
  VirtualTime HorizonTicks = 1500;
};

/// Idle ticks between a step's completion and the next step's start (the
/// user's next app session). Covers a healthy round trip, so a timely
/// hint response seeds the next step and a retried or reordered one
/// deterministically misses it.
inline constexpr VirtualTime IdleTicks = 16;
/// Devices start their first step at a seeded tick in
/// [1, 1 + StartSpreadTicks] — an install base never starts in phase.
inline constexpr VirtualTime StartSpreadTicks = 8;
/// Step starts are rounded up to this grid so device computes share ticks
/// and batch on the event loop (see EventLoop.h: parallelism comes from
/// the schedule, the loop itself is strictly ordered).
inline constexpr VirtualTime StepGridTicks = 32;

/// The one fleet-layer configuration aggregate (mirrors
/// core::PipelineConfig): population shape, heterogeneity, network
/// degradation, retry policy and churn, with paperDefaults() as the
/// deployment-realistic baseline. The transport itself is still injected
/// into run() — Net describes the network a SimTransport caller should
/// build.
struct FleetOptions {
  int Devices = 4;
  /// Search steps each device runs (the old synchronous "rounds").
  int Rounds = 3;
  /// Pool threads driving event computes; 0 = hardware concurrency.
  /// Results are identical at any value.
  int Jobs = 0;
  uint64_t Seed = 1;

  // Heterogeneity of the derived device profiles (see DeviceProfile).
  double CostJitter = 0.25;
  double NoiseJitter = 0.5;
  int64_t SessionSpread = 2;
  /// Group the population into this many hardware/user classes that
  /// share one pipeline + evaluation engine (see DeviceClassState): seeded
  /// k-means over each device's profile vector (store::kmeans over
  /// fleet::profileVector), each class pipeline built at its cluster
  /// centroid, hints served class-locally (per-class top-k + cross-class
  /// exploration tail). 0, or at least as many as devices, = one class
  /// per device with the global hint ranking (the fully-continuous
  /// small-fleet mode).
  int ProfileClasses = 0;
  /// Pre-seed every device's mailbox with the server's hint set before
  /// its first step — the cross-run warm start. The server is expected
  /// to hold restored leaderboards (Server::importState /
  /// Server::injectHint); devices still re-verify every restored hint
  /// against their own verification map before adopting it.
  bool WarmStartHints = false;

  TransportOptions Net; ///< For the caller's SimTransport.
  RetryPolicy Retry;

  /// Per-device cap on buffered fleet-trace events (drop-oldest past it,
  /// counted by `fleet.telemetry_dropped`) — the PR 6 TraceRecorder
  /// bound, applied per device so 10k-device runs stay flat in memory.
  size_t TelemetryEventsPerDevice = 2048;

  Churn Population;

  /// The paper-faithful deployment defaults: a flaky mobile network
  /// (15% drop, 10% reorder) over the default heterogeneity spread.
  static FleetOptions paperDefaults();
};

/// How a cell's devices form hardware/user classes (DESIGN.md §17).
struct CellClasses {
  /// Every device's own profile (DeviceProfile::derive), with ClassId set.
  std::vector<DeviceProfile> Devices;
  /// The profile each class pipeline is built with.
  std::vector<DeviceProfile> Classes;
  /// The k-means centroids of a clustered cell; empty otherwise.
  std::vector<std::vector<double>> Centroids;

  bool clustered() const { return !Centroids.empty(); }
};

/// Forms the classes of a cell of \p Total devices. With
/// Opt.ProfileClasses in (0, Total) the cell is clustered: store::kmeans
/// over the devices' profile vectors, K = ProfileClasses, and each class
/// pipeline sits at its centroid's hardware axes with the class-stream
/// seed. Otherwise every device is its own class.
CellClasses formClasses(const FleetOptions &Opt, int Total);

/// One completed device step in commit `(time, seq)` order — the
/// substrate of the report layer's fleet.jsonl.
struct FleetStepLog {
  VirtualTime Time = 0; ///< Virtual completion time of the step.
  int Step = 0;         ///< The device's step index (0-based).
  int Device = 0;
  DeviceStep Outcome;
  SendOutcome ReportDelivery; ///< Device -> server (unplanned if Dropped).
  bool Dropped = false;       ///< Device died at this step (churn).
};

/// What one coordinator run produced for one app.
struct FleetResult {
  std::string AppName;
  bool Succeeded = false;
  std::string FailureReason;

  int Devices = 0; ///< Total participants (initial + joiners).
  int Rounds = 0;  ///< Steps per device.
  double BestSpeedup = 0.0; ///< Max over delivered reports (vs own base).
  std::string BestGenome;
  int BestDevice = -1;
  bool BestFromHint = false;
  /// Chain of the winning genome: the device that discovered it and the
  /// virtual instant it did (not necessarily BestDevice — that is who
  /// *reported* the winning speedup).
  Provenance BestProv;

  std::vector<FleetStepLog> Log; ///< Commit order: (time, seq).
  std::vector<Server::LeaderEntry> Leaderboard; ///< Final snapshot.

  VirtualTime VirtualDuration = 0; ///< Loop time when the queue drained.
  int DevicesLeft = 0;   ///< Churn: devices that died mid-run.
  int DevicesJoined = 0; ///< Churn: late joiners.

  /// Clustered cell (fewer classes than devices): per-device class
  /// assignment and the centroids (profile-vector space, stable
  /// lexicographic id order) — what the store persists as the night's
  /// class model. Empty otherwise.
  std::vector<int> ClassOf;
  std::vector<std::vector<double>> ClassCentroids;
  /// Warm-start hints pre-seeded into device mailboxes (WarmStartHints).
  uint64_t WarmStartHintCount = 0;

  // Sums over classes / steps.
  search::EngineCounters Counters;
  search::EngineCacheStats Cache;
  search::EngineRacingStats Racing;
  /// Fork-server replay-session accounting over every class backend.
  search::ReplayBackendStats ReplayBackend;
  /// The cell's verdict memo: verified replays the classes requested and
  /// how many another class had already replayed. The split depends on
  /// lane scheduling at --jobs > 1 (DESIGN.md §22).
  replay::VerdictMemoStats Verdicts;
  /// The cell's compile memos (DESIGN.md §18): how many distinct ones the
  /// classes compiled through, and their lookups summed. Like the verdict
  /// split, the counts depend on lane scheduling at --jobs > 1.
  int CompileMemos = 0;
  lir::CompileMemoStats Compile;
  /// Class setups (DESIGN.md §23): classes that profiled and captured
  /// themselves, and classes that adopted their leader's inputs.
  int SetupsOwn = 0;
  int SetupsShared = 0;
  uint64_t HintsPublished = 0; ///< Hints sent to devices (pre-dedup).
  uint64_t HintsAdopted = 0;
  uint64_t HintsRejected = 0;
  TransportStats Transport; ///< All sends, both channels.

  /// Per-class sketches, their cell merge, and every provenance chain.
  FleetTelemetry Telemetry;
  /// The surviving virtual-clock trace events in `(time, seq)` order
  /// (analysis::FleetTrace renders them as fleet.trace.json).
  std::vector<analysis::FleetTraceEvent> TraceEvents;

  /// A stable fingerprint of every scheduling-independent outcome: device
  /// step results with their virtual times, adopted/rejected hints, the
  /// leaderboard. Transport volume counters are deliberately excluded —
  /// but arrival *consequences* (which hints seeded what, when) are in.
  std::string digest() const;
};

class Coordinator {
public:
  /// \p Base is the per-class pipeline configuration (the population
  /// shape and seeds come from \p Opt; Base.Seed is overridden per
  /// class).
  Coordinator(FleetOptions Opt, core::PipelineConfig Base)
      : Opt(Opt), Base(std::move(Base)) {}

  /// Runs the event-driven fleet simulation for \p AppName against
  /// \p Srv over \p Net. When \p Report is non-null, every completed
  /// step is appended to its fleet log with its virtual time.
  FleetResult run(const std::string &AppName, Server &Srv, Transport &Net,
                  report::RunReport *Report = nullptr);

private:
  FleetOptions Opt;
  core::PipelineConfig Base;
};

} // namespace fleet
} // namespace ropt

#endif // ROPT_FLEET_COORDINATOR_H
