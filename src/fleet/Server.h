//===- fleet/Server.h - Per-app genome leaderboard --------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central aggregation side of the crowd-sourced search (the server
/// role of "Iterative compilation on mobile devices", PAPERS.md): devices
/// report their best genomes after every search round, the server merges
/// the reports into a per-app leaderboard, and the current top-k becomes
/// the "hint" set the next round's devices warm-start from.
///
/// Fitness is reported as *speedup over the reporting device's own stock
/// Android baseline*, not absolute cycles — devices are heterogeneous
/// (perturbed cost models, noise floors, session inputs), so only the
/// normalized figure is comparable across the fleet. Entries are keyed by
/// the reported binary hash with a genome-name fallback, pooled samples
/// are capped and re-ranked by median, and a genome any device rejects
/// against its verification map is quarantined — it never appears in a
/// hint set again. The server is plain deterministic state: merge order
/// is the coordinator's problem (the event loop serializes commits in
/// `(virtual time, seq)` order), and the server's only notion of time is
/// the virtual tick the coordinator passes in — entries age out of the
/// hint set when no report has renewed them for `TtlTicks`.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_FLEET_SERVER_H
#define ROPT_FLEET_SERVER_H

#include "fleet/EventLoop.h"
#include "fleet/Telemetry.h"
#include "search/GeneticSearch.h"
#include "store/Store.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ropt {
namespace fleet {

/// One Ok genome a device reports after a round.
struct GenomeReport {
  search::Genome G;
  std::string Key;         ///< Canonical genome name (G.name()).
  uint64_t BinaryHash = 0; ///< Binary identity on the reporting device.
  uint64_t CodeSize = 0;
  double SpeedupMedian = 0.0; ///< Median of SpeedupSamples.
  /// Per-replay speedups vs the device's own Android baseline.
  std::vector<double> SpeedupSamples;
  /// How the device found it (random exploration, adopted hint, ...).
  search::GenomeSource Source = search::GenomeSource::Random;
  /// The provenance chain the genome rides on: minted at the reporting
  /// device's evaluation if it discovered the genome itself, or carried
  /// over from the hint it adopted.
  Provenance Prov;
};

/// A foreign hint the device's own verification map (or compiler) turned
/// down — the fleet-scale miscompile report.
struct HintRejection {
  std::string Key;     ///< Canonical genome name of the rejected hint.
  std::string Verdict; ///< evalKindName() spelling of the failure.
  uint64_t ProvenanceId = 0; ///< Chain the rejected hint carried.
};

/// Everything one device tells the server about one step.
struct StepReport {
  int Device = 0;
  int Step = 0;
  /// Reporting device's hardware class (-1 = unknown/synthetic). Feeds
  /// the per-class leaderboards: an entry remembers which classes
  /// confirmed it, and class-local hint serving prefers those entries.
  int DeviceClass = -1;
  std::vector<GenomeReport> Best;
  std::vector<HintRejection> Rejections;
};

/// One leaderboard entry served to devices.
struct Hint {
  search::Genome G;
  std::string Key;
  double Speedup = 0.0; ///< Merged (pooled-median) speedup.
  int Reports = 0;      ///< Device reports folded into the entry.
  Provenance Prov;      ///< Discovery provenance (first reporter's).
};

/// Per-entry cap on pooled speedup samples.
inline constexpr size_t MaxPooledSamples = 96;

struct ServerOptions {
  int TopK = 4;                 ///< Hint-set size.
  /// Class-local hint serving (hints() with Class >= 0) appends up to
  /// this many best entries *other* classes found on top of the class's
  /// own top-k — the cross-class exploration tail. A slow-SoC class
  /// mostly follows its own winners but still occasionally re-verifies a
  /// fast-SoC discovery on its own hardware.
  int ExplorationTail = 2;
  /// Leaderboard entry time-to-live in virtual ticks (0 = entries never
  /// age out). Under churn, a device that left the fleet stops renewing
  /// its entries; once no report has confirmed an entry for TtlTicks it
  /// expires out of the hint set — stale discoveries from dead hardware
  /// do not steer live devices forever. A fresh report revives the entry.
  uint64_t TtlTicks = 0;
};

struct ServerStats {
  uint64_t ReportsMerged = 0;   ///< StepReports accepted.
  uint64_t GenomesReported = 0; ///< GenomeReports seen (dups included).
  uint64_t Duplicates = 0;      ///< Folded into an existing entry.
  uint64_t Quarantined = 0;     ///< Entries retired by rejection reports.
  uint64_t HintsServed = 0;     ///< Hints handed out across hints() calls.
  uint64_t Expired = 0;         ///< Entries the virtual-time TTL retired.
  uint64_t HintsInjected = 0;   ///< injectHint() calls that merged.
  /// injectHint() calls dropped because the genome is quarantined — a
  /// restored hint a prior night proved unsound never re-enters.
  uint64_t InjectionsDropped = 0;
  uint64_t EntriesRestored = 0; ///< Leaderboard rows loaded from a store.
};

class Server {
public:
  explicit Server(ServerOptions Opt = {}) : Opt(Opt) {}

  /// One leaderboard row.
  struct LeaderEntry {
    search::Genome G;
    std::string Key;
    uint64_t BinaryHash = 0;
    uint64_t CodeSize = 0;
    std::vector<double> Samples; ///< Pooled speedups, capped.
    double Speedup = 0.0;        ///< median(Samples).
    std::set<int> Devices;       ///< Devices that reported it.
    int Reports = 0;
    bool Quarantined = false;
    std::string RejectVerdict;      ///< First rejection verdict, if any.
    VirtualTime LastReportTick = 0; ///< Virtual time of the last report.
    bool Expired = false;           ///< Aged out by ServerOptions::TtlTicks.
    /// Hardware classes whose devices confirmed this entry — the
    /// substrate of class-local hint serving.
    std::set<int> Classes;
    /// The entry was loaded from a persistent store this process (never
    /// persisted itself): its provenance timestamps are a prior run's
    /// virtual clock, so telemetry must treat the chain as cross-epoch.
    bool Restored = false;
    /// The first reporter's provenance — the chain every hint cut from
    /// this entry carries. A later duplicate report never re-attributes
    /// the discovery.
    Provenance Prov;
  };

  /// Folds one device's step report into the app's leaderboard:
  /// statistical merging (pooled speedup samples, median re-rank), dedup
  /// by binary hash / genome name, and quarantine of rejected hints.
  /// \p Now stamps the touched entries for TTL aging (and revives an
  /// expired entry the report re-confirms).
  void merge(const std::string &App, const StepReport &R,
             VirtualTime Now = 0);

  /// The current top-k hint set for \p App: non-quarantined, non-expired
  /// entries, best merged speedup first (genome name breaks ties, so the
  /// set is stable across runs). When TtlTicks is set, entries whose last
  /// report is older than \p Now - TtlTicks expire here first.
  ///
  /// With \p Class >= 0 the set is class-local: the top-k among entries
  /// some device of that class confirmed, followed by up to
  /// ServerOptions::ExplorationTail best entries only other classes have
  /// seen (the cross-class exploration tail). Class -1 keeps the global
  /// ranking.
  std::vector<Hint> hints(const std::string &App, VirtualTime Now = 0,
                          int Class = -1);

  /// Pre-seeds the leaderboard with an unverified genome, as if a device
  /// of \p Class had reported it at \p Speedup. Entry point for
  /// cross-run hint persistence — and for the safety tests'
  /// deliberately-unsound hints. A genome whose leaderboard entry is
  /// quarantined is dropped (counted in InjectionsDropped and
  /// `fleet.hints_rejected`): restarts never resurrect a proven
  /// miscompile.
  void injectHint(const std::string &App, const search::Genome &G,
                  double Speedup, int Class = -1);

  /// The app's full leaderboard, or null if it never got a report.
  const std::vector<LeaderEntry> *leaderboard(const std::string &App) const;

  /// Every app with a board, in name order.
  std::vector<std::string> apps() const;

  /// Snapshots every board (plus nothing else — seeds and class models
  /// are the caller's) into \p Out.Apps, replacing its contents. The
  /// export is deterministic (map order, entry order preserved) and
  /// import(export(S)) == S board-wise, so a load -> save round trip
  /// through the store is a byte fixed point.
  void exportState(store::StoreState &Out) const;

  /// Replaces the server's boards with the stored ones. Genomes are
  /// parsed back from their canonical strings; an unparseable
  /// non-quarantined entry is skipped with a warning, while an
  /// unparseable *quarantined* entry is kept genome-less — its key alone
  /// must keep blocking injection. Returns the number of restored
  /// entries (also accumulated in EntriesRestored).
  size_t importState(const store::StoreState &S,
                     std::vector<std::string> *Warnings = nullptr);

  const ServerStats &stats() const { return Stats; }

private:
  struct AppBoard {
    std::vector<LeaderEntry> Entries;
    std::map<uint64_t, size_t> ByHash; ///< BinaryHash != 0 -> entry index.
    std::map<std::string, size_t> ByKey; ///< Genome name -> entry index.
  };

  LeaderEntry &entryFor(AppBoard &Board, const GenomeReport &G,
                        bool &Existing);

  ServerOptions Opt;
  std::map<std::string, AppBoard> Boards;
  ServerStats Stats;
};

} // namespace fleet
} // namespace ropt

#endif // ROPT_FLEET_SERVER_H
