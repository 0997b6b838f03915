//===- store/Store.h - Durable cross-run optimization store -----*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent half of the crowd-sourced search (DESIGN.md §17): a
/// versioned, deterministic on-disk snapshot of the fleet server's state,
/// so "overnight, across the install base" actually spans nights — every
/// run warm-starts from the last run's verified leaderboard instead of a
/// cold population.
///
/// The store is one canonical JSON document (`store.json` in the store
/// directory) holding, per app, the full leaderboard: genomes by their
/// canonical pipeline string, pooled speedup samples, reporting devices
/// and device classes, TTL bookkeeping, provenance chains — and the
/// quarantine set, which MUST survive restart (a genome one night's
/// verification proved unsound never re-enters a hint set). Alongside the
/// boards it records the device-class model (k-means centroids +
/// assignments over the cost-model profile vectors) that keyed the
/// per-class leaderboards.
///
/// Format contract:
///  - serialize() is canonical: fixed field order, apps sorted by name,
///    %.17g doubles, 64-bit identities as "0x%016llx" hex strings (JSON
///    numbers are doubles here). serialize(deserialize(S)) == S for any
///    current-schema document, so load -> save is a byte fixed point and
///    store bytes are comparable across `--jobs`.
///  - save() writes `store.json.tmp` then renames — a crashed run leaves
///    the previous night intact, never a torn file.
///  - load() never fails the caller: a missing file is a silent cold
///    start; a corrupt, truncated or newer-schema file is a cold start
///    with a warning; an older-schema file loads with defaults for the
///    fields it predates (forward-tolerant reads).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_STORE_STORE_H
#define ROPT_STORE_STORE_H

#include <cstdint>
#include <string>
#include <vector>

namespace ropt {
namespace store {

/// The store schema this build writes, and the only one it reads: a
/// document of any other schema starts cold. Schema 1: apps/entries with
/// pooled samples, quarantine, TTL ticks, provenance, device classes;
/// k-means class model; night counter.
inline constexpr int CurrentSchema = 1;

/// Provenance of a stored entry — the chain the genome rides on, carried
/// verbatim across nights so discovery credit survives restarts.
struct StoredProvenance {
  uint64_t Id = 0;
  int Device = -1; ///< Discovering device (-1 = server-injected).
  int Step = 0;
  uint64_t Time = 0; ///< Virtual discovery instant, prior run's clock.
};

/// One leaderboard row at rest. The genome is stored as its canonical
/// pipeline string (search::Genome::name()) so the store depends only on
/// support — the fleet layer parses it back on import.
struct StoredEntry {
  std::string Genome; ///< Canonical pipeline string (the entry key).
  uint64_t BinaryHash = 0;
  uint64_t CodeSize = 0;
  std::vector<double> Samples; ///< Pooled speedups, capped by the server.
  double Speedup = 0.0;        ///< median(Samples) as merged.
  std::vector<int> Devices;    ///< Reporting devices, ascending.
  std::vector<int> Classes;    ///< Reporting device classes, ascending.
  int Reports = 0;
  bool Quarantined = false;
  std::string RejectVerdict;
  uint64_t LastReportTick = 0;
  bool Expired = false;
  StoredProvenance Prov;
};

struct StoredApp {
  std::string Name;
  std::vector<StoredEntry> Entries; ///< Leaderboard order.
};

/// The device-class model of the last run: k-means centroids over the
/// profile vectors (see fleet::profileVector) and the per-device
/// assignment, so `ropt-report store` can print the roster and the next
/// run can compare its clustering against the stored one.
struct StoredClassModel {
  int K = 0;
  int Dims = 0;
  std::vector<std::vector<double>> Centroids; ///< K x Dims, id order.
  std::vector<int> Assignments;               ///< Per device id.
};

/// Everything one store file holds.
struct StoreState {
  uint64_t Nights = 0; ///< Completed runs folded into this store.
  uint64_t FleetSeed = 0;
  StoredClassModel Classes;
  std::vector<StoredApp> Apps;
};

/// Renders \p S as the canonical store document (apps sorted by name).
std::string serialize(const StoreState &S);

/// Parses \p Text. On success Warning is empty; a corrupt document, or one
/// of another schema than CurrentSchema, yields an empty state plus a
/// warning (never an abort).
struct DecodeResult {
  StoreState State;
  std::string Warning;
};
DecodeResult deserialize(const std::string &Text);

/// One store directory. The document lives at `<dir>/store.json`.
class Store {
public:
  explicit Store(std::string Dir) : Dir(std::move(Dir)) {}

  struct LoadResult {
    StoreState State;
    bool Found = false;     ///< store.json existed.
    std::string Warning;    ///< Non-empty = fell back to a cold start.
    std::string RawBytes;   ///< File contents when Found (for validation).
  };

  /// Reads the store. Never fails: missing -> cold start (no warning);
  /// unreadable/corrupt/other schema -> cold start + warning.
  LoadResult load() const;

  /// Atomically replaces the store document (tmp + rename), creating the
  /// store directory if needed. Returns false with \p Err set on I/O
  /// failure — the previous document, if any, is left intact.
  bool save(const StoreState &S, std::string *Err = nullptr) const;

  const std::string &dir() const { return Dir; }
  std::string path() const;

private:
  std::string Dir;
};

} // namespace store
} // namespace ropt

#endif // ROPT_STORE_STORE_H
