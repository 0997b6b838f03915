//===- fleet/Server.cpp - Per-app genome leaderboard ----------------------===//

#include "fleet/Server.h"

#include "support/Metrics.h"
#include "support/Statistics.h"

#include <algorithm>

using namespace ropt;
using namespace ropt::fleet;

Server::LeaderEntry &Server::entryFor(AppBoard &Board, const GenomeReport &G,
                                      bool &Existing) {
  // Dedup: binary hash first (the ISSUE's key — textually different
  // genomes landing on the same machine code are one entry), genome name
  // as fallback (injected hints carry no hash; the same genome can hash
  // differently across heterogeneous devices).
  Existing = true;
  if (G.BinaryHash != 0) {
    auto It = Board.ByHash.find(G.BinaryHash);
    if (It != Board.ByHash.end())
      return Board.Entries[It->second];
  }
  auto It = Board.ByKey.find(G.Key);
  if (It != Board.ByKey.end()) {
    LeaderEntry &E = Board.Entries[It->second];
    // Learn the hash the fallback path was missing.
    if (E.BinaryHash == 0 && G.BinaryHash != 0) {
      E.BinaryHash = G.BinaryHash;
      Board.ByHash.emplace(G.BinaryHash, It->second);
    }
    return E;
  }

  Existing = false;
  Board.Entries.emplace_back();
  size_t Index = Board.Entries.size() - 1;
  LeaderEntry &E = Board.Entries.back();
  E.G = G.G;
  E.Key = G.Key;
  E.BinaryHash = G.BinaryHash;
  E.CodeSize = G.CodeSize;
  Board.ByKey.emplace(G.Key, Index);
  if (G.BinaryHash != 0)
    Board.ByHash.emplace(G.BinaryHash, Index);
  return E;
}

void Server::merge(const std::string &App, const StepReport &R,
                   VirtualTime Now) {
  AppBoard &Board = Boards[App];
  ++Stats.ReportsMerged;
  ROPT_METRIC_INC("fleet.reports_merged");

  for (const GenomeReport &G : R.Best) {
    ++Stats.GenomesReported;
    bool Existing = false;
    LeaderEntry &E = entryFor(Board, G, Existing);
    if (Existing) {
      ++Stats.Duplicates;
      ROPT_METRIC_INC("fleet.duplicate_reports");
    }
    // First reporter wins the discovery credit: the entry's provenance
    // is fixed when the entry is created (or when a pre-provenance entry
    // first sees a provenanced report) and later duplicates never
    // re-attribute the chain.
    if (E.Prov.Id == 0 && G.Prov.Id != 0)
      E.Prov = G.Prov;
    // A fresh report renews the TTL clock and revives an expired entry:
    // live confirmation beats staleness.
    E.LastReportTick = std::max(E.LastReportTick, Now);
    E.Expired = false;
    // Statistical merging: pool the normalized samples (first
    // MaxPooledSamples survive — deterministic, arrival-ordered by the
    // coordinator's serialized commits) and re-rank by pooled median.
    for (double S : G.SpeedupSamples) {
      if (E.Samples.size() >= MaxPooledSamples)
        break;
      E.Samples.push_back(S);
    }
    if (E.Samples.empty())
      E.Samples.push_back(G.SpeedupMedian);
    E.Speedup = median(E.Samples);
    E.Devices.insert(R.Device);
    if (R.DeviceClass >= 0)
      E.Classes.insert(R.DeviceClass);
    ++E.Reports;
  }

  // A rejection retires the genome fleet-wide: one device's verification
  // map proving a miscompile outweighs any number of speedup reports.
  for (const HintRejection &Rej : R.Rejections) {
    auto It = Board.ByKey.find(Rej.Key);
    if (It == Board.ByKey.end())
      continue;
    LeaderEntry &E = Board.Entries[It->second];
    if (!E.Quarantined) {
      E.Quarantined = true;
      E.RejectVerdict = Rej.Verdict;
      ++Stats.Quarantined;
      ROPT_METRIC_INC("fleet.quarantined");
    }
  }
}

std::vector<Hint> Server::hints(const std::string &App, VirtualTime Now,
                                int Class) {
  std::vector<Hint> Out;
  auto It = Boards.find(App);
  if (It == Boards.end())
    return Out;

  // Lazy TTL sweep: expiry only matters when hints are served, so the
  // aging check lives here rather than on a timer event.
  if (Opt.TtlTicks != 0) {
    for (LeaderEntry &E : It->second.Entries) {
      if (E.Expired || Now <= E.LastReportTick + Opt.TtlTicks)
        continue;
      E.Expired = true;
      ++Stats.Expired;
      ROPT_METRIC_INC("fleet.leaderboard_expired");
    }
  }

  // Class-local serving splits the eligible entries into the class's own
  // pool (some device of this class confirmed the entry) and the rest;
  // the global ranking (Class -1) keeps everything in one pool.
  std::vector<const LeaderEntry *> Ranked;
  std::vector<const LeaderEntry *> Tail;
  for (const LeaderEntry &E : It->second.Entries) {
    if (E.Quarantined || E.Expired)
      continue;
    if (Class >= 0 && !E.Classes.count(Class))
      Tail.push_back(&E);
    else
      Ranked.push_back(&E);
  }
  auto BetterHint = [](const LeaderEntry *A, const LeaderEntry *B) {
    if (A->Speedup != B->Speedup)
      return A->Speedup > B->Speedup;
    return A->Key < B->Key;
  };
  // Only the top-k leave the server, and (speedup, key) is a total
  // order, so a partial sort returns exactly the fully-sorted prefix —
  // at 10k-device scale this call runs once per report arrival over
  // thousands of entries, and O(E log k) matters.
  size_t K = std::min(Ranked.size(),
                      static_cast<size_t>(std::max(0, Opt.TopK)));
  std::partial_sort(Ranked.begin(), Ranked.begin() + static_cast<long>(K),
                    Ranked.end(), BetterHint);
  for (size_t I = 0; I != K; ++I) {
    const LeaderEntry *E = Ranked[I];
    Out.push_back(Hint{E->G, E->Key, E->Speedup, E->Reports, E->Prov});
  }
  // The cross-class exploration tail: the best few entries only other
  // classes have confirmed, so a class still re-verifies foreign-hardware
  // winners on its own silicon instead of ossifying.
  if (Class >= 0 && !Tail.empty()) {
    size_t T = std::min(Tail.size(),
                        static_cast<size_t>(std::max(0, Opt.ExplorationTail)));
    std::partial_sort(Tail.begin(), Tail.begin() + static_cast<long>(T),
                      Tail.end(), BetterHint);
    for (size_t I = 0; I != T; ++I) {
      const LeaderEntry *E = Tail[I];
      Out.push_back(Hint{E->G, E->Key, E->Speedup, E->Reports, E->Prov});
    }
  }
  Stats.HintsServed += Out.size();
  return Out;
}

void Server::injectHint(const std::string &App, const search::Genome &G,
                        double Speedup, int Class) {
  std::string Key = G.name();
  // The quarantine gate: a genome some device's verification map already
  // proved unsound — this run or any stored night before it — must never
  // re-enter the hint plane through injection.
  auto BoardIt = Boards.find(App);
  if (BoardIt != Boards.end()) {
    auto It = BoardIt->second.ByKey.find(Key);
    if (It != BoardIt->second.ByKey.end() &&
        BoardIt->second.Entries[It->second].Quarantined) {
      ++Stats.InjectionsDropped;
      ROPT_METRIC_INC("fleet.hints_rejected");
      return;
    }
  }
  GenomeReport R;
  R.G = G;
  R.Key = std::move(Key);
  R.SpeedupMedian = Speedup;
  R.SpeedupSamples = {Speedup};
  // Injected genomes still get a chain (so rejections and adoptions are
  // attributable) but no discovery time — Device -1 marks it synthetic.
  R.Prov = Provenance{mintProvenanceId(-1, 0, R.Key), -1, 0, 0};
  StepReport Injected;
  Injected.Device = -1; // Not a real fleet member.
  Injected.DeviceClass = Class;
  Injected.Best.push_back(std::move(R));
  merge(App, Injected);
  ++Stats.HintsInjected;
}

const std::vector<Server::LeaderEntry> *
Server::leaderboard(const std::string &App) const {
  auto It = Boards.find(App);
  return It == Boards.end() ? nullptr : &It->second.Entries;
}

std::vector<std::string> Server::apps() const {
  std::vector<std::string> Out;
  for (const auto &KV : Boards)
    Out.push_back(KV.first);
  return Out;
}

void Server::exportState(store::StoreState &Out) const {
  Out.Apps.clear();
  for (const auto &KV : Boards) {
    store::StoredApp App;
    App.Name = KV.first;
    for (const LeaderEntry &E : KV.second.Entries) {
      store::StoredEntry S;
      // The canonical key is the stored genome: a quarantined entry kept
      // genome-less after a failed parse still round-trips by key.
      S.Genome = E.Key;
      S.BinaryHash = E.BinaryHash;
      S.CodeSize = E.CodeSize;
      S.Samples = E.Samples;
      S.Speedup = E.Speedup;
      S.Devices.assign(E.Devices.begin(), E.Devices.end());
      S.Classes.assign(E.Classes.begin(), E.Classes.end());
      S.Reports = E.Reports;
      S.Quarantined = E.Quarantined;
      S.RejectVerdict = E.RejectVerdict;
      S.LastReportTick = E.LastReportTick;
      S.Expired = E.Expired;
      S.Prov = store::StoredProvenance{E.Prov.Id, E.Prov.Device, E.Prov.Step,
                                       E.Prov.Time};
      App.Entries.push_back(std::move(S));
    }
    Out.Apps.push_back(std::move(App));
  }
}

size_t Server::importState(const store::StoreState &S,
                           std::vector<std::string> *Warnings) {
  size_t Restored = 0;
  for (const store::StoredApp &App : S.Apps) {
    AppBoard &Board = Boards[App.Name];
    Board.Entries.clear();
    Board.ByHash.clear();
    Board.ByKey.clear();
    for (const store::StoredEntry &E : App.Entries) {
      search::Genome G;
      bool Parsed = search::parseGenome(E.Genome, G);
      if (!Parsed && !E.Quarantined) {
        // A live entry we cannot re-materialize is useless as a hint;
        // a quarantined one still blocks injection by key alone.
        if (Warnings)
          Warnings->push_back("store: " + App.Name +
                              ": skipping unparseable genome \"" + E.Genome +
                              "\"");
        continue;
      }
      if (Board.ByKey.count(E.Genome)) {
        if (Warnings)
          Warnings->push_back("store: " + App.Name +
                              ": duplicate genome \"" + E.Genome +
                              "\"; keeping the first");
        continue;
      }
      LeaderEntry L;
      if (Parsed)
        L.G = std::move(G);
      L.Key = E.Genome;
      L.BinaryHash = E.BinaryHash;
      L.CodeSize = E.CodeSize;
      L.Samples = E.Samples;
      L.Speedup = E.Speedup;
      L.Devices.insert(E.Devices.begin(), E.Devices.end());
      L.Classes.insert(E.Classes.begin(), E.Classes.end());
      L.Reports = E.Reports;
      L.Quarantined = E.Quarantined;
      L.RejectVerdict = E.RejectVerdict;
      L.LastReportTick = E.LastReportTick;
      L.Expired = E.Expired;
      L.Restored = true;
      L.Prov = Provenance{E.Prov.Id, E.Prov.Device, E.Prov.Step, E.Prov.Time};
      size_t Index = Board.Entries.size();
      Board.ByKey.emplace(L.Key, Index);
      if (L.BinaryHash != 0 && !Board.ByHash.count(L.BinaryHash))
        Board.ByHash.emplace(L.BinaryHash, Index);
      Board.Entries.push_back(std::move(L));
      ++Restored;
    }
  }
  Stats.EntriesRestored += Restored;
  return Restored;
}
