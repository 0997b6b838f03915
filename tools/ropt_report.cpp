//===- tools/ropt_report.cpp - Summarize and diff run directories ---------===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
// The read side of the run-report flight recorder, as a CLI:
//
//   ropt-report summarize DIR [--markdown]   human/markdown run summary
//   ropt-report diff A B [--threshold F]     regression gate (exit 1 on
//                                            fitness regressions)
//   ropt-report validate DIR                 structural artifact checks
//   ropt-report analyze DIR [--baseline OLD] observability-loop view:
//                                            region DAG, critical path,
//                                            bottleneck labels + budget
//                                            shares; flags label changes
//                                            against a baseline run
//   ropt-report fleet DIR [--baseline OLD]   fleet view: per-device-class
//                        [--threshold F]     step curves, provenance
//                                            chains, transport health;
//                                            with a baseline, gates on
//                                            per-cell best-speedup
//                                            regressions (exit 1)
//   ropt-report store STORE_DIR              persistent-store inspector:
//                                            schema/night header, class
//                                            roster, per-app boards; also
//                                            validates the canonical
//                                            serialization fixed point
//                                            and flags duplicate keys
//
// Exit codes: 0 clean, 1 regressions/validation problems, 2 usage or
// unreadable run/store directory.
//
//===----------------------------------------------------------------------===//

#include "report/RunDiff.h"
#include "store/Store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

using namespace ropt;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s summarize DIR [--markdown]\n"
               "       %s diff BASELINE_DIR NEW_DIR [--threshold FRACTION]\n"
               "       %s validate DIR\n"
               "       %s analyze DIR [--baseline OLD_DIR]\n"
               "       %s fleet DIR [--baseline OLD_DIR] "
               "[--threshold FRACTION]\n"
               "       %s store STORE_DIR\n",
               Argv0, Argv0, Argv0, Argv0, Argv0, Argv0);
  return 2;
}

report::LoadedRun loadOrExit(const std::string &Dir) {
  support::Result<report::LoadedRun> Run = report::loadRun(Dir);
  if (!Run) {
    std::fprintf(stderr, "error: %s\n", Run.error().Message.c_str());
    std::exit(2);
  }
  return std::move(Run).value();
}

int runSummarize(int Argc, char **Argv) {
  std::string Dir;
  bool Markdown = false;
  for (int I = 2; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--markdown"))
      Markdown = true;
    else if (Argv[I][0] != '-' && Dir.empty())
      Dir = Argv[I];
    else
      return usage(Argv[0]);
  }
  if (Dir.empty())
    return usage(Argv[0]);
  report::LoadedRun Run = loadOrExit(Dir);
  std::fputs(report::summarize(Run, Markdown).c_str(), stdout);
  return 0;
}

int runDiff(int Argc, char **Argv) {
  std::string DirA, DirB;
  report::DiffOptions Opt;
  for (int I = 2; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--threshold") && I + 1 < Argc)
      Opt.FitnessThreshold = std::strtod(Argv[++I], nullptr);
    else if (Argv[I][0] != '-' && DirA.empty())
      DirA = Argv[I];
    else if (Argv[I][0] != '-' && DirB.empty())
      DirB = Argv[I];
    else
      return usage(Argv[0]);
  }
  if (DirA.empty() || DirB.empty())
    return usage(Argv[0]);
  report::LoadedRun A = loadOrExit(DirA);
  report::LoadedRun B = loadOrExit(DirB);
  report::DiffResult D = report::diffRuns(A, B, Opt);
  std::fputs(D.Text.c_str(), stdout);
  std::printf("fitness regressions: %d, verdict mix shifts: %d, "
              "fleet regressions: %d\n",
              D.FitnessRegressions, D.VerdictShifts, D.FleetRegressions);
  return D.regressed() ? 1 : 0;
}

int runFleet(int Argc, char **Argv) {
  std::string Dir, BaselineDir;
  double Threshold = 0.05;
  for (int I = 2; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--baseline") && I + 1 < Argc)
      BaselineDir = Argv[++I];
    else if (!std::strcmp(Argv[I], "--threshold") && I + 1 < Argc)
      Threshold = std::strtod(Argv[++I], nullptr);
    else if (Argv[I][0] != '-' && Dir.empty())
      Dir = Argv[I];
    else
      return usage(Argv[0]);
  }
  if (Dir.empty())
    return usage(Argv[0]);
  report::LoadedRun Run = loadOrExit(Dir);
  report::FleetDiffResult F;
  if (BaselineDir.empty()) {
    F = report::fleetReport(Run, nullptr, Threshold);
    std::fputs(F.Text.c_str(), stdout);
    return 0;
  }
  report::LoadedRun Baseline = loadOrExit(BaselineDir);
  F = report::fleetReport(Run, &Baseline, Threshold);
  std::fputs(F.Text.c_str(), stdout);
  std::printf("fleet regressions: %d\n", F.Regressions);
  return F.Regressions ? 1 : 0;
}

int runValidate(int Argc, char **Argv) {
  if (Argc != 3)
    return usage(Argv[0]);
  report::LoadedRun Run = loadOrExit(Argv[2]);
  report::ValidationResult V = report::validateRun(Run);
  // Warnings (e.g. a fleet section whose fleet.jsonl is missing) are
  // reported but do not fail the gate.
  for (const std::string &W : V.Warnings)
    std::fprintf(stderr, "warning: %s\n", W.c_str());
  for (const std::string &P : V.Problems)
    std::fprintf(stderr, "problem: %s\n", P.c_str());
  if (V.ok()) {
    std::printf("%s: %zu evaluation records, %zu generation records, "
                "%zu fleet records, manifest ok\n",
                Run.Dir.c_str(), Run.Evaluations.size(),
                Run.Generations.size(), Run.Fleet.size());
    return 0;
  }
  return 1;
}

int runAnalyze(int Argc, char **Argv) {
  std::string Dir, BaselineDir;
  for (int I = 2; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--baseline") && I + 1 < Argc)
      BaselineDir = Argv[++I];
    else if (Argv[I][0] != '-' && Dir.empty())
      Dir = Argv[I];
    else
      return usage(Argv[0]);
  }
  if (Dir.empty())
    return usage(Argv[0]);
  report::LoadedRun Run = loadOrExit(Dir);
  if (BaselineDir.empty()) {
    std::fputs(report::analyzeRun(Run).c_str(), stdout);
    return 0;
  }
  report::LoadedRun Baseline = loadOrExit(BaselineDir);
  std::fputs(report::analyzeRun(Run, &Baseline).c_str(), stdout);
  return 0;
}

// `ropt-report store DIR`: inspect and validate one persistent store.
// Exit 0 = loaded and canonical, 1 = structural problems, 2 = missing
// store (or usage).
int runStore(int Argc, char **Argv) {
  if (Argc != 3)
    return usage(Argv[0]);
  store::Store St(Argv[2]);
  store::Store::LoadResult L = St.load();
  if (!L.Found) {
    std::fprintf(stderr, "error: no store at %s\n", St.path().c_str());
    return 2;
  }
  int Problems = 0;
  if (!L.Warning.empty()) {
    std::fprintf(stderr, "problem: %s\n", L.Warning.c_str());
    ++Problems;
  }

  const store::StoreState &S = L.State;
  std::printf("%s: schema %d, night %llu, fleet seed %llu\n",
              St.path().c_str(), store::CurrentSchema,
              static_cast<unsigned long long>(S.Nights),
              static_cast<unsigned long long>(S.FleetSeed));

  // Canonical fixed point: a loaded document must re-serialize to the
  // exact bytes on disk — the property that makes store bytes comparable
  // across --jobs and load -> save a no-op.
  if (L.Warning.empty() && store::serialize(S) != L.RawBytes) {
    std::fprintf(stderr, "problem: store is not in canonical form "
                         "(re-serialization differs from the on-disk bytes)\n");
    ++Problems;
  }

  if (S.Classes.K > 0) {
    std::printf("classes: k=%d over %d-dim profile vectors, %zu devices "
                "assigned\n",
                S.Classes.K, S.Classes.Dims, S.Classes.Assignments.size());
    std::vector<int> Roster(static_cast<size_t>(S.Classes.K), 0);
    for (int A : S.Classes.Assignments) {
      if (A < 0 || A >= S.Classes.K) {
        std::fprintf(stderr,
                     "problem: class assignment %d out of range [0,%d)\n", A,
                     S.Classes.K);
        ++Problems;
        continue;
      }
      ++Roster[static_cast<size_t>(A)];
    }
    for (int C = 0; C != S.Classes.K; ++C)
      std::printf("  class %d: %d devices\n", C, Roster[static_cast<size_t>(C)]);
    if (static_cast<int>(S.Classes.Centroids.size()) != S.Classes.K) {
      std::fprintf(stderr, "problem: %zu centroids for k=%d\n",
                   S.Classes.Centroids.size(), S.Classes.K);
      ++Problems;
    }
  }

  for (const store::StoredApp &A : S.Apps) {
    size_t Quarantined = 0;
    uint64_t NewestTick = 0;
    std::set<std::string> Keys;
    for (const store::StoredEntry &E : A.Entries) {
      if (E.Quarantined)
        ++Quarantined;
      NewestTick = std::max(NewestTick, E.LastReportTick);
      if (!Keys.insert(E.Genome).second) {
        std::fprintf(stderr, "problem: %s: duplicate genome key '%s'\n",
                     A.Name.c_str(), E.Genome.c_str());
        ++Problems;
      }
    }
    std::printf("app %s: %zu entries (%zu quarantined)\n", A.Name.c_str(),
                A.Entries.size(), Quarantined);
    size_t Shown = 0;
    for (const store::StoredEntry &E : A.Entries) {
      if (E.Quarantined || E.Expired)
        continue;
      // Leaderboard age: how many ticks before the app's newest report
      // this entry was last confirmed.
      std::printf("  %7.3fx %3d reports  age %llu  %s\n", E.Speedup,
                  E.Reports,
                  static_cast<unsigned long long>(NewestTick -
                                                  E.LastReportTick),
                  E.Genome.c_str());
      if (++Shown == 4)
        break;
    }
    for (const store::StoredEntry &E : A.Entries)
      if (E.Quarantined)
        std::printf("  quarantined (%s): %s\n",
                    E.RejectVerdict.empty() ? "unverified"
                                            : E.RejectVerdict.c_str(),
                    E.Genome.c_str());
  }
  if (Problems) {
    std::printf("%d problems\n", Problems);
    return 1;
  }
  std::printf("store ok: canonical, %zu apps\n", S.Apps.size());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  if (!std::strcmp(Argv[1], "summarize"))
    return runSummarize(Argc, Argv);
  if (!std::strcmp(Argv[1], "diff"))
    return runDiff(Argc, Argv);
  if (!std::strcmp(Argv[1], "validate"))
    return runValidate(Argc, Argv);
  if (!std::strcmp(Argv[1], "analyze"))
    return runAnalyze(Argc, Argv);
  if (!std::strcmp(Argv[1], "fleet"))
    return runFleet(Argc, Argv);
  if (!std::strcmp(Argv[1], "store"))
    return runStore(Argc, Argv);
  return usage(Argv[0]);
}
