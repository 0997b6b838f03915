//===- fleet/Coordinator.cpp - Event-driven fleet simulation --------------===//

#include "fleet/Coordinator.h"

#include "report/RunReport.h"
#include "store/KMeans.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <memory>

using namespace ropt;
using namespace ropt::fleet;

FleetOptions FleetOptions::paperDefaults() {
  FleetOptions O;
  // The deployment-realistic mobile network of the paper's install-base
  // model: noticeable loss and reordering over a few ticks of latency.
  O.Net.DropProb = 0.15;
  O.Net.ReorderProb = 0.10;
  return O;
}

std::string FleetResult::digest() const {
  std::string D = format(
      "app=%s devices=%d rounds=%d vtime=%llu best=%.17g@%d genome=%s "
      "fromhint=%d\n",
      AppName.c_str(), Devices, Rounds,
      static_cast<unsigned long long>(VirtualDuration), BestSpeedup,
      BestDevice, BestGenome.c_str(), BestFromHint ? 1 : 0);
  for (const FleetStepLog &L : Log) {
    const DeviceStep &O = L.Outcome;
    D += format("t=%llu s%d d%d drop=%d best=%.17g src=%s fromhint=%d "
                "genome=%s prov=%016llx disc=d%d@%llu recv=%d adopt=%d "
                "rej=%d evals=%d\n",
                static_cast<unsigned long long>(L.Time), L.Step, L.Device,
                L.Dropped ? 1 : 0, O.BestSpeedup,
                search::genomeSourceName(O.BestSource),
                O.BestFromHint ? 1 : 0, O.BestGenome.c_str(),
                static_cast<unsigned long long>(O.BestProv.Id),
                O.BestProv.Device,
                static_cast<unsigned long long>(O.BestProv.Time),
                O.HintsReceived, O.HintsAdopted, O.HintsRejected,
                O.Evaluations);
    for (const HintRejection &Rej : O.Report.Rejections)
      D += format("  reject %s verdict=%s prov=%016llx\n", Rej.Key.c_str(),
                  Rej.Verdict.c_str(),
                  static_cast<unsigned long long>(Rej.ProvenanceId));
  }
  for (const Server::LeaderEntry &E : Leaderboard) {
    std::string Classes;
    for (int C : E.Classes) {
      if (!Classes.empty())
        Classes += ',';
      Classes += std::to_string(C);
    }
    D += format("lb %s speedup=%.17g reports=%d devices=%d classes=%s q=%d "
                "exp=%d verdict=%s hash=%016llx size=%llu prov=%016llx "
                "disc=d%d@%llu\n",
                E.Key.c_str(), E.Speedup, E.Reports,
                static_cast<int>(E.Devices.size()), Classes.c_str(),
                E.Quarantined ? 1 : 0, E.Expired ? 1 : 0,
                E.RejectVerdict.c_str(),
                static_cast<unsigned long long>(E.BinaryHash),
                static_cast<unsigned long long>(E.CodeSize),
                static_cast<unsigned long long>(E.Prov.Id), E.Prov.Device,
                static_cast<unsigned long long>(E.Prov.Time));
  }
  if (!ClassOf.empty()) {
    D += "kmeans assign=";
    for (size_t I = 0; I != ClassOf.size(); ++I) {
      if (I)
        D += ',';
      D += std::to_string(ClassOf[I]);
    }
    D += format(" warm=%llu\n",
                static_cast<unsigned long long>(WarmStartHintCount));
  }
  return D;
}

namespace {

/// \p T rounded up to the step-start grid.
VirtualTime onGrid(VirtualTime T) {
  return (T + StepGridTicks - 1) / StepGridTicks * StepGridTicks;
}

/// Per-device actor state the event handlers thread through the loop.
/// Everything here is mutated only from commits or from the device's own
/// (lane-serialized) step computes, so no locking is needed.
struct DeviceState {
  std::unique_ptr<Device> Dev;
  DeviceProfile Prof;
  int StepsDone = 0;
  bool Left = false;          ///< Died at a step past LeaveTick.
  VirtualTime LeaveTick = 0;  ///< 0 = never leaves.
  bool Joiner = false;
  /// Hints delivered since the device last started a step; the next
  /// step's compute drains it.
  std::vector<Hint> Mailbox;
  /// The in-flight step: written by the StepExec compute, consumed by
  /// the StepDone commit.
  StepResult Pending;
  /// Effective-reorder detection on the hint channel: hint pushes to
  /// this device get monotone send sequences; an arrival below the max
  /// already-arrived sequence was genuinely overtaken.
  uint64_t NextHintSendSeq = 0;
  uint64_t MaxArrivedHintSeq = 0;
  bool AnyHintArrived = false;
  /// Start tick of the device's most recently scheduled step — the
  /// boundary a reordered hint can miss.
  VirtualTime NextStepAt = 0;
  /// The newest step report that actually reached the server — the
  /// fleet best is a max over *delivered* reports, so a device whose
  /// last words were lost contributes its previous delivered state.
  DeviceStep LastMerged;
  int LastMergedStep = -1;
};

} // namespace

CellClasses fleet::formClasses(const FleetOptions &Opt, int Total) {
  CellClasses Out;
  for (int I = 0; I != Total; ++I)
    Out.Devices.push_back(DeviceProfile::derive(
        Opt.Seed, I, Opt.CostJitter, Opt.NoiseJitter, Opt.SessionSpread));
  if (Opt.ProfileClasses <= 0 || Opt.ProfileClasses >= Total) {
    Out.Classes = Out.Devices;
    return Out;
  }
  std::vector<std::vector<double>> Points;
  for (const DeviceProfile &P : Out.Devices)
    Points.push_back(profileVector(P));
  store::KMeansResult KM = store::kmeans(Points, Opt.ProfileClasses, Opt.Seed);
  for (int I = 0; I != Total; ++I)
    Out.Devices[static_cast<size_t>(I)].ClassId =
        KM.Assignment[static_cast<size_t>(I)];
  for (size_t C = 0; C != KM.Centroids.size(); ++C) {
    const std::vector<double> &Cen = KM.Centroids[C];
    DeviceProfile CP =
        DeviceProfile::derive(Opt.Seed, static_cast<int>(C), 0, 0, 0);
    CP.CostScale = Cen[0];
    CP.NoiseScale = Cen[7];
    CP.SessionShift = static_cast<int64_t>(std::llround(Cen[9]));
    Out.Classes.push_back(CP);
  }
  Out.Centroids = std::move(KM.Centroids);
  return Out;
}

FleetResult Coordinator::run(const std::string &AppName, Server &Srv,
                             Transport &Net, report::RunReport *Report) {
  ROPT_TRACE_SPAN("fleet.run");
  FleetResult Out;
  Out.AppName = AppName;
  int N = std::max(1, Opt.Devices);
  int Steps = std::max(0, Opt.Rounds);
  Out.Rounds = Steps;

  int JoinCount = static_cast<int>(
      Opt.Population.JoinFraction * static_cast<double>(N));
  int Total = N + JoinCount;
  Out.Devices = Total;
  Out.DevicesJoined = JoinCount;

  // --- Build the class pipelines and the device actors on top of them,
  // in this serial context, so the classes — like everything else — are
  // --jobs-independent. A clustered cell serves hints class-locally (the
  // class's top-k plus the cross-class exploration tail); an unclustered
  // one keeps the global ranking, since one class per device would
  // otherwise kill crowd-sourcing outright.
  CellClasses Cell = formClasses(Opt, Total);
  bool Clustered = Cell.clustered();
  int Classes = static_cast<int>(Cell.Classes.size());
  // One app per cell: every class copies it, sharing its read-only
  // DexFile. One verdict memo bound to that DexFile answers the verified
  // replays of every class (DESIGN.md §22), and one compile-memo table
  // gives classes with equal merged type profiles one memo (§18).
  const workloads::Application App = workloads::buildByName(AppName);
  std::shared_ptr<replay::VerdictMemo> Verdicts = core::makeVerdictMemo(App);
  auto Memos = std::make_shared<core::CompileMemoTable>(*App.File);
  std::vector<std::shared_ptr<DeviceClassState>> Class;
  for (const DeviceProfile &CP : Cell.Classes)
    Class.push_back(
        std::make_shared<DeviceClassState>(App, Base, CP, Verdicts, Memos));
  std::vector<DeviceState> States(static_cast<size_t>(Total));
  for (int I = 0; I != Total; ++I) {
    DeviceState &DS = States[static_cast<size_t>(I)];
    DS.Prof = Cell.Devices[static_cast<size_t>(I)];
    assert(DS.Prof.ClassId >= 0 && DS.Prof.ClassId < Classes &&
           "every device belongs to one of the cell's classes");
    DS.Dev = std::make_unique<Device>(
        Class[static_cast<size_t>(DS.Prof.ClassId)], DS.Prof);
    DS.Joiner = I >= N;
    if (Clustered)
      Out.ClassOf.push_back(DS.Prof.ClassId);
  }
  Out.ClassCentroids = std::move(Cell.Centroids);

  ThreadPool Pool(static_cast<size_t>(std::max(0, Opt.Jobs)));

  // Class setup (profile + capture + baselines) runs in parallel, once
  // per distinct session input (DESIGN.md §23): the first class with a
  // session parameter leads, and the classes after it adopt its inputs
  // when they are seed-independent. Leaders set up first, then
  // followers; the classes share the read-only DexFile, the memos, which
  // lock themselves, and the leaders' finished inputs.
  {
    ROPT_TRACE_SPAN("fleet.setup");
    std::vector<size_t> Leaders, Followers;
    std::vector<size_t> LeaderOf(static_cast<size_t>(Classes));
    for (size_t C = 0; C != static_cast<size_t>(Classes); ++C) {
      LeaderOf[C] = C;
      for (size_t L : Leaders)
        if (Class[L]->sessionParam() == Class[C]->sessionParam())
          LeaderOf[C] = L;
      (LeaderOf[C] == C ? Leaders : Followers).push_back(C);
    }
    std::vector<char> SetupOk(static_cast<size_t>(Classes), 0);
    Pool.parallelFor(Leaders.size(), [&](size_t I, size_t) {
      SetupOk[Leaders[I]] = Class[Leaders[I]]->setup() ? 1 : 0;
    });
    Pool.parallelFor(Followers.size(), [&](size_t I, size_t) {
      size_t C = Followers[I];
      SetupOk[C] = Class[C]->setup(Class[LeaderOf[C]].get()) ? 1 : 0;
    });
    for (int C = 0; C != Classes; ++C)
      if (!SetupOk[static_cast<size_t>(C)]) {
        Out.FailureReason = format(
            "class %d: %s", C,
            Class[static_cast<size_t>(C)]->failureReason().c_str());
        return Out;
      }
  }

  uint64_t AppId = appKey(AppName);
  EventLoop Loop(Pool);

  // Telemetry: per-class sketches, provenance chains and the bounded
  // per-device trace buffers. All hub calls below happen in commits (or
  // in the serial seeding loop), so the accumulated state is a pure
  // function of the event schedule — byte-identical at any --jobs.
  TelemetryHub Hub(AppName, Total, Classes, Opt.TelemetryEventsPerDevice);
  for (int I = 0; I != Total; ++I)
    Hub.setDeviceClass(I, States[static_cast<size_t>(I)].Prof.ClassId);
  // Chains restored from a persistent store carry a *prior run's*
  // discovery clock: register them up front so telemetry never compares
  // their timestamps against this run's, and validators can skip
  // same-clock causality checks.
  if (const std::vector<Server::LeaderEntry> *Board = Srv.leaderboard(AppName))
    for (const Server::LeaderEntry &E : *Board)
      if (E.Restored)
        Hub.markRestored(E.Prov, E.Key);

  // --- Event handlers. Scheduling only happens from serial contexts
  // (here before run(), and inside commits), so Seq assignment — and the
  // whole simulation — is deterministic at any --jobs.
  std::function<void(EventLoop &, int, VirtualTime)> StartStep;

  // HintArrive: the server's hint push lands in the device mailbox. A
  // reorder was *effective* when it changed which hints seed which
  // search: either this push was overtaken by a later one (arrives below
  // the max already-landed send sequence), or its reorder delay carried
  // it past the step start it would otherwise have seeded.
  auto HintArrive = [&](int Id, uint64_t SendSeq, uint64_t ReorderTicks,
                        std::vector<Hint> Hints) {
    return [&, Id, SendSeq, ReorderTicks,
            Hints = std::move(Hints)](EventLoop &L) mutable {
      DeviceState &DS = States[static_cast<size_t>(Id)];
      VirtualTime T = L.now();
      bool Effective = DS.AnyHintArrived && SendSeq < DS.MaxArrivedHintSeq;
      if (!Effective && ReorderTicks > 0 && DS.NextStepAt != 0 &&
          T > DS.NextStepAt && T - ReorderTicks <= DS.NextStepAt)
        Effective = true;
      if (Effective) {
        ++Out.Transport.ReordersEffective;
        ROPT_METRIC_INC("fleet.reorders_effective");
      }
      DS.MaxArrivedHintSeq = std::max(DS.MaxArrivedHintSeq, SendSeq);
      DS.AnyHintArrived = true;
      if (DS.Left)
        return; // Dead phones receive nothing.
      for (Hint &H : Hints) {
        // The chain's hint-latency sample: discovery virtual time to
        // this arrival, observed into the *receiving* class's sketch.
        Hub.onHintArrival(Id, H.Prov, H.Key, T);
        DS.Mailbox.push_back(std::move(H));
      }
    };
  };

  // ReportArrive: merge at the server, then push the hint set as it
  // stands *at arrival time* back toward the device.
  auto ReportArrive = [&](int Id, int StepIdx, DeviceStep DR) {
    return [&, Id, StepIdx, DR = std::move(DR)](EventLoop &L) mutable {
      VirtualTime T = L.now();
      Srv.merge(AppName, DR.Report, T);
      Hub.onMerge(Id, T);
      for (const GenomeReport &G : DR.Report.Best)
        Hub.onGenomeMerged(G.Prov, G.Key, T);
      DeviceState &DS = States[static_cast<size_t>(Id)];
      if (StepIdx > DS.LastMergedStep) {
        DS.LastMergedStep = StepIdx;
        DS.LastMerged = std::move(DR);
      }
      if (DS.Left)
        return;
      std::vector<Hint> Hints =
          Srv.hints(AppName, T, Clustered ? DS.Prof.ClassId : -1);
      if (Hints.empty())
        return;
      MessageKey Key{AppId, Channel::Hints, StepIdx, Id, 0};
      SendOutcome S = planDelivery(Net, Key, Opt.Retry);
      Out.Transport.count(S);
      if (!S.Delivered)
        return;
      Out.HintsPublished += Hints.size();
      uint64_t SendSeq = DS.NextHintSendSeq++;
      Hub.onDelivery(/*HintChannel=*/true, Id, T, T + S.DelayTicks);
      L.schedule(T + S.DelayTicks, -1, nullptr,
                 HintArrive(Id, SendSeq, S.Reordered ? S.ReorderTicks : 0,
                            std::move(Hints)));
    };
  };

  // StepDone: log the completed step, apply churn, send the report.
  auto FinishStep = [&](EventLoop &L, int Id) {
    DeviceState &DS = States[static_cast<size_t>(Id)];
    VirtualTime T = L.now();
    VirtualTime StepStart = T - DS.Pending.Duration;
    int StepIdx = DS.StepsDone++;
    DeviceStep DR = std::move(DS.Pending.Outcome);

    FleetStepLog Cell;
    Cell.Time = T;
    Cell.Step = StepIdx;
    Cell.Device = Id;
    Out.HintsAdopted += static_cast<uint64_t>(DR.HintsAdopted);
    Out.HintsRejected += static_cast<uint64_t>(DR.HintsRejected);

    // Telemetry: the step span + sketches, and the chain verdicts of
    // every hint the step verified (adoptions stamp the step's start —
    // the instant the GA actually consumed the seed).
    Hub.onStep(Id, StepIdx, StepStart, T, DR.BestSpeedup);
    for (uint64_t P : DR.AdoptedProvenance)
      Hub.onAdoption(Id, P, StepStart);
    for (uint64_t P : DR.RejectedProvenance)
      Hub.onRejection(Id, P);

    // Churn: a device past its leave tick died while the step ran. The
    // step's results leave with it — nothing is reported, and no further
    // steps are scheduled.
    if (DS.LeaveTick != 0 && T >= DS.LeaveTick) {
      DS.Left = true;
      ++Out.DevicesLeft;
      ROPT_METRIC_INC("fleet.devices_left");
      Cell.Dropped = true;
      Hub.onLeave(Id, T);
    } else {
      MessageKey Key{AppId, Channel::Report, StepIdx, Id, 0};
      SendOutcome S = planDelivery(Net, Key, Opt.Retry);
      Out.Transport.count(S);
      Cell.ReportDelivery = S;
      if (S.Delivered) {
        Hub.onDelivery(/*HintChannel=*/false, Id, T, T + S.DelayTicks);
        L.schedule(T + S.DelayTicks, -1, nullptr,
                   ReportArrive(Id, StepIdx, DR));
      }
      // A lost report costs its retry time, not the device's life: the
      // next step happens regardless (its report re-carries the best).
      if (DS.StepsDone < Steps)
        StartStep(L, Id, T + IdleTicks);
    }

    if (Report) {
      report::FleetStepRecord Rec;
      Rec.App = AppName;
      Rec.FleetDevices = Total;
      Rec.Step = StepIdx;
      Rec.Device = Id;
      Rec.VirtualTime = T;
      Rec.BestSpeedup = DR.BestSpeedup;
      Rec.BestGenome = DR.BestGenome;
      Rec.BestSource = search::genomeSourceName(DR.BestSource);
      Rec.BestFromHint = DR.BestFromHint;
      Rec.HintsReceived = DR.HintsReceived;
      Rec.HintsAdopted = DR.HintsAdopted;
      Rec.HintsRejected = DR.HintsRejected;
      Rec.Evaluations = DR.Evaluations;
      Rec.DeviceClass = DS.Prof.ClassId;
      Rec.BestProvenance = DR.BestProv.Id;
      Rec.BestDiscoveryDevice = DR.BestProv.Device;
      Rec.BestDiscoveryTime = DR.BestProv.Time;
      Rec.TransportAttempts = Cell.ReportDelivery.Attempts;
      Rec.TransportDrops = Cell.ReportDelivery.Drops;
      Rec.TransportTicks = Cell.ReportDelivery.DelayTicks;
      Rec.Delivered = Cell.ReportDelivery.Delivered;
      Report->onFleetStep(Rec);
    }

    Cell.Outcome = std::move(DR);
    Out.Log.push_back(std::move(Cell));
  };

  // StepExec: the expensive compute on the class lane. The wall-clock
  // work happens *now*, but the device only finishes at begin + virtual
  // duration — the commit books a StepDone event there, so hints landing
  // while the step "runs" wait in the mailbox for the next one. Starts
  // are aligned up to the grid: devices due within the same grid slot
  // compute in one parallel batch.
  StartStep = [&](EventLoop &L, int Id, VirtualTime At) {
    At = onGrid(At);
    DeviceState &DS = States[static_cast<size_t>(Id)];
    DS.NextStepAt = At;
    L.schedule(
        At, DS.Prof.ClassId,
        [&States, Id, At]() {
          DeviceState &DS = States[static_cast<size_t>(Id)];
          std::vector<Hint> Hints = std::move(DS.Mailbox);
          DS.Mailbox.clear();
          DS.Pending = DS.Dev->step(At, DS.StepsDone, Hints);
        },
        [&, Id](EventLoop &L2) {
          DeviceState &DS = States[static_cast<size_t>(Id)];
          L2.schedule(L2.now() + DS.Pending.Duration, -1, nullptr,
                      [&FinishStep, Id](EventLoop &L3) {
                        FinishStep(L3, Id);
                      });
        });
  };

  // --- Seed the population: start ticks, churn schedule, joiners.
  if (Steps > 0) {
    for (int I = 0; I != Total; ++I) {
      DeviceState &DS = States[static_cast<size_t>(I)];
      // The cross-run warm start: restored leaderboard hints land in the
      // mailbox before the first step, exactly as if delivered — the
      // device still re-verifies them against its own verification map.
      // Serial context, so the pre-seed is deterministic at any --jobs.
      if (Opt.WarmStartHints) {
        std::vector<Hint> WH =
            Srv.hints(AppName, 0, Clustered ? DS.Prof.ClassId : -1);
        Out.WarmStartHintCount += WH.size();
        for (Hint &H : WH)
          DS.Mailbox.push_back(std::move(H));
      }
      Rng R(DS.Prof.Seed ^ 0x57A7u);
      VirtualTime Start;
      if (DS.Joiner) {
        Start = 1 + R.below(std::max<uint64_t>(
                    Opt.Population.HorizonTicks, 1));
        // The joiner's first step lands on the grid — mark the join
        // instant where its track actually lights up.
        Hub.onJoin(I, onGrid(Start));
      } else {
        Start = 1 + R.below(StartSpreadTicks + 1);
        if (Opt.Population.LeaveFraction > 0.0 &&
            R.chance(Opt.Population.LeaveFraction)) {
          VirtualTime H = std::max<VirtualTime>(Opt.Population.HorizonTicks,
                                                4);
          DS.LeaveTick = H / 4 + R.below(H - H / 4 + 1);
        }
      }
      StartStep(Loop, I, Start);
    }
  }

  {
    ROPT_TRACE_SPAN("fleet.eventloop");
    Loop.run();
  }
  Out.VirtualDuration = Loop.now();

  ROPT_METRIC_ADD("fleet.transport_attempts", Out.Transport.Attempts);
  ROPT_METRIC_ADD("fleet.transport_drops", Out.Transport.Drops);

  // --- Aggregate: engine totals per class, fleet best over delivered
  // reports (a device's own view vs its own baseline).
  for (int C = 0; C != Classes; ++C) {
    const DeviceClassState &CS = *Class[static_cast<size_t>(C)];
    Out.Counters += CS.counters();
    Out.Cache.GenomeHits += CS.cacheStats().GenomeHits;
    Out.Cache.BinaryHits += CS.cacheStats().BinaryHits;
    Out.Cache.Misses += CS.cacheStats().Misses;
    Out.Racing.ReplaysSpent += CS.racingStats().ReplaysSpent;
    Out.Racing.FixedBudget += CS.racingStats().FixedBudget;
    Out.Racing.EarlyStops += CS.racingStats().EarlyStops;
    Out.Racing.Escalations += CS.racingStats().Escalations;
    Out.Racing.TopUps += CS.racingStats().TopUps;
    Out.ReplayBackend += CS.replayBackendStats();
    ++(CS.adoptedInputs() ? Out.SetupsShared : Out.SetupsOwn);
  }
  Out.Verdicts = Verdicts->stats();
  for (const std::shared_ptr<lir::CompileMemo> &M : Memos->memos()) {
    ++Out.CompileMemos;
    Out.Compile += M->stats();
  }
  for (int I = 0; I != Total; ++I) {
    const DeviceState &DS = States[static_cast<size_t>(I)];
    if (DS.LastMergedStep < 0)
      continue;
    if (DS.LastMerged.BestSpeedup > Out.BestSpeedup) {
      Out.BestSpeedup = DS.LastMerged.BestSpeedup;
      Out.BestGenome = DS.LastMerged.BestGenome;
      Out.BestDevice = I;
      Out.BestFromHint = DS.LastMerged.BestFromHint;
      Out.BestProv = DS.LastMerged.BestProv;
    }
  }
  if (const std::vector<Server::LeaderEntry> *L = Srv.leaderboard(AppName))
    Out.Leaderboard = *L;

  // Close the telemetry: crown the winning chain, snapshot the merged
  // sketches (device -> class -> cell) and the surviving trace events.
  if (Out.BestProv.Id != 0)
    Hub.markWinner(Out.BestProv.Id);
  Out.Telemetry = Hub.telemetry();
  Out.TraceEvents = Hub.traceEvents();
  if (Report) {
    Report->onFleetCell(Out.Telemetry);
    Report->onFleetTrace(AppName, Total, Classes, Out.TraceEvents);
  }

  Out.Succeeded = Out.BestSpeedup > 0.0;
  if (!Out.Succeeded)
    Out.FailureReason = "no delivered report carried a valid genome";
  return Out;
}
