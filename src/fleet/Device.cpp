//===- fleet/Device.cpp - One simulated fleet member ----------------------===//

#include "fleet/Device.h"

#include "support/Metrics.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cassert>

using namespace ropt;
using namespace ropt::fleet;

DeviceProfile DeviceProfile::derive(uint64_t FleetSeed, int Id,
                                    double CostJitter, double NoiseJitter,
                                    int64_t SessionSpread) {
  DeviceProfile P;
  P.Id = Id;
  P.ClassId = Id;
  Rng R(FleetSeed ^ (0x9e3779b97f4a7c15ull *
                     (static_cast<uint64_t>(Id) + 1)));
  P.Seed = R.next();
  if (CostJitter > 0.0)
    P.CostScale = 1.0 + R.uniform(-CostJitter, CostJitter);
  if (NoiseJitter > 0.0)
    P.NoiseScale = 1.0 + R.uniform(-NoiseJitter, NoiseJitter);
  if (SessionSpread > 0)
    P.SessionShift = R.range(-SessionSpread, SessionSpread);
  return P;
}

std::vector<double> fleet::profileVector(const DeviceProfile &P) {
  std::vector<double> V;
  V.reserve(ProfileVectorDims);
  for (int I = 0; I != 7; ++I)
    V.push_back(P.CostScale); // One slot per scaled kernel-cost event.
  V.push_back(P.NoiseScale);  // OfflineSigma scale.
  V.push_back(P.NoiseScale);  // OnlineSigma scale.
  V.push_back(static_cast<double>(P.SessionShift));
  return V;
}

DeviceClassState::DeviceClassState(
    const workloads::Application &CellApp, const core::PipelineConfig &Base,
    const DeviceProfile &ClassProfile,
    std::shared_ptr<replay::VerdictMemo> Verdicts,
    std::shared_ptr<core::CompileMemoTable> Memos)
    : App(CellApp), Config(Base), Prof(ClassProfile),
      Verdicts(std::move(Verdicts)), Memos(std::move(Memos)) {
  Config.Seed = Prof.Seed;
  // The event loop's lanes provide cross-class parallelism; a nested
  // single-job engine runs inline on the loop's worker (a multi-thread
  // nested pool would deadlock parallelFor).
  Config.Search.Jobs = 1;
  // Device GAs log through fleet.jsonl, not the evaluation stream.
  Config.Provenance = nullptr;

  // Hardware heterogeneity: scale every per-event kernel cost (a uniformly
  // slower/faster SoC) and the measurement-noise floor.
  os::KernelCostModel &K = Config.Capture.KernelCosts;
  K.ForkBaseUs *= Prof.CostScale;
  K.ForkPerPageUs *= Prof.CostScale;
  K.MapsParsePerMappingUs *= Prof.CostScale;
  K.ProtectCallUs *= Prof.CostScale;
  K.ProtectPerPageUs *= Prof.CostScale;
  K.PageFaultUs *= Prof.CostScale;
  K.CowCopyUs *= Prof.CostScale;
  Config.Measure.Noise.OfflineSigma *= Prof.NoiseScale;
  Config.Measure.Noise.OnlineSigma *= Prof.NoiseScale;

  // User heterogeneity: this class's owners exercise a different session
  // input (only meaningful for apps with a real online parameter range).
  if (Prof.SessionShift != 0 && App.MinParam < App.MaxParam)
    App.DefaultParam = std::clamp(App.DefaultParam + Prof.SessionShift,
                                  App.MinParam, App.MaxParam);
}

bool DeviceClassState::setup(const DeviceClassState *Leader) {
  core::IterativeCompiler Pipeline(Config);
  std::optional<core::SearchInputs> Inputs;
  if (Leader && Leader->Search && Leader->Search->Inputs.seedIndependent()) {
    // The leader profiled and captured the sessions this class would: no
    // environment read let the seed in, and the kernel costs reach only
    // the captures' overheads, which no search reads. This class holds
    // the leader's captures. The leader's work counts toward the cell's
    // simulated work as if this class had executed it.
    assert(Leader->sessionParam() == sessionParam() &&
           "a leader must share the session input");
    Inputs = Leader->Search->Inputs;
    Adopted = true;
    ROPT_METRIC_ADD("fleet.setup_shared_cycles", Inputs->SetupCycles);
    ROPT_METRIC_ADD("fleet.setup_shared_insns", Inputs->SetupInsns);
  } else {
    core::IterativeCompiler::ProfiledApp Profiled = Pipeline.profileApp(App);
    if (!Profiled.Region) {
      Failure = "no replayable hot region";
      return false;
    }
    support::Result<core::SearchInputs> Captured =
        Pipeline.captureInputs(Profiled, *Profiled.Region);
    if (!Captured) {
      Failure = Captured.error().Message;
      return false;
    }
    Inputs = std::move(Captured).value();
  }

  // The compile memo comes from the cell's table: classes whose captures
  // merge to the same type profile compile through one memo. The verdict
  // memo is the cell's: classes whose captures coincide replay each
  // binary once between them.
  std::shared_ptr<lir::CompileMemo> Memo;
  if (Memos)
    Memo = Memos->memoFor(core::mergedTypeProfile(*Inputs->Captures),
                          Config.Search.CompileSizeBudget);
  support::Result<std::unique_ptr<core::RegionSearch>> Prepared =
      Pipeline.prepareSearch(App, std::move(*Inputs), Verdicts,
                             std::move(Memo));
  if (!Prepared) {
    Failure = Prepared.error().Message;
    return false;
  }
  Search = std::move(Prepared).value();
  return true;
}

const search::EngineCounters &DeviceClassState::counters() const {
  return Search->Engine.counters();
}

const search::EngineCacheStats &DeviceClassState::cacheStats() const {
  return Search->Engine.cacheStats();
}

const search::EngineRacingStats &DeviceClassState::racingStats() const {
  return Search->Engine.racingStats();
}

search::ReplayBackendStats DeviceClassState::replayBackendStats() const {
  return Search->replayBackendStats();
}

Device::Device(std::shared_ptr<DeviceClassState> Class,
               const DeviceProfile &Prof)
    : Class(std::move(Class)), Prof(Prof) {}

double Device::speedupOf(const search::Evaluation &E) const {
  return E.MedianCycles > 0.0 ? Class->androidMedian() / E.MedianCycles
                              : 0.0;
}

GenomeReport Device::reportFor(const search::Scored &S, VirtualTime Now,
                               int StepIndex) {
  GenomeReport R;
  R.G = S.G;
  R.Key = S.G.name();
  R.BinaryHash = S.E.BinaryHash;
  R.CodeSize = S.E.CodeSize;
  for (double Cycles : S.E.Samples)
    if (Cycles > 0.0)
      R.SpeedupSamples.push_back(Class->androidMedian() / Cycles);
  R.SpeedupMedian =
      R.SpeedupSamples.empty() ? speedupOf(S.E) : median(R.SpeedupSamples);
  R.Source = S.Source;
  // Chain bookkeeping: a genome that entered as an adopted hint keeps
  // the chain it arrived on; anything else reported here for the first
  // time is a local discovery and mints a fresh chain at this step's
  // virtual instant. Re-reports in later steps keep the original mint.
  auto It = GenomeProv.find(R.Key);
  if (It == GenomeProv.end())
    It = GenomeProv
             .emplace(R.Key,
                      Provenance{mintProvenanceId(Prof.Id, StepIndex, R.Key),
                                 Prof.Id, StepIndex, Now})
             .first;
  R.Prov = It->second;
  return R;
}

StepResult Device::step(VirtualTime Now, int StepIndex,
                        const std::vector<Hint> &Hints) {
  StepResult Res;
  DeviceStep &Out = Res.Outcome;
  search::EvaluationEngine &Engine = Class->Search->Engine;
  Out.Report.Device = Prof.Id;
  Out.Report.Step = StepIndex;
  Out.Report.DeviceClass = Prof.ClassId;
  int EvalsBefore = Engine.counters().total();
  search::EngineCacheStats CacheBefore = Engine.cacheStats();
  ROPT_METRIC_INC("fleet.device_rounds");

  // --- Re-verify foreign hints before adoption (the safety contract):
  // compile + replay against *this class's* verification map, through
  // the engine so repeats are cache hits. Hints echoing our own reports
  // are not foreign and skip the bookkeeping.
  std::vector<const Hint *> Foreign;
  std::vector<const Hint *> Fresh;
  for (const Hint &H : Hints) {
    if (OwnReported.count(H.Key))
      continue;
    Foreign.push_back(&H);
    if (!KnownHints.count(H.Key))
      Fresh.push_back(&H);
  }
  Out.HintsReceived = static_cast<int>(Foreign.size());
  if (!Fresh.empty()) {
    std::vector<search::Genome> ToVerify;
    ToVerify.reserve(Fresh.size());
    for (const Hint *H : Fresh)
      ToVerify.push_back(H->G);
    std::vector<search::Evaluation> Verdicts =
        Engine.evaluateBatch(ToVerify);
    for (size_t I = 0; I != Fresh.size(); ++I) {
      bool Adopted = Verdicts[I].ok();
      KnownHints[Fresh[I]->Key] = Adopted;
      if (Adopted) {
        AdoptedForeign.insert(Fresh[I]->Key);
        // The adopted genome rides the foreign chain from here on —
        // reportFor() must not mint a local one for it.
        GenomeProv[Fresh[I]->Key] = Fresh[I]->Prov;
        Out.AdoptedProvenance.push_back(Fresh[I]->Prov.Id);
        ROPT_METRIC_INC("fleet.hints_adopted");
      } else {
        Out.Report.Rejections.push_back(
            HintRejection{Fresh[I]->Key,
                          search::evalKindName(Verdicts[I].Kind),
                          Fresh[I]->Prov.Id});
        Out.RejectedProvenance.push_back(Fresh[I]->Prov.Id);
        ROPT_METRIC_INC("fleet.hints_rejected");
      }
    }
  }
  for (const Hint *H : Foreign) {
    if (KnownHints[H->Key])
      ++Out.HintsAdopted;
    else
      ++Out.HintsRejected;
  }

  // --- Warm-started local search: own best first, then the adopted
  // hints in delivered order (seedPopulation dedups). The step seed is
  // the *device* seed salted by the step index, so class members sharing
  // an engine still explore distinct trajectories.
  std::vector<search::SeedGenome> Seeds;
  if (Best) {
    auto It = GenomeProv.find(Best->G.name());
    Seeds.push_back(search::SeedGenome{
        Best->G, It == GenomeProv.end() ? 0 : It->second.Id});
  }
  for (const Hint *H : Foreign)
    if (KnownHints[H->Key])
      Seeds.push_back(search::SeedGenome{H->G, H->Prov.Id});
  uint64_t StepSeed =
      Prof.Seed ^ (0x6a5e + 0x9e3779b97f4a7c15ull *
                              (static_cast<uint64_t>(StepIndex) + 1));
  search::GeneticSearch GA(Class->gaConfig(), StepSeed, Engine, nullptr);
  GA.seedPopulation(std::move(Seeds));
  std::optional<search::Scored> StepBest =
      GA.run(Class->androidMedian(), Class->o3Median());

  if (StepBest && StepBest->E.ok()) {
    bool Better =
        !Best || StepBest->E.MedianCycles < Best->E.MedianCycles ||
        (StepBest->E.MedianCycles == Best->E.MedianCycles &&
         StepBest->E.CodeSize < Best->E.CodeSize);
    if (Better) {
      Best = *StepBest;
      BestIsForeign = Best->Source == search::GenomeSource::Seeded &&
                      AdoptedForeign.count(Best->G.name()) > 0;
    }
  }

  // --- Package the step report: the device's best-so-far, plus the
  // step's own discovery when it differs (leaderboard diversity).
  if (Best) {
    Out.Report.Best.push_back(reportFor(*Best, Now, StepIndex));
    OwnReported.insert(Best->G.name());
    if (StepBest && StepBest->E.ok() &&
        StepBest->G.name() != Best->G.name()) {
      Out.Report.Best.push_back(reportFor(*StepBest, Now, StepIndex));
      OwnReported.insert(StepBest->G.name());
    }
    Out.BestSpeedup = speedupOf(Best->E);
    Out.BestGenome = Best->G.name();
    Out.BestSource = Best->Source;
    Out.BestFromHint = BestIsForeign;
    Out.BestProv = GenomeProv[Best->G.name()]; // reportFor minted above.
  }
  Out.Evaluations = Engine.counters().total() - EvalsBefore;

  // --- Virtual duration: what the step cost *this* device. Fresh
  // compiles dominate; cache hits (often warmed by class siblings) are
  // near-free, which is exactly why per-device wall-clock shrinks as the
  // class fills up.
  search::EngineCacheStats CacheAfter = Engine.cacheStats();
  uint64_t Misses = CacheAfter.Misses - CacheBefore.Misses;
  uint64_t Hits = CacheAfter.hits() - CacheBefore.hits();
  double Ticks = static_cast<double>(StepBaseTicks + StepMissTicks * Misses +
                                     StepHitTicks * Hits) *
                 Prof.CostScale;
  Res.Duration = std::max<VirtualTime>(1, static_cast<VirtualTime>(Ticks));
  return Res;
}
