//===- fleet/Device.cpp - One simulated fleet member ----------------------===//

#include "fleet/Device.h"

#include "lir/Backend.h"
#include "support/Metrics.h"
#include "support/Statistics.h"

#include <algorithm>

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

DeviceProfile DeviceProfile::deriveClassed(uint64_t FleetSeed, int Id,
                                           int Classes, double CostJitter,
                                           double NoiseJitter,
                                           int64_t SessionSpread) {
  if (Classes <= 0)
    return derive(FleetSeed, Id, CostJitter, NoiseJitter, SessionSpread);
  int ClassId = Id % Classes;
  // Hardware/user axes from the class stream: all members of a class are
  // the same phone model in the same hands.
  DeviceProfile P =
      derive(FleetSeed, ClassId, CostJitter, NoiseJitter, SessionSpread);
  P.Id = Id;
  P.ClassId = ClassId;
  // Search seed from the device stream: class members explore differently.
  Rng R(FleetSeed ^ (0x9e3779b97f4a7c15ull *
                     (static_cast<uint64_t>(Id) + 1)));
  P.Seed = R.next();
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

DeviceClassState::DeviceClassState(const std::string &AppName,
                                   const core::PipelineConfig &Base,
                                   const DeviceProfile &ClassProfile)
    : App(workloads::buildByName(AppName)), Config(Base),
      Prof(ClassProfile) {
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

bool DeviceClassState::setup() {
  core::IterativeCompiler Pipeline(Config);
  core::IterativeCompiler::ProfiledApp Profiled = Pipeline.profileApp(App);
  if (!Profiled.Region) {
    Failure = "no replayable hot region";
    return false;
  }
  Region = *Profiled.Region;

  // Fleet steps inherit the observability loop's allocation: when the
  // coordinator runs analysis-guided, each class derives its own
  // criticality scale and bottleneck mask from its own profile, and every
  // member step's GA (step() reads Config.Search.GA) searches under them.
  if (Config.Search.AnalysisGuided) {
    analysis::AppAnalysis Analysis =
        analysis::analyzeApp(*App.File, Profiled.Profile, Profiled.RA);
    if (const analysis::RegionReport *R = Analysis.byRoot(Region.Root)) {
      Config.Search.GA = core::scaledGaConfig(Config.Search.GA,
                                              R->BudgetScale);
      if (R->Slack > 0)
        Config.Search.GA.Genomes.DisabledPassMask |=
            analysis::prunedPassMask(R->Label);
    }
  }

  Captures = Pipeline.captureRegionMulti(
      *Profiled.Instance, Region,
      std::max(1, Config.Capture.CapturesPerRegion));
  if (Captures.empty()) {
    Failure = "capture failed";
    return false;
  }

  // One compile memo per class, shared by its baselines and engine; all
  // class memos draw on one process-wide resident budget.
  std::shared_ptr<lir::CompileMemo> Memo =
      core::makeCompileMemo(App, Captures, Config);
  Baselines = std::make_unique<core::RegionEvaluator>(App, Region, Captures,
                                                      Config, Memo);
  search::EngineOptions Opts;
  Opts.Jobs = 1; // See the constructor: never nest a multi-thread pool.
  Opts.Memoize = Config.Search.Memoize;
  Opts.Racing = Config.Search.Racing;
  Opts.MinReplays = Config.Search.MinReplaysPerEvaluation;
  Opts.MaxReplays = Config.Search.MaxReplaysPerEvaluation;
  Opts.RacingAlpha = Config.Search.GA.SignificanceAlpha;
  Engine = std::make_unique<search::EvaluationEngine>(
      [this, Memo]() {
        return std::make_unique<core::RegionEvaluator>(App, Region,
                                                       Captures, Config, Memo);
      },
      Opts, Config.Seed);

  search::Evaluation Android = Baselines->evaluateAndroid();
  if (!Android.ok()) {
    Failure = "android baseline replay failed";
    return false;
  }
  AndroidCycles = Android.MedianCycles;
  search::Evaluation O3 = Baselines->evaluatePipeline(lir::o3Pipeline());
  O3Cycles = O3.ok() ? O3.MedianCycles : AndroidCycles;
  return true;
}

const search::EngineCounters &DeviceClassState::counters() const {
  return Engine->counters();
}

const search::EngineCacheStats &DeviceClassState::cacheStats() const {
  return Engine->cacheStats();
}

const search::EngineRacingStats &DeviceClassState::racingStats() const {
  return Engine->racingStats();
}

search::ReplayBackendStats DeviceClassState::replayBackendStats() const {
  search::ReplayBackendStats R = Engine->replayBackendStats();
  if (Baselines)
    R += Baselines->replayStats();
  return R;
}

Device::Device(std::shared_ptr<DeviceClassState> Class,
               const DeviceProfile &Prof, const StepCosts &Costs)
    : Class(std::move(Class)), Prof(Prof), Costs(Costs) {}

double Device::speedupOf(const search::Evaluation &E) const {
  return E.MedianCycles > 0.0 ? Class->AndroidCycles / E.MedianCycles : 0.0;
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
      R.SpeedupSamples.push_back(Class->AndroidCycles / Cycles);
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
  DeviceRound &Out = Res.Round;
  search::EvaluationEngine &Engine = *Class->Engine;
  Out.Report.Device = Prof.Id;
  Out.Report.Round = StepIndex;
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
  search::GeneticSearch GA(Class->Config.Search.GA, StepSeed, Engine,
                           nullptr);
  GA.seedPopulation(std::move(Seeds));
  std::optional<search::Scored> StepBest =
      GA.run(Class->AndroidCycles, Class->O3Cycles);

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

  // --- Package the round report: the device's best-so-far, plus the
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
  double Ticks = static_cast<double>(Costs.BaseTicks + Costs.MissTicks * Misses +
                                     Costs.HitTicks * Hits) *
                 Prof.CostScale;
  Res.Duration = std::max<VirtualTime>(1, static_cast<VirtualTime>(Ticks));
  return Res;
}
