//===- fleet/Device.h - One simulated fleet member --------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One device of the simulated population: a capture/replay/search
/// pipeline instance living on perturbed hardware. Heterogeneity comes in
/// three axes, all derived deterministically from the fleet seed: a
/// scaled os::KernelCostModel (slow vs fast kernels), a scaled
/// measurement-noise floor (quiet vs thermally-throttled phones), and a
/// shifted session parameter (different users exercise different inputs,
/// the paper's §5.4 concern).
///
/// Since the event-loop redesign (DESIGN.md §14) the pipeline state is
/// split in two. A DeviceClassState is one *hardware/user class* — the
/// app with the class's session input and the core::RegionSearch the
/// paper pipeline also searches through (captures, baselines, memoized
/// evaluation engine), set up by the same IterativeCompiler::
/// captureInputs and prepareSearch, for one point in the heterogeneity
/// space. The classes of one fleet cell share the app's read-only
/// DexFile, one verdict memo (DESIGN.md §22), so a (capture, binary) pair
/// is replayed once per cell, not once per class, and one compile-memo
/// table (§18). Classes with equal session inputs share the profile and
/// the captures as well when the sharing witness allows (§23). A Device
/// is one *member*: a private search seed, best-so-far and hint
/// bookkeeping on top of its class's pipeline.
/// A real install base of 10k phones spans a few dozen SoC/OS/input
/// classes, not 10k unique pipelines (the per-cluster population
/// treatment in the marnaed exemplar), so the coordinator clusters the
/// devices' profile vectors by seeded k-means (DESIGN.md §17). Sharing
/// the class engine is also what makes the simulation scale — class
/// members hit each other's memoized evaluations, so per-device
/// wall-clock *falls* as the population grows. `ProfileClasses = 0`
/// keeps one class per device, the fully-continuous population of the
/// old round-based fleet.
///
/// Devices are actors on the fleet EventLoop: `step()` runs one search
/// step at a virtual instant and returns, with the step report, the
/// *virtual duration* the step took on this device — derived from the
/// evaluation work actually done (cache misses are compiles+replays,
/// hits are table lookups) and the device's hardware cost scale. The
/// coordinator turns that duration into the step-completion event, so a
/// slow device genuinely reports later than a fast one.
///
/// The safety contract (DESIGN.md §12) is unchanged: every foreign hint
/// is compiled and replayed against the device's own verification map
/// before it may seed the local GA. A hint that miscompiles here —
/// whatever it did on the device that reported it — is rejected, counted
/// in `fleet.hints_rejected`, and reported back so the server
/// quarantines the genome fleet-wide.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_FLEET_DEVICE_H
#define ROPT_FLEET_DEVICE_H

#include "core/IterativeCompiler.h"
#include "fleet/EventLoop.h"
#include "fleet/Server.h"
#include "workloads/Workloads.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace ropt {
namespace fleet {

/// A device's identity in the population.
struct DeviceProfile {
  int Id = 0;
  int ClassId = 0;          ///< Hardware/user class (shares a pipeline).
  uint64_t Seed = 1;        ///< Drives all device-local randomness.
  double CostScale = 1.0;   ///< Kernel cost-model scale (capture overhead).
  double NoiseScale = 1.0;  ///< Measurement-noise sigma scale.
  int64_t SessionShift = 0; ///< Added to the app's default session param.

  /// Derives member \p Id of the population seeded by \p FleetSeed.
  /// \p CostJitter / \p NoiseJitter bound the uniform scale perturbation
  /// (e.g. 0.25 -> scales in [0.75, 1.25]); \p SessionSpread bounds the
  /// absolute session-parameter shift. Zeros give a homogeneous fleet.
  /// ClassId = Id (one class per device) until the coordinator clusters
  /// the population.
  static DeviceProfile derive(uint64_t FleetSeed, int Id, double CostJitter,
                              double NoiseJitter, int64_t SessionSpread);
};

/// A device's cost-model profile as a clustering feature vector
/// (DESIGN.md §17): [0..6] the seven kernel-cost scales (fork base/page,
/// maps parse, protect call/page, page fault, CoW copy — all equal to
/// CostScale today, kept per-event so the store format survives
/// per-event scaling), [7..8] the offline/online noise-sigma scales,
/// [9] the session-parameter shift. store::kmeans over these vectors is
/// what groups an install base into hardware/user classes.
inline constexpr int ProfileVectorDims = 10;
std::vector<double> profileVector(const DeviceProfile &P);

/// Virtual-cost model of one search step, in event-loop ticks. A step's
/// duration is (StepBaseTicks + Misses*StepMissTicks + Hits*StepHitTicks)
/// * CostScale: a cache miss pays a compile plus replays, a hit pays a
/// lookup, and the whole step scales with the device's hardware speed.
/// One fresh evaluation costs ~3x the transport latency ceiling, so a
/// round's search dominates its messaging — the paper's regime.
inline constexpr uint64_t StepBaseTicks = 40; ///< Fixed per-step overhead.
inline constexpr uint64_t StepMissTicks = 12; ///< Per fresh evaluation.
inline constexpr uint64_t StepHitTicks = 1;   ///< Per cache answer.

/// What one device did in one step (the unit the old fleet called a
/// "round"; under the event loop steps self-schedule, so devices are
/// usually at different step indices at the same virtual instant).
struct DeviceStep {
  StepReport Report; ///< What goes to the server (best + rejections).
  int HintsReceived = 0;
  int HintsAdopted = 0;  ///< Verified Ok locally, seeded into the GA.
  int HintsRejected = 0; ///< Failed local verification; reported back.
  int Evaluations = 0;   ///< Engine answers this step (cache hits incl.).
  double BestSpeedup = 0.0; ///< Device best-so-far vs own Android median.
  std::string BestGenome;
  search::GenomeSource BestSource = search::GenomeSource::Random;
  bool BestFromHint = false; ///< Best-so-far originated as a foreign hint.
  /// Provenance of the best-so-far genome: the chain minted when this
  /// device discovered it, or the foreign chain the adopted hint carried.
  Provenance BestProv;
  /// Chains verified this step, split by verdict (adopted chains were
  /// seeded into the GA; rejected ones were reported for quarantine).
  std::vector<uint64_t> AdoptedProvenance;
  std::vector<uint64_t> RejectedProvenance;
};

/// A completed step: the step report plus how long the step took in
/// virtual time (the coordinator schedules the completion event at
/// begin + Duration).
struct StepResult {
  DeviceStep Outcome;
  VirtualTime Duration = 1;
};

/// The shared pipeline of one hardware/user class: the app and the
/// core::RegionSearch (captures, baselines, memoized evaluation engine)
/// every class member searches through. Built and set up once per class;
/// afterwards only touched from Device::step, which the event loop
/// serializes per class (one lane per class), so the engine never sees
/// two concurrent members. What it shares with the other classes of its
/// cell — the DexFile, the verdict memo, the compile-memo table and a
/// leader's search inputs — is read-only or locks itself.
class DeviceClassState {
public:
  /// \p CellApp is the cell's application; the class keeps a copy that
  /// shares its DexFile. \p Base is the fleet-wide pipeline configuration;
  /// the class applies its profile on top (seed, cost/noise scaling,
  /// session shift) and forces the evaluation engine to a single job —
  /// parallelism belongs to the event loop's lanes, and a nested
  /// single-thread engine runs inline on the loop's worker. \p Verdicts is
  /// the cell's verdict memo (core::makeVerdictMemo over \p CellApp) and
  /// \p Memos its compile-memo table over \p CellApp's DexFile; null gives
  /// the class its own.
  DeviceClassState(const workloads::Application &CellApp,
                   const core::PipelineConfig &Base,
                   const DeviceProfile &ClassProfile,
                   std::shared_ptr<replay::VerdictMemo> Verdicts = nullptr,
                   std::shared_ptr<core::CompileMemoTable> Memos = nullptr);

  /// Phases 1-3 plus baselines, once per class, as optimize() does:
  /// profile, IterativeCompiler::captureInputs on the hot region, then
  /// IterativeCompiler::prepareSearch. \p Leader, when given, is a class
  /// already set up with the same sessionParam(): if its inputs are
  /// seed-independent (core::SearchInputs::seedIndependent) this class
  /// adopts them, re-priced with its own kernel costs, instead of
  /// profiling and capturing; otherwise it runs its own. The baselines are
  /// always this class's own (its seed, its noise). Returns false (see
  /// failureReason()) when the app yields no replayable region on this
  /// class's hardware.
  bool setup(const DeviceClassState *Leader = nullptr);

  /// The class's clamped session parameter: classes with equal values
  /// profile and capture the same sessions.
  int64_t sessionParam() const { return App.DefaultParam; }
  /// True when setup() adopted its leader's inputs.
  bool adoptedInputs() const { return Adopted; }
  /// The prepared search (after a successful setup()).
  const core::RegionSearch &search() const { return *Search; }

  const std::string &failureReason() const { return Failure; }
  const DeviceProfile &profile() const { return Prof; }
  double androidMedian() const { return Search->Android.MedianCycles; }
  /// The GA's -O3 bar (core::RegionSearch::o3Bar).
  double o3Median() const { return Search->o3Bar(); }
  /// The GA configuration every member step searches with.
  const search::GaConfig &gaConfig() const { return Config.Search.GA; }
  /// Engine statistics accumulated over every member step so far.
  const search::EngineCounters &counters() const;
  const search::EngineCacheStats &cacheStats() const;
  const search::EngineRacingStats &racingStats() const;
  /// Fork-server session accounting over the class engine's backends plus
  /// the class's serial baselines evaluator.
  search::ReplayBackendStats replayBackendStats() const;

private:
  friend class Device;

  /// The cell's app with this class's session input; its DexFile is the
  /// cell's, shared read-only by every class.
  workloads::Application App;
  core::PipelineConfig Config;
  DeviceProfile Prof; ///< The class's hardware/user point (Id = ClassId).
  std::string Failure;
  /// The cell's verdict memo and compile-memo table, handed to
  /// prepareSearch by setup().
  std::shared_ptr<replay::VerdictMemo> Verdicts;
  std::shared_ptr<core::CompileMemoTable> Memos;
  bool Adopted = false;

  /// The class's prepared search, built by setup().
  std::unique_ptr<core::RegionSearch> Search;
};

/// One fleet member: per-device search state on top of a shared class
/// pipeline.
class Device {
public:
  /// \p Class must outlive the device and must already be set up.
  Device(std::shared_ptr<DeviceClassState> Class, const DeviceProfile &Prof);

  /// One resumable search step at virtual instant \p Now: re-verify the
  /// hints delivered since the last step, warm-start the GA from the
  /// survivors plus the device's own best, search, and package the round
  /// report plus the step's virtual duration. \p StepIndex salts the
  /// step's search seed (the old round number's only surviving role).
  StepResult step(VirtualTime Now, int StepIndex,
                  const std::vector<Hint> &Hints);

  const DeviceProfile &profile() const { return Prof; }
  double androidMedian() const { return Class->androidMedian(); }
  const std::optional<search::Scored> &best() const { return Best; }

private:
  /// Speedup of \p E over this device's class Android baseline.
  double speedupOf(const search::Evaluation &E) const;
  /// Packages \p S for the server, minting a provenance chain at
  /// (\p Now, \p StepIndex) if this device is the genome's discoverer
  /// (an adopted hint keeps the chain it arrived on).
  GenomeReport reportFor(const search::Scored &S, VirtualTime Now,
                         int StepIndex);

  std::shared_ptr<DeviceClassState> Class;
  DeviceProfile Prof;

  std::optional<search::Scored> Best; ///< Best-so-far across steps.
  bool BestIsForeign = false;
  /// Hints already verified (either way) — received again, they are
  /// neither re-verified nor re-counted.
  std::map<std::string, bool> KnownHints; ///< Key -> adopted?
  std::set<std::string> AdoptedForeign;   ///< Keys of adopted hints.
  /// Genomes this device reported to the server; echoed back as hints,
  /// they are not foreign and skip the verification bookkeeping.
  std::set<std::string> OwnReported;
  /// Canonical name -> the provenance chain the genome rides on here:
  /// foreign chains enter at hint adoption, local chains are minted the
  /// first time the genome is reported.
  std::map<std::string, Provenance> GenomeProv;
};

} // namespace fleet
} // namespace ropt

#endif // ROPT_FLEET_DEVICE_H
