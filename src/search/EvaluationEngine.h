//===- search/EvaluationEngine.h - Parallel, memoizing fitness --*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way fitness is computed: a concurrent, memoizing evaluation
/// engine between the GA and the replay backends. The paper's search
/// burns 550 replay evaluations per app and halts after 100 *identical*
/// binaries — an admission that the search keeps recompiling and
/// re-replaying duplicates. The engine removes both costs:
///
///  - **Parallelism.** Each batch is one dynamically scheduled sweep
///    over a fixed ThreadPool: a task compiles one genome and, when the
///    binary is fresh and no other task of the batch has claimed it,
///    measures it right away on the same backend. Every worker slot owns
///    its own EvalBackend — its own replay sandbox and RNGs — so no VM or
///    kernel state is ever shared between threads.
///
///  - **Memoization.** A two-level cache: canonicalized genome -> compile
///    outcome (so textually equal pipelines compile once), and binary
///    hash -> Evaluation (so *different* genomes producing the same
///    machine code cost a hash lookup instead of ReplaysPerEvaluation
///    replays).
///
///  - **Racing (adaptive measurement).** With `EngineOptions::Racing`,
///    the fixed replays-per-evaluation budget becomes an incumbent-
///    relative race: every fresh binary gets a seed block of MinReplays
///    samples, then a sequential rank test against the incumbent's
///    samples (alpha spent geometrically across escalation rounds, so
///    the family-wise error of the whole race stays at RacingAlpha)
///    either terminates it early as a statistically-clear loser,
///    escalates it by another block, or caps it at MaxReplays as a
///    contender. Cached evaluations keep their samples and are topped
///    up to the full budget only when the GA announces them as the
///    incumbent.
///
///  - **Determinism.** Work lists, cache commits and every racing
///    decision happen in batch order on the calling thread; workers only
///    fill pre-assigned slots. Claims decide where a binary is measured,
///    batch order decides what is recorded. Measurement noise is seeded
///    from (engine seed, binary hash, sample index), never from
///    scheduling order. A seeded run is therefore bit-identical at any
///    `--jobs` value.
///
/// Replay failures surface as typed support::Error values; the engine
/// maps them onto EvalKind in exactly one place (evalKindForError).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_SEARCH_EVALUATION_ENGINE_H
#define ROPT_SEARCH_EVALUATION_ENGINE_H

#include "search/GeneticSearch.h"
#include "support/Result.h"

#include <functional>
#include <memory>
#include <unordered_map>

namespace ropt {

class ThreadPool;

namespace search {

/// One compiled genome, as produced by a backend worker.
struct CompiledBinary {
  bool Ok = false;
  uint64_t BinaryHash = 0;
  uint64_t CodeSize = 0;
  /// Backend-defined compiled artifact consumed by measureBinary();
  /// immutable once built, so it may be measured by any worker.
  std::shared_ptr<const void> Artifact;
};

/// Fork-server replay-session accounting, aggregated by the engine across
/// its backends (all zeros for backends without sessions). Mirrors
/// replay::SessionStats without making the search layer depend on replay.
struct ReplayBackendStats {
  uint64_t SessionsCreated = 0;
  uint64_t SessionReplays = 0;
  uint64_t FreshReplays = 0;
  uint64_t DeltaResets = 0;
  uint64_t PagesReverted = 0;
  uint64_t FullRebuilds = 0;

  ReplayBackendStats &operator+=(const ReplayBackendStats &O) {
    SessionsCreated += O.SessionsCreated;
    SessionReplays += O.SessionReplays;
    FreshReplays += O.FreshReplays;
    DeltaResets += O.DeltaResets;
    PagesReverted += O.PagesReverted;
    FullRebuilds += O.FullRebuilds;
    return *this;
  }

  double pagesPerReset() const {
    return DeltaResets ? static_cast<double>(PagesReverted) /
                             static_cast<double>(DeltaResets)
                       : 0.0;
  }

  bool any() const {
    return SessionsCreated || SessionReplays || FreshReplays ||
           DeltaResets || FullRebuilds;
  }
};

/// Per-worker compile+measure backend. The engine constructs one backend
/// per worker slot and guarantees a backend is never driven by two
/// threads at once, so implementations may keep mutable state (replay
/// sandboxes, ASLR RNGs) without synchronization. Everything a backend
/// reads from its construction context (dex file, captures, verification
/// maps, config) must be immutable for the engine's lifetime.
class EvalBackend {
public:
  virtual ~EvalBackend() = default;

  virtual CompiledBinary compileGenome(const Genome &G) = 0;

  /// Replays/measures a compiled binary, drawing \p SampleCount raw
  /// timing samples. \p NoiseSeed is a pure function of binary identity
  /// and sample \c i must be a pure function of (NoiseSeed, i), making
  /// the samples independent of scheduling, worker count, and of how the
  /// total draw is split into racing blocks. The returned evaluation
  /// carries the *raw* samples (the engine owns outlier removal),
  /// BaseCycles, and SamplesSpent = \p SampleCount.
  virtual Evaluation measureBinary(const CompiledBinary &B,
                                   uint64_t NoiseSeed,
                                   size_t SampleCount) = 0;

  /// Draws raw samples [\p Begin, \p Begin + \p Count) for an
  /// already-measured binary, without its compiled artifact — a pure
  /// function of (NoiseSeed, index, E.BaseCycles). Racing uses this to
  /// escalate a candidate by another block and to top up a memoized
  /// incumbent whose artifact is long gone.
  virtual std::vector<double> extendSamples(const Evaluation &E,
                                            uint64_t NoiseSeed,
                                            size_t Begin, size_t Count) = 0;

  /// Fork-server session accounting for this backend; default for
  /// backends that do not replay (or run sessions off) is all-zeros.
  virtual ReplayBackendStats replayStats() const { return {}; }
};

/// The single mapping from typed capture/replay errors onto the GA's
/// outcome classification.
EvalKind evalKindForError(support::ErrorCode Code);

/// The noise seed of a binary's measurement stream: a pure function of
/// (\p Seed, \p BinaryHash), so a binary draws the same samples wherever
/// it is measured — on any engine worker, at any --jobs, or through a
/// backend's serial calls.
uint64_t binaryNoiseSeed(uint64_t Seed, uint64_t BinaryHash);

struct EngineOptions {
  int Jobs = 0;        ///< Worker threads; 0 = hardware concurrency.
  bool Memoize = true; ///< The two-level genome/binary cache.

  /// Adaptive measurement racing. Off: every fresh binary pays exactly
  /// MaxReplays samples (the paper's fixed budget). On: fresh binaries
  /// start with MinReplays and race the incumbent for the rest.
  bool Racing = false;
  int MinReplays = 3;  ///< Racing seed block (and escalation block) size.
  int MaxReplays = 10; ///< Measurement budget per binary.
  /// Family-wise significance level of one binary's whole race; spent
  /// across escalation rounds via racingRoundAlpha().
  double RacingAlpha = 0.05;
};

/// Replay-budget accounting, kept in both modes so ablations can compare
/// racing against the fixed budget it replaces.
struct EngineRacingStats {
  uint64_t ReplaysSpent = 0; ///< Raw measurement samples actually drawn.
  /// What the same fresh measurements would have cost at a fixed
  /// MaxReplays budget (equals ReplaysSpent when racing is off).
  uint64_t FixedBudget = 0;
  uint64_t EarlyStops = 0;  ///< Races ended as statistically-clear losers.
  uint64_t Escalations = 0; ///< Blocks granted beyond the seed block.
  uint64_t TopUps = 0;      ///< Incumbents topped up to the full budget.

  uint64_t saved() const {
    return FixedBudget > ReplaysSpent ? FixedBudget - ReplaysSpent : 0;
  }
};

/// Outcome classes over every evaluation the engine answered (cache hits
/// included, matching the old per-call RegionEvaluator counters).
struct EngineCounters {
  int Ok = 0;
  int CompileError = 0;
  int RuntimeCrash = 0;
  int RuntimeTimeout = 0;
  int WrongOutput = 0;

  int total() const {
    return Ok + CompileError + RuntimeCrash + RuntimeTimeout + WrongOutput;
  }

  /// Tallies one evaluation outcome (Unevaluated is not counted).
  void count(EvalKind K);

  EngineCounters &operator+=(const EngineCounters &O) {
    Ok += O.Ok;
    CompileError += O.CompileError;
    RuntimeCrash += O.RuntimeCrash;
    RuntimeTimeout += O.RuntimeTimeout;
    WrongOutput += O.WrongOutput;
    return *this;
  }
};

struct EngineCacheStats {
  uint64_t GenomeHits = 0; ///< Answered by the genome-level cache.
  uint64_t BinaryHits = 0; ///< Fresh compile, but the binary was known.
  uint64_t Misses = 0;     ///< Paid a fresh compile (and replays if Ok).

  uint64_t hits() const { return GenomeHits + BinaryHits; }
};

class EvaluationEngine : public BatchEvaluator {
public:
  using BackendFactory = std::function<std::unique_ptr<EvalBackend>()>;

  /// \p Seed feeds per-binary measurement-noise streams (binaryNoiseSeed);
  /// pass the pipeline seed so runs stay reproducible.
  EvaluationEngine(BackendFactory Factory, EngineOptions Options,
                   uint64_t Seed);
  ~EvaluationEngine() override;

  std::vector<Evaluation>
  evaluateBatch(const std::vector<Genome> &Genomes) override;

  /// Installs the search's best-so-far as the racing reference and tops
  /// its samples up to the full budget (no-op when racing is off).
  Evaluation announceIncumbent(const Evaluation &E) override;

  /// Worker threads the engine schedules over. They start on the first
  /// sweep with work for more than one of them (ThreadPool).
  size_t jobs() const;
  /// The engine's worker pool, for work that runs between batches (the
  /// pipeline's install measurements). Never call evaluateBatch() from a
  /// task on it.
  ThreadPool &pool() { return *Pool; }

  const EngineCounters &counters() const { return Stats; }
  const EngineCacheStats &cacheStats() const { return Cache; }
  const EngineRacingStats &racingStats() const { return Racing; }
  /// Sum of replayStats() over every backend built so far.
  ReplayBackendStats replayBackendStats() const;

private:
  struct GenomeEntry {
    bool Ok = false;
    uint64_t BinaryHash = 0;
  };

  /// Lazily constructs backends for slots [0, Count).
  void ensureBackends(size_t Count);
  /// Rebuilds the public (outlier-cleaned) sample view of \p E from the
  /// raw samples stored for its binary hash.
  void finalizeFromRaw(Evaluation &E) const;
  /// Races freshly-measured Ok binaries (\p Racers, in batch order, raw
  /// seed blocks already in RawSamples) against the incumbent: serial
  /// per-round decisions, parallel block draws.
  void raceFreshBinaries(const std::vector<Evaluation *> &Racers);

  BackendFactory Factory;
  EngineOptions Options;
  uint64_t Seed;
  std::unique_ptr<ThreadPool> Pool;
  std::vector<std::unique_ptr<EvalBackend>> Backends;

  /// Level 1: canonical genome key -> compile outcome.
  std::unordered_map<std::string, GenomeEntry> GenomeCache;
  /// Level 2: binary hash -> full evaluation.
  std::unordered_map<uint64_t, Evaluation> BinaryCache;
  /// Raw (pre-outlier-removal) samples per measured binary hash; the
  /// substrate racing extends deterministically block by block.
  std::unordered_map<uint64_t, std::vector<double>> RawSamples;
  /// Cleaned samples of the search's announced best-so-far — the
  /// reference every race tests against. Empty until the first
  /// announceIncumbent().
  std::vector<double> IncumbentSamples;

  EngineCounters Stats;
  EngineCacheStats Cache;
  EngineRacingStats Racing;
};

} // namespace search
} // namespace ropt

#endif // ROPT_SEARCH_EVALUATION_ENGINE_H
