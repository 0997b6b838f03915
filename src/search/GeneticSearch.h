//===- search/GeneticSearch.h - The GA over the pass space ------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The genetic search of Sections 3.6 and 4: 11 generations of 50 genomes,
/// three mate-selection pipelines (elites, fittest, tournament of 7 at
/// 90%), 5% mutation probabilities, up to three gen-0 replacement retries
/// for genomes slower than both baselines, a halt after 100 identical
/// binaries, and a final hill-climbing step. Fitness is replay time with a
/// binary-size tiebreak when two binaries are statistically
/// indistinguishable.
///
/// Fitness is computed through the BatchEvaluator interface (the old
/// per-genome EvaluateFn callback is gone): the GA hands over whole
/// batches — generation 0, each generation's children, each gen-0
/// replacement round, each hill-climb neighborhood — and the evaluator is
/// free to schedule them across workers and memoize duplicates, as long
/// as Results[i] corresponds to Genomes[i]. All of the GA's own state
/// updates (identical-binary accounting, generation log, trace) happen in
/// batch order, so a seeded run is bit-identical at any parallelism.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_SEARCH_GENETIC_SEARCH_H
#define ROPT_SEARCH_GENETIC_SEARCH_H

#include "search/Genome.h"
#include "support/Result.h"

#include <optional>
#include <set>

namespace ropt {
namespace search {

/// How one genome's evaluation ended. Everything but Ok would have been
/// user-visible under online search (Figure 1's point).
enum class EvalKind {
  Unevaluated,    ///< Default-constructed: no evaluation happened (yet).
  Ok,
  CompileError,   ///< Verifier rejection or size-budget blowup.
  RuntimeCrash,   ///< Trap during replay.
  RuntimeTimeout, ///< Instruction budget exhausted.
  WrongOutput,    ///< Verification map mismatch.
};

const char *evalKindName(EvalKind K);

/// How the evaluation engine answered a genome: with fresh work, or from
/// one of its two cache levels. Deterministic in batch content, so it may
/// appear in persistent provenance records without breaking the
/// bit-identical-at-any-jobs guarantee.
enum class CacheOrigin {
  Fresh,     ///< Paid a compile (and replays when the compile succeeded).
  GenomeHit, ///< Answered by the canonical-genome-string cache.
  BinaryHit, ///< Fresh compile, but the binary hash was already measured.
};

const char *cacheOriginName(CacheOrigin O);

/// Result of evaluating one genome.
struct Evaluation {
  EvalKind Kind = EvalKind::Unevaluated;
  std::vector<double> Samples; ///< Replay timings (outliers removed).
  double MedianCycles = 0.0;
  uint64_t CodeSize = 0;
  uint64_t BinaryHash = 0; ///< Identity of the produced machine code.
  /// The typed capture/replay/compile error behind a non-Ok Kind
  /// (Unknown when Ok or never evaluated).
  support::ErrorCode Error = support::ErrorCode::Unknown;
  /// How the evaluation engine answered (Fresh for serial evaluators).
  CacheOrigin Origin = CacheOrigin::Fresh;

  /// The deterministic replay cycle count the measurement-noise model
  /// samples around (sum over captures). Lets a racing engine draw
  /// further samples for this binary later without re-verifying.
  double BaseCycles = 0.0;
  /// Measurement replays actually paid for this binary (raw draws,
  /// before outlier removal). Under a fixed budget this is the full
  /// budget; under racing it is what the race actually spent.
  int SamplesSpent = 0;
  /// Escalation blocks the racing engine granted beyond the seed block
  /// (0 under a fixed budget or for seed-block early stops).
  int EscalationRounds = 0;
  /// True when the racing engine terminated measurement early because
  /// this binary was a statistically-clear loser against the incumbent.
  bool EarlyStop = false;

  bool ok() const { return Kind == EvalKind::Ok; }
};

/// Batch fitness interface. Implementations must be deterministic in the
/// batch content: the result for a genome may not depend on scheduling,
/// worker count, or which other genomes share the batch (memoization that
/// returns the identical Evaluation for duplicates is fine).
class BatchEvaluator {
public:
  virtual ~BatchEvaluator() = default;

  /// Evaluates every genome; Results[i] belongs to Genomes[i].
  virtual std::vector<Evaluation>
  evaluateBatch(const std::vector<Genome> &Genomes) = 0;

  /// Tells the evaluator which evaluation is the search's current
  /// incumbent (best-so-far); the GA calls this before every batch it
  /// breeds against that incumbent. Racing evaluators race fresh
  /// binaries against it and may *top up* its samples to the full
  /// measurement budget — the returned evaluation is the one the search
  /// must keep for the incumbent from here on. The default (and any
  /// fixed-budget evaluator) returns \p E unchanged.
  virtual Evaluation announceIncumbent(const Evaluation &E) { return E; }
};

/// GA parameters (paper values, Section 4).
struct GaConfig {
  int Generations = 11;
  int PopulationSize = 50;
  double GenomeMutationProb = 0.05;
  GenomeConfig Genomes; ///< GeneMutationProb defaults to 5%.
  int TournamentSize = 7;
  double TournamentProb = 0.9;
  int MaxIdenticalBinaries = 100;
  int Gen0ReplacementRetries = 3;
  int EliteCount = 2;
  int HillClimbRounds = 2;
  double SignificanceAlpha = 0.05;
};

/// Where a population member's genome came from. `Seeded` marks genomes
/// injected through seedPopulation() — e.g. fleet hints or a warm-start
/// from a previous run — so downstream consumers can attribute a win to
/// crowd knowledge rather than local exploration.
enum class GenomeSource {
  Random,    ///< Drawn by the gen-0 random sampler (or a replacement).
  Seeded,    ///< Injected via seedPopulation() before generation 0.
  Bred,      ///< Crossover/mutation child of two population members.
  HillClimb, ///< Neighborhood step from the post-GA best.
};

const char *genomeSourceName(GenomeSource S);

/// One scored population member. ReportId is the provenance-record id the
/// genome's evaluation received (0 when no sink is attached); children
/// cite their parents' ids in the run report.
struct Scored {
  Genome G;
  Evaluation E;
  uint64_t ReportId = 0;
  GenomeSource Source = GenomeSource::Random;
  /// For Seeded members: the fleet provenance-chain id the seed carried
  /// through seedPopulation() (0 for local seeds and every other source).
  /// Lets the fleet attribute a winning genome to the device that
  /// originally discovered it.
  uint64_t SeedProvenance = 0;
};

/// A gen-0 seed plus the provenance chain it rides on (0 = local).
struct SeedGenome {
  Genome G;
  uint64_t Provenance = 0;
};

/// Figure 9's raw material: one entry per evaluation.
struct TraceEntry {
  int Generation = 0;
  double MedianCycles = 0.0; ///< 0 for invalid genomes.
  bool Valid = false;
};

/// Per-generation aggregate the search maintains as it runs — the
/// authoritative generation log Figure 9 consumes (harnesses no longer
/// re-derive it from the evaluation stream). The final row (Generation ==
/// GaConfig::Generations) accounts the hill-climbing evaluations.
struct GenerationStats {
  int Generation = 0;
  int Evaluations = 0; ///< Genomes evaluated in this generation.
  int Invalid = 0;     ///< Rejected: compile error, crash, timeout, wrong
                       ///< output.
  double BestCycles = 0.0;  ///< Min median cycles among valid; 0 if none.
  double WorstCycles = 0.0; ///< Max median cycles among valid; 0 if none.
  double MeanCycles = 0.0;  ///< Mean over valid genomes; 0 if none.

  int valid() const { return Evaluations - Invalid; }
};

struct GaTrace {
  std::vector<TraceEntry> Evaluations;
  std::vector<GenerationStats> Generations;
  int IdenticalBinaries = 0;
  bool HaltedOnIdentical = false;
};

/// Consumer of the search's evaluation-by-evaluation provenance (the
/// run-report flight recorder implements this). The GA calls it on the
/// calling thread, strictly in batch order, immediately after folding a
/// batch into its own state — so a seeded run emits an identical record
/// sequence at any evaluator parallelism. Implementations may write from
/// behind a lock; they must not call back into the search.
class ProvenanceSink {
public:
  virtual ~ProvenanceSink() = default;

  /// One evaluated genome. \p Parents are the record ids of the genomes
  /// this one was bred from (empty for random genomes, two for crossover
  /// children, one for hill-climb neighbors). Returns the id assigned to
  /// this record.
  virtual uint64_t onEvaluation(const Genome &G, const Evaluation &E,
                                int Generation,
                                const std::vector<uint64_t> &Parents) = 0;

  /// One finalized per-generation aggregate (means already computed);
  /// called once per generation when the search finishes.
  virtual void onGenerationDone(const GenerationStats &S) = 0;
};

/// The search engine. Pure logic: all measurement happens through the
/// batch evaluator, which must outlive the search.
class GeneticSearch {
public:
  /// \p Sink, when non-null, receives one provenance record per
  /// evaluation and the finalized generation log; it must outlive the
  /// search.
  GeneticSearch(GaConfig Config, uint64_t Seed, BatchEvaluator &Evaluator,
                ProvenanceSink *Sink = nullptr);

  /// Warm-starts generation 0: the given genomes (deduplicated by
  /// canonical name, truncated to the population size) are evaluated
  /// ahead of the random fill and enter the population with
  /// GenomeSource::Seeded. Callers wanting the paper's safety contract
  /// must only pass genomes they verified against their own verification
  /// map — the GA itself treats seeds like any other candidate (a seed
  /// that fails evaluation is eligible for gen-0 replacement). Call
  /// before run(); seeds persist across run() calls until replaced.
  void seedPopulation(std::vector<Genome> Seeds);

  /// Same, with each seed carrying its fleet provenance-chain id; the
  /// resulting Seeded population members get Scored::SeedProvenance, so
  /// "which device found the winner" survives the search.
  void seedPopulation(std::vector<SeedGenome> Seeds);

  /// Runs the full search. \p AndroidCycles and \p O3Cycles drive the
  /// gen-0 replacement biasing. Returns the best valid genome found, or
  /// nullopt if every evaluation failed.
  std::optional<Scored> run(double AndroidCycles, double O3Cycles,
                            GaTrace *Trace = nullptr);

private:
  /// Evaluates one batch and folds every result — in batch order — into
  /// the identical-binary count, the generation log, the trace, and the
  /// provenance sink. \p Parents (when given) holds one parent-id list
  /// per batch genome; \p IdsOut (when given) receives the sink-assigned
  /// record id per genome (0s without a sink).
  std::vector<Evaluation>
  evaluateBatch(const std::vector<Genome> &Batch, int Generation,
                GaTrace *Trace,
                const std::vector<std::vector<uint64_t>> *Parents = nullptr,
                std::vector<uint64_t> *IdsOut = nullptr);
  void record(const Evaluation &E, int Generation, GaTrace *Trace);
  /// Hands \p S to the evaluator as the current incumbent and folds the
  /// (possibly sample-topped-up) evaluation back into the population.
  void announceIncumbent(Scored &S);
  /// The hill-climb neighborhood of \p Base: gene drops, parameter
  /// nudges, flag toggles, one random extension.
  std::vector<Genome> neighborhood(const Genome &Base);
  /// Converts the per-generation running sums into means and copies the
  /// log into \p Trace.
  void finalizeGenerationStats(GaTrace *Trace);
  /// Statistically-sound comparison: true when A is strictly better
  /// (faster with significance, or indistinguishable but smaller).
  bool better(const Evaluation &A, const Evaluation &B) const;
  const Scored *selectMate(const std::vector<Scored> &Population,
                           Rng &R) const;
  void sortByFitness(std::vector<Scored> &Population) const;

  GaConfig Config;
  Rng R;
  BatchEvaluator &Evaluator;
  ProvenanceSink *Sink = nullptr;
  std::vector<SeedGenome> Seeds;
  std::set<uint64_t> SeenBinaries;
  std::vector<GenerationStats> GenStats;
  int IdenticalCount = 0;
};

} // namespace search
} // namespace ropt

#endif // ROPT_SEARCH_GENETIC_SEARCH_H
