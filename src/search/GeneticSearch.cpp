//===- search/GeneticSearch.cpp - The GA over the pass space ----------------===//

#include "search/GeneticSearch.h"

#include "support/Metrics.h"
#include "support/Statistics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace ropt;
using namespace ropt::search;

const char *search::evalKindName(EvalKind K) {
  switch (K) {
  case EvalKind::Unevaluated: return "unevaluated";
  case EvalKind::Ok: return "ok";
  case EvalKind::CompileError: return "compile-error";
  case EvalKind::RuntimeCrash: return "runtime-crash";
  case EvalKind::RuntimeTimeout: return "runtime-timeout";
  case EvalKind::WrongOutput: return "wrong-output";
  }
  return "unknown";
}

const char *search::genomeSourceName(GenomeSource S) {
  switch (S) {
  case GenomeSource::Random: return "random";
  case GenomeSource::Seeded: return "seeded";
  case GenomeSource::Bred: return "bred";
  case GenomeSource::HillClimb: return "hill-climb";
  }
  return "unknown";
}

const char *search::cacheOriginName(CacheOrigin O) {
  switch (O) {
  case CacheOrigin::Fresh: return "miss";
  case CacheOrigin::GenomeHit: return "genome-hit";
  case CacheOrigin::BinaryHit: return "binary-hit";
  }
  return "unknown";
}

GeneticSearch::GeneticSearch(GaConfig Config, uint64_t Seed,
                             BatchEvaluator &Evaluator,
                             ProvenanceSink *Sink)
    : Config(Config), R(Seed), Evaluator(Evaluator), Sink(Sink) {}

void GeneticSearch::seedPopulation(std::vector<Genome> NewSeeds) {
  std::vector<SeedGenome> Tagged;
  Tagged.reserve(NewSeeds.size());
  for (Genome &G : NewSeeds)
    Tagged.push_back(SeedGenome{std::move(G), 0});
  seedPopulation(std::move(Tagged));
}

void GeneticSearch::seedPopulation(std::vector<SeedGenome> NewSeeds) {
  // Deduplicate by canonical name (first occurrence wins) and cap at the
  // population size — a seed slot spent twice on the same genome is a
  // wasted random draw.
  Seeds.clear();
  std::set<std::string> Names;
  for (SeedGenome &S : NewSeeds) {
    removeRedundantPasses(S.G);
    if (Seeds.size() == static_cast<size_t>(Config.PopulationSize))
      break;
    if (Names.insert(S.G.name()).second)
      Seeds.push_back(std::move(S));
  }
}

void GeneticSearch::record(const Evaluation &E, int Generation,
                           GaTrace *Trace) {
  if (E.ok() && !SeenBinaries.insert(E.BinaryHash).second)
    ++IdenticalCount;
  if (Trace) {
    TraceEntry T;
    T.Generation = Generation;
    T.Valid = E.ok();
    T.MedianCycles = E.ok() ? E.MedianCycles : 0.0;
    Trace->Evaluations.push_back(T);
  }

  // The generation log. MeanCycles carries the running sum until run()
  // finalizes it into a mean.
  if (static_cast<size_t>(Generation) >= GenStats.size())
    GenStats.resize(static_cast<size_t>(Generation) + 1);
  GenerationStats &S = GenStats[static_cast<size_t>(Generation)];
  S.Generation = Generation;
  ++S.Evaluations;
  if (!E.ok()) {
    ++S.Invalid;
  } else {
    if (S.valid() == 1 || E.MedianCycles < S.BestCycles)
      S.BestCycles = E.MedianCycles;
    if (S.valid() == 1 || E.MedianCycles > S.WorstCycles)
      S.WorstCycles = E.MedianCycles;
    S.MeanCycles += E.MedianCycles;
  }

  ROPT_METRIC_INC("search.evaluations");
  if (E.ok())
    ROPT_METRIC_INC("search.genomes_accepted");
  else
    ROPT_METRIC_INC("search.genomes_rejected");
}

std::vector<Evaluation> GeneticSearch::evaluateBatch(
    const std::vector<Genome> &Batch, int Generation, GaTrace *Trace,
    const std::vector<std::vector<uint64_t>> *Parents,
    std::vector<uint64_t> *IdsOut) {
  assert((!Parents || Parents->size() == Batch.size()) &&
         "one parent list per batch genome");
  std::vector<Evaluation> Results = Evaluator.evaluateBatch(Batch);
  assert(Results.size() == Batch.size() &&
         "evaluator broke the batch contract");
  if (IdsOut)
    IdsOut->assign(Batch.size(), 0);
  static const std::vector<uint64_t> NoParents;
  for (size_t I = 0; I != Results.size(); ++I) {
    record(Results[I], Generation, Trace);
    if (Sink) {
      uint64_t Id = Sink->onEvaluation(
          Batch[I], Results[I], Generation,
          Parents ? (*Parents)[I] : NoParents);
      if (IdsOut)
        (*IdsOut)[I] = Id;
    }
  }
  return Results;
}

bool GeneticSearch::better(const Evaluation &A, const Evaluation &B) const {
  if (A.ok() != B.ok())
    return A.ok();
  if (!A.ok())
    return false;
  // One three-way rank test instead of the old significantlyLess(A,B) /
  // significantlyLess(B,A) pair, which computed the rank sums twice.
  switch (compareSamples(A.Samples, B.Samples, Config.SignificanceAlpha)) {
  case SampleOrder::Less:
    return true;
  case SampleOrder::Greater:
    return false;
  case SampleOrder::Indistinguishable:
    break;
  }
  // Statistically indistinguishable: prefer the smaller binary.
  return A.CodeSize < B.CodeSize;
}

void GeneticSearch::announceIncumbent(Scored &S) {
  if (!S.E.ok())
    return;
  S.E = Evaluator.announceIncumbent(S.E);
}

void GeneticSearch::sortByFitness(std::vector<Scored> &Population) const {
  std::stable_sort(Population.begin(), Population.end(),
                   [this](const Scored &A, const Scored &B) {
                     return better(A.E, B.E);
                   });
}

const Scored *
GeneticSearch::selectMate(const std::vector<Scored> &Population,
                          Rng &Rand) const {
  assert(!Population.empty());
  // Three pipelines, chosen uniformly per mating (Section 3.6).
  switch (Rand.below(3)) {
  case 0: { // elites only
    size_t Elites = std::min<size_t>(
        std::max<size_t>(1, Config.EliteCount), Population.size());
    return &Population[Rand.below(Elites)];
  }
  case 1: // fittest only
    return &Population.front();
  default: { // tournament selection
    std::vector<size_t> Candidates;
    for (int I = 0; I != Config.TournamentSize; ++I)
      Candidates.push_back(
          static_cast<size_t>(Rand.below(Population.size())));
    std::sort(Candidates.begin(), Candidates.end());
    // Pick the best with probability p, second best with p(1-p), ...
    for (size_t N = 0; N + 1 < Candidates.size(); ++N)
      if (Rand.chance(Config.TournamentProb))
        return &Population[Candidates[N]];
    return &Population[Candidates.back()];
  }
  }
}

std::vector<Genome> GeneticSearch::neighborhood(const Genome &Base) {
  std::vector<Genome> Neighbors;
  for (size_t I = 0; I <= Base.Passes.size(); ++I) {
    if (I < Base.Passes.size()) {
      if (Base.Passes.size() > Config.Genomes.MinLength) {
        Genome Dropped = Base;
        Dropped.Passes.erase(Dropped.Passes.begin() + I);
        Neighbors.push_back(std::move(Dropped));
      }
      const lir::PassDescriptor &D = lir::passDescriptor(Base.Passes[I].Id);
      if (D.HasIntParam) {
        for (int Delta : {-1, 1}) {
          Genome Nudged = Base;
          int &Param = Nudged.Passes[I].IntParam;
          Param = std::clamp(Param + Delta * std::max(1, Param / 4),
                             D.MinInt, D.MaxInt);
          Neighbors.push_back(std::move(Nudged));
        }
      }
      if (D.HasAggressive) {
        Genome Toggled = Base;
        Toggled.Passes[I].Aggressive = !Toggled.Passes[I].Aggressive;
        Neighbors.push_back(std::move(Toggled));
      }
    } else if (Base.Passes.size() < Config.Genomes.MaxLength) {
      Genome Extended = Base;
      Extended.Passes.push_back(randomGene(R, Config.Genomes));
      Neighbors.push_back(std::move(Extended));
    }
  }
  // No-op neighbors (clamped parameters, duplicate drops) waste budget.
  Neighbors.erase(std::remove_if(Neighbors.begin(), Neighbors.end(),
                                 [&Base](const Genome &N) {
                                   return N == Base;
                                 }),
                  Neighbors.end());
  return Neighbors;
}

std::optional<Scored> GeneticSearch::run(double AndroidCycles,
                                         double O3Cycles, GaTrace *Trace) {
  ROPT_TRACE_SPAN("search.run");
  SeenBinaries.clear();
  GenStats.clear();
  IdenticalCount = 0;

  double BaselineBar = std::min(AndroidCycles, O3Cycles);

  // --- Generation 0: random, with replacement biasing. -------------------
  std::vector<Scored> Population;
  {
    ROPT_TRACE_SPAN_V("search.generation", 0);
    // Seeded genomes (fleet hints, warm starts) lead the batch; the
    // random sampler fills the remaining slots. Seeds were deduplicated
    // and capped at the population size by seedPopulation().
    std::vector<Genome> Initial;
    Initial.reserve(static_cast<size_t>(Config.PopulationSize));
    for (const SeedGenome &S : Seeds)
      Initial.push_back(S.G);
    size_t NumSeeded = Initial.size();
    while (Initial.size() < static_cast<size_t>(Config.PopulationSize)) {
      Genome G = randomGenome(R, Config.Genomes);
      removeRedundantPasses(G);
      Initial.push_back(std::move(G));
    }
    std::vector<uint64_t> Ids;
    std::vector<Evaluation> Evals =
        evaluateBatch(Initial, 0, Trace, nullptr, &Ids);
    for (size_t I = 0; I != Initial.size(); ++I)
      Population.push_back(Scored{std::move(Initial[I]), std::move(Evals[I]),
                                  Ids[I],
                                  I < NumSeeded ? GenomeSource::Seeded
                                                : GenomeSource::Random,
                                  I < NumSeeded ? Seeds[I].Provenance : 0});

    // Replace genomes slower than both baselines, one round per retry,
    // biasing the search toward profitable space (Section 4). Each round
    // races against the best genome seen so far (the population is not
    // sorted yet, so find it by scan).
    for (int Retry = 0; Retry != Config.Gen0ReplacementRetries; ++Retry) {
      size_t BestI = 0;
      for (size_t I = 1; I < Population.size(); ++I)
        if (better(Population[I].E, Population[BestI].E))
          BestI = I;
      if (!Population.empty())
        announceIncumbent(Population[BestI]);
      std::vector<size_t> Poor;
      for (size_t I = 0; I != Population.size(); ++I) {
        const Evaluation &E = Population[I].E;
        if (!E.ok() || E.MedianCycles > BaselineBar)
          Poor.push_back(I);
      }
      if (Poor.empty())
        break;
      std::vector<Genome> Replacements;
      Replacements.reserve(Poor.size());
      for (size_t I = 0; I != Poor.size(); ++I) {
        Genome G = randomGenome(R, Config.Genomes);
        removeRedundantPasses(G);
        Replacements.push_back(std::move(G));
      }
      Evals = evaluateBatch(Replacements, 0, Trace, nullptr, &Ids);
      for (size_t I = 0; I != Poor.size(); ++I)
        Population[Poor[I]] = Scored{std::move(Replacements[I]),
                                     std::move(Evals[I]), Ids[I],
                                     GenomeSource::Random};
    }
  }
  sortByFitness(Population);

  // --- Generations 1..N-1. -----------------------------------------------
  for (int Gen = 1; Gen < Config.Generations; ++Gen) {
    if (IdenticalCount >= Config.MaxIdenticalBinaries) {
      if (Trace)
        Trace->HaltedOnIdentical = true;
      break;
    }
    ROPT_TRACE_SPAN_V("search.generation", Gen);
    // The sorted front is this generation's incumbent: fresh children are
    // raced against it, and a racing evaluator tops its samples up to the
    // full budget first.
    if (!Population.empty())
      announceIncumbent(Population.front());
    std::vector<Scored> Next;
    // Elitism: the best genomes survive unchanged (no re-evaluation).
    for (int E = 0; E < Config.EliteCount &&
                    static_cast<size_t>(E) < Population.size();
         ++E)
      Next.push_back(Population[static_cast<size_t>(E)]);

    std::vector<Genome> Children;
    std::vector<std::vector<uint64_t>> ChildParents;
    while (Next.size() + Children.size() <
           static_cast<size_t>(Config.PopulationSize)) {
      const Scored *MateA = selectMate(Population, R);
      const Scored *MateB = selectMate(Population, R);
      Genome Child = crossover(MateA->G, MateB->G, R, Config.Genomes);
      if (R.chance(Config.GenomeMutationProb))
        mutate(Child, R, Config.Genomes);
      Children.push_back(std::move(Child));
      ChildParents.push_back({MateA->ReportId, MateB->ReportId});
    }
    std::vector<uint64_t> Ids;
    std::vector<Evaluation> Evals =
        evaluateBatch(Children, Gen, Trace, &ChildParents, &Ids);
    for (size_t I = 0; I != Children.size(); ++I)
      Next.push_back(Scored{std::move(Children[I]), std::move(Evals[I]),
                            Ids[I], GenomeSource::Bred});

    Population = std::move(Next);
    sortByFitness(Population);
    if (!Population.empty() && Population.front().E.ok()) {
      ROPT_TRACE_COUNTER("search.best_cycles",
                         Population.front().E.MedianCycles);
      ROPT_METRIC_GAUGE_SET("search.best_cycles",
                            Population.front().E.MedianCycles);
    }
  }

  if (Trace)
    Trace->IdenticalBinaries = IdenticalCount;
  ROPT_METRIC_ADD("search.identical_binaries", IdenticalCount);

  if (Population.empty() || !Population.front().E.ok()) {
    finalizeGenerationStats(Trace);
    return std::nullopt;
  }

  // --- Hill climbing from the best genome: evaluate the whole
  // neighborhood as one batch, then step to its best improvement. --------
  ROPT_TRACE_SPAN("search.hillclimb");
  Scored Best = Population.front();
  for (int Round = 0; Round != Config.HillClimbRounds; ++Round) {
    announceIncumbent(Best);
    std::vector<Genome> Neighbors = neighborhood(Best.G);
    if (Neighbors.empty())
      break;
    std::vector<std::vector<uint64_t>> NeighborParents(
        Neighbors.size(), std::vector<uint64_t>{Best.ReportId});
    std::vector<uint64_t> Ids;
    std::vector<Evaluation> Evals = evaluateBatch(
        Neighbors, Config.Generations, Trace, &NeighborParents, &Ids);
    ROPT_METRIC_ADD("search.hillclimb_steps", Neighbors.size());
    bool Improved = false;
    for (size_t I = 0; I != Neighbors.size(); ++I) {
      if (Evals[I].ok() && better(Evals[I], Best.E)) {
        Best = Scored{std::move(Neighbors[I]), std::move(Evals[I]), Ids[I],
                      GenomeSource::HillClimb};
        Improved = true;
      }
    }
    if (!Improved)
      break;
  }
  finalizeGenerationStats(Trace);
  return Best;
}

void GeneticSearch::finalizeGenerationStats(GaTrace *Trace) {
  // record() indexes the log by generation. A search that halts early
  // never runs some generations, but the hill climb still records as
  // generation Config.Generations, so the log has zeroed gap rows: drop
  // them, and publish only generations that evaluated something.
  GenStats.erase(std::remove_if(GenStats.begin(), GenStats.end(),
                                [](const GenerationStats &S) {
                                  return S.Evaluations == 0;
                                }),
                 GenStats.end());
  // record() accumulates the valid-genome sum in MeanCycles; turn it
  // into a mean now that the generation populations are final.
  for (GenerationStats &S : GenStats)
    if (S.valid() > 0)
      S.MeanCycles /= S.valid();
  if (Trace)
    Trace->Generations = GenStats;
  if (Sink)
    for (const GenerationStats &S : GenStats)
      Sink->onGenerationDone(S);
}
