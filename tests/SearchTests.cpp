//===- tests/SearchTests.cpp - search/ unit tests (synthetic fitness) -------===//

#include "search/GeneticSearch.h"

#include "search/EvaluationEngine.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

using namespace ropt;
using namespace ropt::search;

namespace {

/// Serial adapter over a per-genome callback, for synthetic landscapes.
/// Evaluates strictly in batch order on the calling thread.
class FunctionEvaluator : public BatchEvaluator {
public:
  explicit FunctionEvaluator(std::function<Evaluation(const Genome &)> Fn)
      : Fn(std::move(Fn)) {}

  std::vector<Evaluation>
  evaluateBatch(const std::vector<Genome> &Genomes) override {
    std::vector<Evaluation> Out;
    Out.reserve(Genomes.size());
    for (const Genome &G : Genomes)
      Out.push_back(Fn(G));
    return Out;
  }

private:
  std::function<Evaluation(const Genome &)> Fn;
};

GenomeConfig config() { return GenomeConfig(); }

/// A synthetic landscape: fitness improves with the number of distinct
/// "good" passes present, mimicking a compiler where each useful pass
/// shaves time. Aggressive genes are "broken" with some pass-dependent
/// pattern (unsound flags).
Evaluation syntheticEval(const Genome &G, Rng &NoiseRng) {
  Evaluation E;
  double Cycles = 10000.0;
  bool Broken = false;
  std::set<lir::PassId> Seen;
  for (const lir::PassInstance &P : G.Passes) {
    if (P.Aggressive &&
        (P.Id == lir::PassId::BoundsCheckElim ||
         P.Id == lir::PassId::JumpThreading))
      Broken = true;
    if (Seen.insert(P.Id).second)
      Cycles -= 400.0; // each distinct pass helps once
    if (P.Id == lir::PassId::LoopUnroll)
      Cycles -= 50.0 * std::min(P.IntParam, 8); // parameter matters
  }
  if (Broken) {
    E.Kind = EvalKind::WrongOutput;
    return E;
  }
  Cycles = std::max(Cycles, 500.0); // floor: timings stay positive
  E.Kind = EvalKind::Ok;
  for (int I = 0; I != 10; ++I)
    E.Samples.push_back(Cycles * NoiseRng.logNormal(0.0, 0.01));
  E.MedianCycles = ropt::median(E.Samples);
  E.CodeSize = 100 + 4 * G.Passes.size();
  // Hash: structural.
  uint64_t H = 14695981039346656037ULL;
  for (const lir::PassInstance &P : G.Passes) {
    H ^= static_cast<uint64_t>(P.Id) * 131 + P.IntParam;
    H *= 1099511628211ULL;
  }
  E.BinaryHash = H;
  return E;
}

/// The same landscape behind the EvalBackend interface, so the
/// EvaluationEngine (and its racing mode) can drive it. Fitness is
/// decided at compile time and stashed in the artifact; measurement
/// draws per-index noise around it, the contract racing relies on.
class LandscapeBackend : public EvalBackend {
public:
  CompiledBinary compileGenome(const Genome &G) override {
    CompiledBinary B;
    double Cycles = 10000.0;
    std::set<lir::PassId> Seen;
    uint64_t H = 14695981039346656037ULL;
    for (const lir::PassInstance &P : G.Passes) {
      if (P.Aggressive &&
          (P.Id == lir::PassId::BoundsCheckElim ||
           P.Id == lir::PassId::JumpThreading))
        return B; // unsound flag: rejected
      if (Seen.insert(P.Id).second)
        Cycles -= 400.0;
      if (P.Id == lir::PassId::LoopUnroll)
        Cycles -= 50.0 * std::min(P.IntParam, 8);
      H ^= static_cast<uint64_t>(P.Id) * 131 + P.IntParam;
      H *= 1099511628211ULL;
    }
    B.Ok = true;
    B.BinaryHash = H;
    B.CodeSize = 100 + 4 * G.Passes.size();
    B.Artifact =
        std::make_shared<const double>(std::max(Cycles, 500.0));
    return B;
  }

  Evaluation measureBinary(const CompiledBinary &B, uint64_t NoiseSeed,
                           size_t SampleCount) override {
    Evaluation E;
    E.Kind = EvalKind::Ok;
    E.CodeSize = B.CodeSize;
    E.BinaryHash = B.BinaryHash;
    E.BaseCycles = *static_cast<const double *>(B.Artifact.get());
    for (size_t I = 0; I != SampleCount; ++I)
      E.Samples.push_back(sampleAt(NoiseSeed, I, E.BaseCycles));
    E.SamplesSpent = static_cast<int>(SampleCount);
    E.MedianCycles = ropt::median(E.Samples);
    return E;
  }

  std::vector<double> extendSamples(const Evaluation &E,
                                    uint64_t NoiseSeed, size_t Begin,
                                    size_t Count) override {
    std::vector<double> Out;
    for (size_t I = 0; I != Count; ++I)
      Out.push_back(sampleAt(NoiseSeed, Begin + I, E.BaseCycles));
    return Out;
  }

private:
  static double sampleAt(uint64_t NoiseSeed, size_t Index, double Base) {
    Rng Noise(NoiseSeed +
              0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(Index) + 1));
    return Base * Noise.logNormal(0.0, 0.005);
  }
};

} // namespace

// --- Genome operators --------------------------------------------------------

TEST(Genome, RandomGenomesRespectBounds) {
  Rng R(1);
  GenomeConfig C = config();
  for (int I = 0; I != 200; ++I) {
    Genome G = randomGenome(R, C);
    EXPECT_GE(G.Passes.size(), C.MinLength);
    EXPECT_LE(G.Passes.size(), C.MaxInitialLength);
    for (const lir::PassInstance &P : G.Passes) {
      const lir::PassDescriptor &D = lir::passDescriptor(P.Id);
      if (D.HasIntParam) {
        EXPECT_GE(P.IntParam, D.MinInt);
        EXPECT_LE(P.IntParam, D.MaxInt);
      }
      if (!D.HasAggressive) {
        EXPECT_FALSE(P.Aggressive);
      }
    }
  }
}

TEST(Genome, MutationKeepsLengthBounds) {
  Rng R(2);
  GenomeConfig C = config();
  C.GeneMutationProb = 0.8; // exaggerate
  Genome G = randomGenome(R, C);
  for (int I = 0; I != 300; ++I) {
    mutate(G, R, C);
    EXPECT_GE(G.Passes.size(), C.MinLength);
    EXPECT_LE(G.Passes.size(), C.MaxLength);
  }
}

TEST(Genome, SoundSearchMutationNeverSetsTheAggressiveFlag) {
  // At AggressiveProb 0 a search is sound-only: mutation may clear the
  // flag but never set it, whatever the gene or the draw.
  GenomeConfig C = config();
  C.AggressiveProb = 0.0;
  C.GeneMutationProb = 0.5; // many flag toggles per genome
  int Aggressive = 0, Mutated = 0;
  for (uint64_t Seed = 0; Seed != 10000; ++Seed) {
    Rng R(Seed);
    Genome G = randomGenome(R, C);
    for (const lir::PassInstance &P : G.Passes)
      ASSERT_FALSE(P.Aggressive) << "unsound gene in a sound genome";
    Genome Before = G;
    mutate(G, R, C);
    Mutated += !(G == Before);
    for (const lir::PassInstance &P : G.Passes)
      Aggressive += P.Aggressive;
  }
  EXPECT_EQ(Aggressive, 0);
  EXPECT_GT(Mutated, 9000); // the mutations really ran
}

TEST(Genome, MutationChangesSomething) {
  Rng R(3);
  GenomeConfig C = config();
  C.GeneMutationProb = 1.0;
  Genome G = randomGenome(R, C);
  Genome Before = G;
  mutate(G, R, C);
  EXPECT_FALSE(G == Before);
}

TEST(Genome, CrossoverMixesParents) {
  Rng R(4);
  GenomeConfig C = config();
  Genome A = randomGenome(R, C), B = randomGenome(R, C);
  for (int I = 0; I != 100; ++I) {
    Genome Child = crossover(A, B, R, C);
    EXPECT_GE(Child.Passes.size(), C.MinLength);
    EXPECT_LE(Child.Passes.size(), C.MaxLength);
  }
}

TEST(Genome, RedundantPassRemoval) {
  Genome G;
  lir::PassInstance P;
  P.Id = lir::PassId::Gvn;
  G.Passes = {P, P, P};
  lir::PassInstance Q;
  Q.Id = lir::PassId::Dce;
  G.Passes.push_back(Q);
  G.Passes.push_back(P);
  removeRedundantPasses(G);
  ASSERT_EQ(G.Passes.size(), 3u);
  EXPECT_EQ(G.Passes[0].Id, lir::PassId::Gvn);
  EXPECT_EQ(G.Passes[1].Id, lir::PassId::Dce);
  EXPECT_EQ(G.Passes[2].Id, lir::PassId::Gvn);
}

TEST(Genome, NameRoundTripsThroughParser) {
  Rng R(5);
  Genome G = randomGenome(R, config());
  std::string Name = G.name();
  // Each comma-separated component parses back.
  size_t Pos = 0;
  std::string Plain = Name.substr(0, Name.find('|'));
  while (Pos < Plain.size()) {
    size_t Comma = Plain.find(',', Pos);
    std::string Part = Plain.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    lir::PassInstance P;
    EXPECT_TRUE(lir::parsePassInstance(Part, P)) << Part;
    Pos = Comma == std::string::npos ? Plain.size() : Comma + 1;
  }
}

// --- GeneticSearch over the synthetic landscape ----------------------------------

TEST(GeneticSearch, ImprovesOverRandom) {
  Rng NoiseRng(99);
  GaConfig C;
  C.Generations = 8;
  C.PopulationSize = 24;
  FunctionEvaluator Eval([&NoiseRng](const Genome &G) {
    return syntheticEval(G, NoiseRng);
  });
  GeneticSearch GA(C, 42, Eval);
  GaTrace Trace;
  auto Best = GA.run(9000.0, 8500.0, &Trace);
  ASSERT_TRUE(Best.has_value());

  // The best genome beats the typical random genome by a solid margin.
  EXPECT_LT(Best->E.MedianCycles, 6500.0);
  EXPECT_GT(Trace.Evaluations.size(), 100u);

  // The trace contains invalid evaluations (the GA tried broken genomes).
  bool SawInvalid = false;
  for (const TraceEntry &T : Trace.Evaluations)
    SawInvalid |= !T.Valid;
  EXPECT_TRUE(SawInvalid);
}

TEST(GeneticSearch, BestImprovesMonotonicallyInTrace) {
  Rng NoiseRng(7);
  GaConfig C;
  C.Generations = 6;
  C.PopulationSize = 16;
  FunctionEvaluator Eval([&NoiseRng](const Genome &G) {
    return syntheticEval(G, NoiseRng);
  });
  GeneticSearch GA(C, 17, Eval);
  GaTrace Trace;
  auto Best = GA.run(9000.0, 9000.0, &Trace);
  ASSERT_TRUE(Best.has_value());

  double BestSoFar = 1e18;
  for (const TraceEntry &T : Trace.Evaluations)
    if (T.Valid)
      BestSoFar = std::min(BestSoFar, T.MedianCycles);
  // The returned best is at least as good as anything the trace saw
  // (within the noise of re-sampling).
  EXPECT_LE(Best->E.MedianCycles, BestSoFar * 1.05);
}

TEST(GeneticSearch, DeterministicForFixedSeed) {
  auto RunOnce = [](uint64_t Seed) {
    Rng NoiseRng(1234);
    GaConfig C;
    C.Generations = 4;
    C.PopulationSize = 10;
    FunctionEvaluator Eval([&NoiseRng](const Genome &G) {
      return syntheticEval(G, NoiseRng);
    });
    GeneticSearch GA(C, Seed, Eval);
    auto Best = GA.run(9000.0, 9000.0);
    return Best ? Best->G.name() : std::string("none");
  };
  EXPECT_EQ(RunOnce(5), RunOnce(5));
  EXPECT_NE(RunOnce(5), RunOnce(6)); // different seeds explore differently
}

TEST(GeneticSearch, HaltsOnIdenticalBinaries) {
  // An evaluator that always returns the same binary hash.
  GaConfig C;
  C.Generations = 11;
  C.PopulationSize = 50;
  C.MaxIdenticalBinaries = 30;
  int Evaluations = 0;
  FunctionEvaluator Eval([&Evaluations](const Genome &) {
    ++Evaluations;
    Evaluation E;
    E.Kind = EvalKind::Ok;
    E.Samples = {100.0, 100.1, 99.9};
    E.MedianCycles = 100.0;
    E.CodeSize = 10;
    E.BinaryHash = 0xdead;
    return E;
  });
  GeneticSearch GA(C, 3, Eval);
  GaTrace Trace;
  auto Best = GA.run(200.0, 200.0, &Trace);
  ASSERT_TRUE(Best.has_value());
  EXPECT_TRUE(Trace.HaltedOnIdentical);
  // Halts long before 11 generations x 50 evaluations (plus gen-0
  // replacement retries and the hill climb).
  EXPECT_LT(Evaluations, 350);
  // The generation log skips the generations it never ran: every row
  // evaluated something, the rows increase, and the hill climb's row
  // (generation 11) follows the last GA generation directly.
  ASSERT_GE(Trace.Generations.size(), 2u);
  int LoggedEvals = 0;
  for (size_t I = 0; I != Trace.Generations.size(); ++I) {
    EXPECT_GT(Trace.Generations[I].Evaluations, 0);
    if (I) {
      EXPECT_GT(Trace.Generations[I].Generation,
                Trace.Generations[I - 1].Generation);
    }
    LoggedEvals += Trace.Generations[I].Evaluations;
  }
  EXPECT_LT(Trace.Generations.size(), 11u);
  EXPECT_EQ(Trace.Generations.back().Generation, 11);
  EXPECT_EQ(LoggedEvals, Evaluations);
}

TEST(GeneticSearch, AllFailuresYieldNullopt) {
  GaConfig C;
  C.Generations = 2;
  C.PopulationSize = 6;
  FunctionEvaluator Eval([](const Genome &) {
    Evaluation E;
    E.Kind = EvalKind::CompileError;
    return E;
  });
  GeneticSearch GA(C, 3, Eval);
  EXPECT_FALSE(GA.run(100.0, 100.0).has_value());
}

TEST(GeneticSearch, SizeBreaksTiesWhenTimingIsIndistinguishable) {
  // All genomes run at identical speed; shorter genomes are smaller.
  GaConfig C;
  C.Generations = 5;
  C.PopulationSize = 16;
  Rng NoiseRng(11);
  FunctionEvaluator Eval([&NoiseRng](const Genome &G) {
    Evaluation E;
    E.Kind = EvalKind::Ok;
    for (int I = 0; I != 10; ++I)
      E.Samples.push_back(500.0 * NoiseRng.logNormal(0.0, 0.02));
    E.MedianCycles = ropt::median(E.Samples);
    E.CodeSize = 100 + 16 * G.Passes.size();
    E.BinaryHash = NoiseRng.next(); // all distinct
    return E;
  });
  GeneticSearch GA(C, 21, Eval);
  auto Best = GA.run(1000.0, 1000.0);
  ASSERT_TRUE(Best.has_value());
  // The search gravitated toward the minimum length.
  EXPECT_LE(Best->G.Passes.size(), 4u);
}

// --- Adaptive measurement racing (DESIGN.md §11) -----------------------------

TEST(GeneticSearch, RacingCrownsTheSameWinnerWithFewerReplays) {
  // The tentpole claim: replacing the fixed replay budget with the
  // incumbent-relative race keeps the seeded search's winner while
  // early-stopping statistically-clear losers, cutting total replays
  // well past the 30% bar.
  auto RunOnce = [](bool Racing) {
    EngineOptions Opts;
    Opts.Jobs = 1;
    Opts.Racing = Racing;
    EvaluationEngine Engine(
        []() { return std::make_unique<LandscapeBackend>(); }, Opts,
        /*Seed=*/9);
    GaConfig C;
    C.Generations = 6;
    C.PopulationSize = 16;
    GeneticSearch GA(C, 42, Engine);
    std::optional<Scored> Best = GA.run(9000.0, 8500.0);
    const EngineRacingStats &S = Engine.racingStats();
    return std::tuple{Best ? Best->G.name() : std::string("none"),
                      Best ? Best->E.MedianCycles : 0.0, S.ReplaysSpent,
                      S.EarlyStops, S.TopUps};
  };
  auto [FixedName, FixedCycles, FixedSpent, FixedStops, FixedTopUps] =
      RunOnce(false);
  auto [RacedName, RacedCycles, RacedSpent, RacedStops, RacedTopUps] =
      RunOnce(true);

  // Same winner genome, indistinguishable final fitness.
  EXPECT_EQ(FixedName, RacedName);
  EXPECT_NE(FixedName, "none");
  EXPECT_NEAR(RacedCycles, FixedCycles, 0.05 * FixedCycles);

  // The fixed budget never stops early; the race did, and saved >= 30%.
  EXPECT_EQ(FixedStops, 0u);
  EXPECT_EQ(FixedTopUps, 0u);
  EXPECT_GT(RacedStops, 0u);
  EXPECT_LT(RacedSpent, FixedSpent * 7 / 10)
      << "racing saved less than 30% of the replay budget";
}
