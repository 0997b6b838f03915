//===- tests/ParallelSearchTests.cpp - Engine/ThreadPool/Result tests --------===//
//
// The parallel evaluation engine's contracts: ThreadPool scheduling and
// exception propagation, jobs-invariant determinism (bit-identical
// results at any worker count), two-level memoization accounting, and
// the Result error plumbing into EvalKind. These tests carry the
// "parallel" ctest label and are the ThreadSanitizer targets
// (-Dropt_tsan=ON).
//
//===----------------------------------------------------------------------===//

#include "core/IterativeCompiler.h"
#include "search/EvaluationEngine.h"
#include "support/Metrics.h"
#include "support/Result.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

using namespace ropt;
using namespace ropt::search;

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(N, [&](size_t I, size_t Slot) {
    EXPECT_LT(Slot, 4u);
    Hits[I].fetch_add(1);
  });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, WorkerSlotsAreExclusive) {
  // Two tasks may never run on the same slot at the same time: per-slot
  // state needs no synchronization.
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> InSlot(3);
  std::atomic<bool> Clashed{false};
  Pool.parallelFor(300, [&](size_t, size_t Slot) {
    if (InSlot[Slot].fetch_add(1) != 0)
      Clashed = true;
    InSlot[Slot].fetch_sub(1);
  });
  EXPECT_FALSE(Clashed.load());
}

TEST(ThreadPool, SubmitRunsTasksAndPropagatesExceptions) {
  ThreadPool Pool(2);
  std::future<void> Ok = Pool.submit([] {});
  Ok.get(); // does not throw
  std::future<void> Bad =
      Pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(Bad.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsAndStaysUsable) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(100,
                                [&](size_t I, size_t) {
                                  if (I == 37)
                                    throw std::runtime_error("item 37");
                                }),
               std::runtime_error);
  // The sweep stopped, the pool survived; later work still runs.
  std::atomic<int> Count{0};
  Pool.parallelFor(50, [&](size_t, size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPool, CleanShutdownWithQueuedWork) {
  // Destroying a pool with tasks still queued must not hang or crash;
  // unstarted tasks are abandoned.
  for (int Round = 0; Round != 10; ++Round) {
    ThreadPool Pool(2);
    for (int I = 0; I != 64; ++I)
      Pool.submit([] {});
  } // dtor joins here
  SUCCEED();
}

TEST(ThreadPool, StartsItsThreadsOnFirstUse) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  EXPECT_FALSE(Pool.started());
  Pool.parallelFor(1, [](size_t, size_t) {}); // one runner: inline
  EXPECT_FALSE(Pool.started());
  Pool.parallelFor(8, [](size_t, size_t) {});
  EXPECT_TRUE(Pool.started());
  EXPECT_EQ(Pool.size(), 4u);

  ThreadPool Submitted(2);
  Submitted.submit([] {}).get();
  EXPECT_TRUE(Submitted.started());
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool Pool(1);
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::thread::id> Seen;
  Pool.parallelFor(5, [&](size_t, size_t Slot) {
    EXPECT_EQ(Slot, 0u);
    Seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(Seen.size(), 5u);
  for (std::thread::id Id : Seen)
    EXPECT_EQ(Id, Caller);
  EXPECT_FALSE(Pool.started());
}

// --- A deterministic synthetic backend for engine tests ----------------------

namespace {

/// Compile = FNV over the canonical genome string; empty pipelines fail.
/// Binary identity deliberately collapses pass *parameters* so distinct
/// genomes can produce identical "binaries" (exercising the binary-level
/// cache). Measurement cost is a pure function of (hash, noise seed).
class SyntheticBackend : public EvalBackend {
public:
  SyntheticBackend(std::atomic<int> &Compiles, std::atomic<int> &Measures)
      : Compiles(Compiles), Measures(Measures) {}

  CompiledBinary compileGenome(const Genome &G) override {
    Compiles.fetch_add(1);
    CompiledBinary B;
    if (G.Passes.empty())
      return B; // compile error
    uint64_t H = 1469598103934665603ULL;
    for (const lir::PassInstance &P : G.Passes) {
      H ^= static_cast<uint64_t>(P.Id) + 1;
      H *= 1099511628211ULL;
    }
    B.Ok = true;
    B.BinaryHash = H;
    B.CodeSize = 10 * G.Passes.size();
    B.Artifact = std::make_shared<const uint64_t>(H);
    return B;
  }

  Evaluation measureBinary(const CompiledBinary &B, uint64_t NoiseSeed,
                           size_t SampleCount) override {
    Measures.fetch_add(1);
    Evaluation E;
    E.Kind = EvalKind::Ok;
    E.CodeSize = B.CodeSize;
    E.BinaryHash = B.BinaryHash;
    E.BaseCycles = 1000.0 + static_cast<double>(B.BinaryHash % 977);
    for (size_t I = 0; I != SampleCount; ++I)
      E.Samples.push_back(sampleAt(NoiseSeed, I, E.BaseCycles));
    E.SamplesSpent = static_cast<int>(SampleCount);
    E.MedianCycles = median(E.Samples);
    return E;
  }

  std::vector<double> extendSamples(const Evaluation &E, uint64_t NoiseSeed,
                                    size_t Begin, size_t Count) override {
    std::vector<double> Out;
    for (size_t I = 0; I != Count; ++I)
      Out.push_back(sampleAt(NoiseSeed, Begin + I, E.BaseCycles));
    return Out;
  }

private:
  /// Sample i is a pure function of (NoiseSeed, i): the engine may split
  /// the draw into racing blocks without changing any value.
  static double sampleAt(uint64_t NoiseSeed, size_t Index, double Base) {
    Rng Noise(NoiseSeed +
              0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(Index) + 1));
    return Base * Noise.logNormal(0.0, 0.01);
  }

  std::atomic<int> &Compiles;
  std::atomic<int> &Measures;
};

std::vector<Genome> randomBatch(uint64_t Seed, size_t N) {
  Rng R(Seed);
  GenomeConfig GC;
  std::vector<Genome> Out;
  for (size_t I = 0; I != N; ++I)
    Out.push_back(randomGenome(R, GC));
  return Out;
}

bool sameEvaluation(const Evaluation &A, const Evaluation &B) {
  return A.Kind == B.Kind && A.Samples == B.Samples &&
         A.MedianCycles == B.MedianCycles && A.CodeSize == B.CodeSize &&
         A.BinaryHash == B.BinaryHash && A.SamplesSpent == B.SamplesSpent &&
         A.EscalationRounds == B.EscalationRounds &&
         A.EarlyStop == B.EarlyStop;
}

} // namespace

// --- EvaluationEngine: worker threads start with the first parallel sweep ----

TEST(EvaluationEngine, StartsItsThreadsOnTheFirstParallelBatch) {
  std::atomic<int> Compiles{0}, Measures{0};
  EngineOptions Opts;
  Opts.Jobs = 4;
  EvaluationEngine Engine(
      [&]() { return std::make_unique<SyntheticBackend>(Compiles, Measures); },
      Opts, /*Seed=*/9);
  EXPECT_EQ(Engine.jobs(), 4u);
  EXPECT_FALSE(Engine.pool().started());
  // One genome is one compile: the sweep runs inline.
  Engine.evaluateBatch(randomBatch(5, 1));
  EXPECT_FALSE(Engine.pool().started());
  Engine.evaluateBatch(randomBatch(6, 16));
  EXPECT_TRUE(Engine.pool().started());
  EXPECT_EQ(Engine.jobs(), 4u);
}

// --- EvaluationEngine: determinism across worker counts ----------------------

TEST(EvaluationEngine, BatchResultsAreIdenticalAtAnyJobCount) {
  std::vector<Genome> Batch = randomBatch(71, 64);
  std::vector<std::vector<Evaluation>> Runs;
  for (int Jobs : {1, 2, 8}) {
    std::atomic<int> Compiles{0}, Measures{0};
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    EvaluationEngine Engine(
        [&]() {
          return std::make_unique<SyntheticBackend>(Compiles, Measures);
        },
        Opts, /*Seed=*/9);
    EXPECT_EQ(Engine.jobs(), static_cast<size_t>(Jobs));
    Runs.push_back(Engine.evaluateBatch(Batch));
  }
  for (size_t R = 1; R != Runs.size(); ++R) {
    ASSERT_EQ(Runs[R].size(), Runs[0].size());
    for (size_t I = 0; I != Runs[0].size(); ++I)
      EXPECT_TRUE(sameEvaluation(Runs[R][I], Runs[0][I]))
          << "jobs run " << R << ", genome " << I;
  }
}

TEST(EvaluationEngine, GaIsBitIdenticalAcrossJobCounts) {
  // The full search — generations, gen-0 retries, hill climb — produces
  // the same winner and the same evaluation trace at jobs=1 and jobs=8.
  auto RunGa = [](int Jobs) {
    std::atomic<int> Compiles{0}, Measures{0};
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    EvaluationEngine Engine(
        [&]() {
          return std::make_unique<SyntheticBackend>(Compiles, Measures);
        },
        Opts, 5);
    GaConfig C;
    C.Generations = 5;
    C.PopulationSize = 16;
    GeneticSearch GA(C, 123, Engine);
    GaTrace Trace;
    std::optional<Scored> Best = GA.run(5000.0, 4800.0, &Trace);
    std::string Name = Best ? Best->G.name() : "none";
    return std::tuple{Name, Best ? Best->E.MedianCycles : 0.0,
                      Trace.Evaluations.size(), Trace.IdenticalBinaries};
  };
  auto Serial = RunGa(1);
  auto Wide = RunGa(8);
  EXPECT_EQ(Serial, Wide);
}

// --- EvaluationEngine: racing determinism ------------------------------------

TEST(EvaluationEngine, RacingBatchResultsAreIdenticalAtAnyJobCount) {
  // Racing splits the measurement into seed blocks and escalation blocks
  // drawn by whichever worker is free — but every sample is a pure
  // function of (seed, hash, index) and every racing decision is serial
  // in batch order, so the whole batch (sample vectors, early stops,
  // escalation counts) is bit-identical at any --jobs.
  std::vector<Genome> Batch = randomBatch(71, 64);
  std::vector<std::vector<Evaluation>> Runs;
  std::vector<EngineRacingStats> Stats;
  for (int Jobs : {1, 2, 8}) {
    std::atomic<int> Compiles{0}, Measures{0};
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Racing = true;
    EvaluationEngine Engine(
        [&]() {
          return std::make_unique<SyntheticBackend>(Compiles, Measures);
        },
        Opts, /*Seed=*/9);
    Runs.push_back(Engine.evaluateBatch(Batch));
    Stats.push_back(Engine.racingStats());
  }
  for (size_t R = 1; R != Runs.size(); ++R) {
    ASSERT_EQ(Runs[R].size(), Runs[0].size());
    for (size_t I = 0; I != Runs[0].size(); ++I)
      EXPECT_TRUE(sameEvaluation(Runs[R][I], Runs[0][I]))
          << "jobs run " << R << ", genome " << I;
    EXPECT_EQ(Stats[R].ReplaysSpent, Stats[0].ReplaysSpent);
    EXPECT_EQ(Stats[R].EarlyStops, Stats[0].EarlyStops);
    EXPECT_EQ(Stats[R].Escalations, Stats[0].Escalations);
  }
  // The synthetic hash landscape spreads base cycles widely, so the
  // batch-local race must have terminated real losers early.
  EXPECT_GT(Stats[0].EarlyStops, 0u);
  EXPECT_LT(Stats[0].ReplaysSpent, Stats[0].FixedBudget);
}

TEST(EvaluationEngine, RacingGaIsBitIdenticalAcrossJobCounts) {
  // The full search with racing on — gen-0 retries, incumbent
  // announcements, top-ups, hill climb — walks the same path at jobs=1
  // and jobs=8.
  auto RunGa = [](int Jobs) {
    std::atomic<int> Compiles{0}, Measures{0};
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Racing = true;
    EvaluationEngine Engine(
        [&]() {
          return std::make_unique<SyntheticBackend>(Compiles, Measures);
        },
        Opts, 5);
    GaConfig C;
    C.Generations = 5;
    C.PopulationSize = 16;
    GeneticSearch GA(C, 123, Engine);
    GaTrace Trace;
    std::optional<Scored> Best = GA.run(5000.0, 4800.0, &Trace);
    std::string Name = Best ? Best->G.name() : "none";
    const EngineRacingStats &S = Engine.racingStats();
    return std::tuple{Name,
                      Best ? Best->E.MedianCycles : 0.0,
                      Best ? Best->E.Samples : std::vector<double>{},
                      Trace.Evaluations.size(),
                      S.ReplaysSpent,
                      S.EarlyStops,
                      S.Escalations,
                      S.TopUps};
  };
  auto Serial = RunGa(1);
  auto Wide = RunGa(8);
  EXPECT_EQ(Serial, Wide);
  EXPECT_GT(std::get<5>(Serial), 0u); // the race stopped losers early
}

// --- EvaluationEngine: memoization -------------------------------------------

TEST(EvaluationEngine, DuplicateGenomesHitTheGenomeCache) {
  std::atomic<int> Compiles{0}, Measures{0};
  EngineOptions Opts;
  Opts.Jobs = 2;
  EvaluationEngine Engine(
      [&]() {
        return std::make_unique<SyntheticBackend>(Compiles, Measures);
      },
      Opts, 1);

  std::vector<Genome> Batch = randomBatch(3, 4);
  Batch.push_back(Batch[0]); // duplicate inside the batch
  Batch.push_back(Batch[1]);

  std::vector<Evaluation> R1 = Engine.evaluateBatch(Batch);
  ASSERT_EQ(R1.size(), 6u);
  // Duplicates got the identical evaluation, noise included.
  EXPECT_TRUE(sameEvaluation(R1[0], R1[4]));
  EXPECT_TRUE(sameEvaluation(R1[1], R1[5]));
  EXPECT_EQ(Compiles.load(), 4); // one compile per distinct genome
  EXPECT_EQ(Engine.cacheStats().GenomeHits, 2u);

  // A second batch of the same genomes is answered entirely from cache.
  int CompilesBefore = Compiles.load();
  std::vector<Evaluation> R2 = Engine.evaluateBatch(Batch);
  EXPECT_EQ(Compiles.load(), CompilesBefore);
  EXPECT_EQ(Engine.cacheStats().GenomeHits, 8u);
  for (size_t I = 0; I != R1.size(); ++I)
    EXPECT_TRUE(sameEvaluation(R1[I], R2[I]));

  // Every one of the 12 answers was tallied.
  EXPECT_EQ(Engine.counters().total(), 12);
}

TEST(EvaluationEngine, IdenticalBinariesHitTheBinaryCache) {
  std::atomic<int> Compiles{0}, Measures{0};
  EvaluationEngine Engine(
      [&]() {
        return std::make_unique<SyntheticBackend>(Compiles, Measures);
      },
      EngineOptions{}, 1);

  // Same passes, different parameters: distinct genomes (distinct
  // canonical names), but SyntheticBackend gives them one binary hash.
  Rng R(17);
  GenomeConfig GC;
  Genome A = randomGenome(R, GC);
  while (A.Passes.empty() ||
         !lir::passDescriptor(A.Passes[0].Id).HasIntParam)
    A = randomGenome(R, GC);
  Genome B = A;
  B.Passes[0].IntParam = A.Passes[0].IntParam > 1
                             ? A.Passes[0].IntParam - 1
                             : A.Passes[0].IntParam + 1;
  ASSERT_NE(A.name(), B.name());

  std::vector<Evaluation> Out = Engine.evaluateBatch({A, B});
  EXPECT_TRUE(sameEvaluation(Out[0], Out[1]));
  EXPECT_EQ(Compiles.load(), 2);  // both compiled...
  EXPECT_EQ(Measures.load(), 1);  // ...but only one was measured
  EXPECT_EQ(Engine.cacheStats().BinaryHits, 1u);
  EXPECT_EQ(Engine.cacheStats().Misses, 1u);
}

TEST(EvaluationEngine, MemoizeOffReplaysEveryBatch) {
  std::atomic<int> Compiles{0}, Measures{0};
  EngineOptions Opts;
  Opts.Memoize = false;
  EvaluationEngine Engine(
      [&]() {
        return std::make_unique<SyntheticBackend>(Compiles, Measures);
      },
      Opts, 1);
  std::vector<Genome> Batch = randomBatch(21, 8);
  Engine.evaluateBatch(Batch);
  Engine.evaluateBatch(Batch);
  EXPECT_EQ(Compiles.load(), 16); // recompiled every time
  EXPECT_EQ(Engine.cacheStats().GenomeHits, 0u);
}

// --- EvaluationEngine: dynamic scheduling ------------------------------------

namespace {

/// SyntheticBackend's binaries behind controllable compile delays, so a
/// later genome can finish compiling before an earlier one. Records whose
/// compile each measurement measured.
class DelayedBackend : public EvalBackend {
public:
  struct Shared {
    std::atomic<int> Compiles{0}, Measures{0};
    /// Compile delay per genome name (absent: none).
    std::map<std::string, std::chrono::microseconds> Delays;
    /// A genome whose compile waits, at most a few seconds, until some
    /// measurement finished: with two or more workers, that is a later
    /// genome's.
    std::string WaitsForMeasure;
    std::mutex Mutex;
    std::condition_variable Measured;
    std::vector<std::string> MeasuredNames; // in completion order
  };

  explicit DelayedBackend(Shared &S)
      : S(S), Inner(S.Compiles, S.Measures) {}

  CompiledBinary compileGenome(const Genome &G) override {
    auto It = S.Delays.find(G.name());
    if (It != S.Delays.end())
      std::this_thread::sleep_for(It->second);
    if (G.name() == S.WaitsForMeasure) {
      std::unique_lock<std::mutex> Lock(S.Mutex);
      S.Measured.wait_for(Lock, std::chrono::seconds(5),
                          [&] { return !S.MeasuredNames.empty(); });
    }
    CompiledBinary B = Inner.compileGenome(G);
    if (B.Ok)
      B.Artifact = std::make_shared<const std::string>(G.name());
    return B;
  }

  Evaluation measureBinary(const CompiledBinary &B, uint64_t NoiseSeed,
                           size_t SampleCount) override {
    Evaluation E = Inner.measureBinary(B, NoiseSeed, SampleCount);
    {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      S.MeasuredNames.push_back(
          *static_cast<const std::string *>(B.Artifact.get()));
    }
    S.Measured.notify_all();
    return E;
  }

  std::vector<double> extendSamples(const Evaluation &E, uint64_t NoiseSeed,
                                    size_t Begin, size_t Count) override {
    return Inner.extendSamples(E, NoiseSeed, Begin, Count);
  }

private:
  Shared &S;
  SyntheticBackend Inner;
};

/// Two distinct genomes (distinct names) that SyntheticBackend compiles to
/// one binary: same passes, different parameters.
std::pair<Genome, Genome> sameBinaryPair(uint64_t Seed) {
  Rng R(Seed);
  GenomeConfig GC;
  Genome A = randomGenome(R, GC);
  while (A.Passes.empty() ||
         !lir::passDescriptor(A.Passes[0].Id).HasIntParam)
    A = randomGenome(R, GC);
  Genome B = A;
  B.Passes[0].IntParam = A.Passes[0].IntParam > 1
                             ? A.Passes[0].IntParam - 1
                             : A.Passes[0].IntParam + 1;
  return {A, B};
}

} // namespace

TEST(EvaluationEngine, ClaimsDecideWhereBatchOrderDecidesWhat) {
  // The later genome B finishes compiling first and measures the shared
  // binary; the earlier genome A still paid for it: A is the miss, B the
  // binary hit, and the binary was measured once.
  auto [A, B] = sameBinaryPair(17);
  ASSERT_NE(A.name(), B.name());
  for (int Jobs : {1, 2, 4}) {
    DelayedBackend::Shared S;
    if (Jobs > 1)
      S.WaitsForMeasure = A.name();
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    EvaluationEngine Engine(
        [&]() { return std::make_unique<DelayedBackend>(S); }, Opts, 1);
    std::vector<Evaluation> Out = Engine.evaluateBatch({A, B});
    ASSERT_EQ(Out.size(), 2u);
    EXPECT_EQ(S.Compiles.load(), 2) << "jobs " << Jobs;
    EXPECT_EQ(S.Measures.load(), 1) << "jobs " << Jobs;
    ASSERT_EQ(S.MeasuredNames.size(), 1u);
    EXPECT_EQ(S.MeasuredNames[0], Jobs > 1 ? B.name() : A.name())
        << "jobs " << Jobs;
    EXPECT_EQ(Out[0].Origin, CacheOrigin::Fresh) << "jobs " << Jobs;
    EXPECT_EQ(Out[1].Origin, CacheOrigin::BinaryHit) << "jobs " << Jobs;
    EXPECT_TRUE(sameEvaluation(Out[0], Out[1]));
    EXPECT_EQ(Engine.cacheStats().Misses, 1u);
    EXPECT_EQ(Engine.cacheStats().BinaryHits, 1u);
  }
}

TEST(EvaluationEngine, DynamicSchedulingIsJobsInvariant) {
  // A batch with in-batch duplicates and shared binaries, whose compile
  // delays fall with batch position so later genomes tend to finish
  // first, and whose same-binary neighbours finish in reverse: every
  // evaluation, every cache origin and the measurement count (one per
  // distinct fresh binary per batch) match at 1, 2 and 4 jobs, with
  // memoization on and off.
  std::vector<Genome> Batch = randomBatch(29, 24);
  std::set<std::string> SlowFirst;
  for (uint64_t Seed : {3, 10, 17}) {
    auto [A, B] = sameBinaryPair(Seed);
    Batch.insert(Batch.begin() + static_cast<long>(Seed), {A, B});
    SlowFirst.insert(A.name());
  }
  Batch.push_back(Batch[0]);
  Batch.push_back(Batch[4]);
  std::set<uint64_t> Binaries;
  {
    std::atomic<int> C{0}, M{0};
    SyntheticBackend Probe(C, M);
    for (const Genome &G : Batch)
      if (CompiledBinary Bin = Probe.compileGenome(G); Bin.Ok)
        Binaries.insert(Bin.BinaryHash);
  }

  for (bool Memoize : {true, false}) {
    std::vector<std::vector<Evaluation>> Runs;
    for (int Jobs : {1, 2, 4}) {
      DelayedBackend::Shared S;
      for (size_t I = 0; I != Batch.size(); ++I)
        S.Delays[Batch[I].name()] = std::chrono::microseconds(
            SlowFirst.count(Batch[I].name()) ? 3000
                                              : 50 * (Batch.size() - I));
      EngineOptions Opts;
      Opts.Jobs = Jobs;
      Opts.Memoize = Memoize;
      EvaluationEngine Engine(
          [&]() { return std::make_unique<DelayedBackend>(S); }, Opts, 9);
      std::vector<Evaluation> First = Engine.evaluateBatch(Batch);
      std::vector<Evaluation> Second = Engine.evaluateBatch(Batch);
      EXPECT_EQ(S.Measures.load(),
                static_cast<int>(Binaries.size()) * (Memoize ? 1 : 2))
          << "jobs " << Jobs << " memoize " << Memoize;
      First.insert(First.end(), Second.begin(), Second.end());
      Runs.push_back(std::move(First));
    }
    for (size_t R = 1; R != Runs.size(); ++R) {
      ASSERT_EQ(Runs[R].size(), Runs[0].size());
      for (size_t I = 0; I != Runs[0].size(); ++I) {
        EXPECT_TRUE(sameEvaluation(Runs[R][I], Runs[0][I]))
            << "run " << R << ", answer " << I << ", memoize " << Memoize;
        EXPECT_EQ(Runs[R][I].Origin, Runs[0][I].Origin)
            << "run " << R << ", answer " << I << ", memoize " << Memoize;
      }
    }
  }
}

#if ROPT_OBSERVABILITY
TEST(EvaluationEngine, CacheMetricsArePublished) {
  Metrics::instance().reset();
  std::atomic<int> Compiles{0}, Measures{0};
  EvaluationEngine Engine(
      [&]() {
        return std::make_unique<SyntheticBackend>(Compiles, Measures);
      },
      EngineOptions{}, 1);
  std::vector<Genome> Batch = randomBatch(5, 6);
  Engine.evaluateBatch(Batch);
  Engine.evaluateBatch(Batch); // all hits
  MetricsSnapshot S = Metrics::instance().snapshot();
  EXPECT_EQ(S.counter("search.cache_hits") + S.counter("search.cache_misses"),
            12u);
  EXPECT_EQ(S.counter("search.cache_hits"),
            Engine.cacheStats().hits());
  Metrics::instance().reset();
}
#endif

// --- Evaluation defaults and error mapping -----------------------------------

TEST(Evaluation, DefaultsToUnevaluatedNotCompileError) {
  // The old default (CompileError) made uninitialized evaluations look
  // like real compiler rejections.
  Evaluation E;
  EXPECT_EQ(E.Kind, EvalKind::Unevaluated);
  EXPECT_FALSE(E.ok());
  EXPECT_STREQ(evalKindName(E.Kind), "unevaluated");
}

TEST(ErrorMapping, EveryReplayErrorLandsOnAnEvalKind) {
  using support::ErrorCode;
  EXPECT_EQ(evalKindForError(ErrorCode::CompileFailed),
            EvalKind::CompileError);
  EXPECT_EQ(evalKindForError(ErrorCode::ReplayCrash),
            EvalKind::RuntimeCrash);
  EXPECT_EQ(evalKindForError(ErrorCode::ReplayTimeout),
            EvalKind::RuntimeTimeout);
  EXPECT_EQ(evalKindForError(ErrorCode::OutputMismatch),
            EvalKind::WrongOutput);
  EXPECT_EQ(evalKindForError(ErrorCode::CaptureNotReady),
            EvalKind::RuntimeCrash);
}

TEST(ResultType, CarriesValueOrTypedError) {
  support::Result<int> Ok = 42;
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(Ok.value(), 42);

  support::Result<int> Bad =
      support::Error{support::ErrorCode::ReplayTimeout, "too slow"};
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.error().Code, support::ErrorCode::ReplayTimeout);
  EXPECT_EQ(Bad.error().Message, "too slow");
  EXPECT_STREQ(support::errorCodeName(Bad.error().Code),
               "replay-timeout");
}

// --- The real pipeline through the engine ------------------------------------

namespace {

core::PipelineConfig fastPipelineConfig(int Jobs) {
  core::PipelineConfig C = core::PipelineConfig::paperDefaults();
  C.Seed = 1;
  C.Search.GA.Generations = 3;
  C.Search.GA.PopulationSize = 10;
  C.Search.GA.HillClimbRounds = 1;
  C.Search.MaxReplaysPerEvaluation = 5;
  C.Search.Jobs = Jobs;
  C.Capture.ProfileSessions = 4;
  C.Measure.FinalMeasurementRuns = 4;
  return C;
}

} // namespace

TEST(ParallelPipeline, OptimizeIsBitIdenticalAcrossJobCounts) {
  // One app per suite (kernel, benchmark, interactive). The search
  // schedules compiles and measurements dynamically and the install runs
  // its three whole-program blocks side by side on the engine's pool;
  // neither may change a recorded byte.
  for (const char *Name : {"Sieve", "FFT", "4inaRow"}) {
    SCOPED_TRACE(Name);
    const workloads::Application App = workloads::buildByName(Name);
    auto RunOnce = [&](int Jobs) {
      core::IterativeCompiler Pipeline(fastPipelineConfig(Jobs));
      return Pipeline.optimize(App);
    };
    core::OptimizationReport Serial = RunOnce(1);
    ASSERT_TRUE(Serial.Succeeded) << Serial.FailureReason;
    // The GA revisits genomes/binaries, so the memoization layer must
    // have fired on a default seeded run.
    EXPECT_GT(Serial.CacheStats.hits(), 0u);
    for (int Jobs : {2, 4}) {
      SCOPED_TRACE(Jobs);
      core::OptimizationReport Wide = RunOnce(Jobs);
      EXPECT_EQ(Serial.Succeeded, Wide.Succeeded);
      EXPECT_EQ(Serial.FailureReason, Wide.FailureReason);

      // The search walked the same path...
      EXPECT_EQ(Serial.Best.G.name(), Wide.Best.G.name());
      EXPECT_EQ(Serial.RegionBest, Wide.RegionBest);
      EXPECT_EQ(Serial.Best.E.Samples, Wide.Best.E.Samples);
      EXPECT_EQ(Serial.CacheStats.Misses, Wide.CacheStats.Misses);
      EXPECT_EQ(Serial.CacheStats.BinaryHits, Wide.CacheStats.BinaryHits);
      EXPECT_EQ(Serial.CacheStats.GenomeHits, Wide.CacheStats.GenomeHits);
      ASSERT_EQ(Serial.Trace.Evaluations.size(),
                Wide.Trace.Evaluations.size());
      for (size_t I = 0; I != Serial.Trace.Evaluations.size(); ++I) {
        EXPECT_EQ(Serial.Trace.Evaluations[I].Generation,
                  Wide.Trace.Evaluations[I].Generation);
        EXPECT_EQ(Serial.Trace.Evaluations[I].MedianCycles,
                  Wide.Trace.Evaluations[I].MedianCycles);
        EXPECT_EQ(Serial.Trace.Evaluations[I].Valid,
                  Wide.Trace.Evaluations[I].Valid);
      }
      EXPECT_EQ(Serial.Trace.IdenticalBinaries, Wide.Trace.IdenticalBinaries);
      // ...and the three install blocks measure identically.
      EXPECT_EQ(Serial.WholeAndroid, Wide.WholeAndroid);
      EXPECT_EQ(Serial.WholeO3, Wide.WholeO3);
      EXPECT_EQ(Serial.WholeGa, Wide.WholeGa);
    }
  }
}

TEST(ParallelPipeline, RacingOptimizeIsBitIdenticalAcrossJobCounts) {
  // Same acceptance bar with the racing budget: the real pipeline's
  // early stops, escalations and top-ups land identically at any --jobs.
  auto RunOnce = [](int Jobs) {
    core::PipelineConfig C = fastPipelineConfig(Jobs);
    C.Search.Racing = true;
    core::IterativeCompiler Pipeline(C);
    return Pipeline.optimize(workloads::buildByName("Sieve"));
  };
  core::OptimizationReport Serial = RunOnce(1);
  core::OptimizationReport Wide = RunOnce(4);
  ASSERT_TRUE(Serial.Succeeded) << Serial.FailureReason;
  ASSERT_TRUE(Wide.Succeeded) << Wide.FailureReason;

  EXPECT_EQ(Serial.Best.G.name(), Wide.Best.G.name());
  EXPECT_EQ(Serial.RegionBest, Wide.RegionBest);
  EXPECT_EQ(Serial.Best.E.Samples, Wide.Best.E.Samples);
  ASSERT_EQ(Serial.Trace.Evaluations.size(), Wide.Trace.Evaluations.size());
  for (size_t I = 0; I != Serial.Trace.Evaluations.size(); ++I)
    EXPECT_EQ(Serial.Trace.Evaluations[I].MedianCycles,
              Wide.Trace.Evaluations[I].MedianCycles);

  // Identical budget accounting, and a real saving over the fixed budget.
  EXPECT_EQ(Serial.RacingStats.ReplaysSpent, Wide.RacingStats.ReplaysSpent);
  EXPECT_EQ(Serial.RacingStats.EarlyStops, Wide.RacingStats.EarlyStops);
  EXPECT_EQ(Serial.RacingStats.Escalations, Wide.RacingStats.Escalations);
  EXPECT_EQ(Serial.RacingStats.TopUps, Wide.RacingStats.TopUps);
  EXPECT_GT(Serial.RacingStats.EarlyStops, 0u);
  EXPECT_LT(Serial.RacingStats.ReplaysSpent, Serial.RacingStats.FixedBudget);
}

TEST(ParallelPipeline, SessionBackendsAreSemanticallyInvisible) {
  // Fork-server sessions (DESIGN.md §16) are a pure performance
  // substrate: the same seeded GA must walk the identical evaluation
  // stream with sessions on (the default) and off, at any job count.
  // The E2E twin of this test byte-compares evaluations.jsonl over the
  // real binaries (RunReportE2E.cmake).
  auto RunOnce = [](int Jobs, bool Sessions) {
    core::PipelineConfig C = fastPipelineConfig(Jobs);
    C.Search.SessionBackends = Sessions;
    core::IterativeCompiler Pipeline(C);
    return Pipeline.optimize(workloads::buildByName("Sieve"));
  };
  core::OptimizationReport On = RunOnce(1, true);
  core::OptimizationReport Off = RunOnce(4, false);
  ASSERT_TRUE(On.Succeeded) << On.FailureReason;
  ASSERT_TRUE(Off.Succeeded) << Off.FailureReason;

  EXPECT_EQ(On.Best.G.name(), Off.Best.G.name());
  EXPECT_EQ(On.RegionBest, Off.RegionBest);
  EXPECT_EQ(On.Best.E.Samples, Off.Best.E.Samples);
  EXPECT_EQ(On.WholeGa, Off.WholeGa);
  ASSERT_EQ(On.Trace.Evaluations.size(), Off.Trace.Evaluations.size());
  for (size_t I = 0; I != On.Trace.Evaluations.size(); ++I) {
    EXPECT_EQ(On.Trace.Evaluations[I].MedianCycles,
              Off.Trace.Evaluations[I].MedianCycles);
    EXPECT_EQ(On.Trace.Evaluations[I].Valid, Off.Trace.Evaluations[I].Valid);
  }

  // The substrate itself must have been exercised on the session run —
  // and never on the fresh run.
  EXPECT_GT(On.ReplayBackend.SessionReplays, 0u);
  EXPECT_GT(On.ReplayBackend.DeltaResets, 0u);
  EXPECT_GT(On.ReplayBackend.SessionsCreated, 0u);
  EXPECT_EQ(Off.ReplayBackend.SessionReplays, 0u);
  EXPECT_GT(Off.ReplayBackend.FreshReplays, 0u);
}

// --- The verdict memo shared across searches (DESIGN.md §22) ----------------

TEST(VerdictMemo, SharedAcrossThreadsMatchesPrivateMemos) {
  // Two searches over one app and one set of captures, as two fleet
  // device classes: different seeds, so different noise draws. Sharing a
  // verdict memo and a compile memo (one CompileMemoTable's) while both
  // run on their own threads must give every evaluation exactly what
  // private memos give.
  // SOR: aggressive genes give it verified binaries, crashes and output
  // mismatches alike.
  const workloads::Application App = workloads::buildByName("SOR");
  core::PipelineConfig ConfigA = fastPipelineConfig(/*Jobs=*/2);
  core::PipelineConfig ConfigB = ConfigA;
  ConfigB.Seed = 2;
  core::IterativeCompiler Pipeline(ConfigA);
  core::IterativeCompiler::ProfiledApp Profiled = Pipeline.profileApp(App);
  ASSERT_TRUE(Profiled.Region);
  std::vector<core::CapturedRegion> Captures =
      Pipeline.captureRegionMulti(*Profiled.Instance, *Profiled.Region, 2);
  ASSERT_EQ(Captures.size(), 2u);

  GenomeConfig Aggressive;
  Aggressive.AggressiveProb = 0.9;
  Rng R(17);
  std::vector<Genome> BatchA;
  for (int I = 0; I != 32; ++I)
    BatchA.push_back(randomGenome(R, Aggressive));
  BatchA.push_back(Genome{lir::o3Pipeline(), hgraph::RegAllocKind::LinearScan});
  std::vector<Genome> BatchB(BatchA.rbegin(), BatchA.rend());

  struct Run {
    std::vector<Evaluation> A, B;
    uint64_t Insns = 0; ///< Executed plus memoized.
  };
  core::SearchInputs Inputs{
      *Profiled.Region,
      std::make_shared<const std::vector<core::CapturedRegion>>(Captures)};
  core::CompileMemoTable Compiled(*App.File);
  auto RunPair = [&](std::shared_ptr<replay::VerdictMemo> MemoA,
                     std::shared_ptr<replay::VerdictMemo> MemoB,
                     bool ShareCompiles) {
    auto CompileMemo = [&]() -> std::shared_ptr<lir::CompileMemo> {
      if (!ShareCompiles)
        return nullptr;
      return Compiled.memoFor(core::mergedTypeProfile(Captures),
                              ConfigA.Search.CompileSizeBudget);
    };
    core::RegionSearch SearchA(App, Inputs, ConfigA, std::move(MemoA),
                               CompileMemo());
    core::RegionSearch SearchB(App, Inputs, ConfigB, std::move(MemoB),
                               CompileMemo());
    EXPECT_EQ(SearchA.Memo == SearchB.Memo, ShareCompiles);
#if ROPT_OBSERVABILITY
    MetricsSnapshot Before = Metrics::instance().snapshot();
#endif
    Run Out;
    std::thread TA([&] { Out.A = SearchA.Engine.evaluateBatch(BatchA); });
    std::thread TB([&] { Out.B = SearchB.Engine.evaluateBatch(BatchB); });
    TA.join();
    TB.join();
#if ROPT_OBSERVABILITY
    MetricsSnapshot After = Metrics::instance().snapshot();
    auto Delta = [&](const char *Name) {
      return After.counter(Name) - Before.counter(Name);
    };
    Out.Insns = Delta("vm.insns") + Delta("replay.memo_insns");
#endif
    return Out;
  };

  std::shared_ptr<replay::VerdictMemo> OwnA = core::makeVerdictMemo(App);
  std::shared_ptr<replay::VerdictMemo> OwnB = core::makeVerdictMemo(App);
  Run Private = RunPair(OwnA, OwnB, /*ShareCompiles=*/false);
  std::shared_ptr<replay::VerdictMemo> Shared = core::makeVerdictMemo(App);
  Run Together = RunPair(Shared, Shared, /*ShareCompiles=*/true);

  auto Same = [](const Evaluation &X, const Evaluation &Y) {
    return X.Kind == Y.Kind && X.Error == Y.Error &&
           X.BaseCycles == Y.BaseCycles && X.Samples == Y.Samples &&
           X.MedianCycles == Y.MedianCycles && X.BinaryHash == Y.BinaryHash &&
           X.CodeSize == Y.CodeSize;
  };
  std::map<EvalKind, int> Kinds;
  ASSERT_EQ(Private.A.size(), Together.A.size());
  ASSERT_EQ(Private.B.size(), Together.B.size());
  for (size_t I = 0; I != Private.A.size(); ++I) {
    EXPECT_TRUE(Same(Private.A[I], Together.A[I])) << BatchA[I].name();
    EXPECT_TRUE(Same(Private.B[I], Together.B[I])) << BatchB[I].name();
    ++Kinds[Private.A[I].Kind];
  }
  EXPECT_GT(Kinds[EvalKind::Ok], 0);
  EXPECT_GT(Kinds[EvalKind::RuntimeCrash] + Kinds[EvalKind::RuntimeTimeout],
            0);
  EXPECT_GT(Kinds[EvalKind::WrongOutput], 0);

  // The same verified replays were asked for; on the shared side one
  // search's answers came from the other's replays.
  EXPECT_EQ(Shared->stats().Lookups,
            OwnA->stats().Lookups + OwnB->stats().Lookups);
  EXPECT_GT(Shared->stats().Hits, 0u);
#if ROPT_OBSERVABILITY
  EXPECT_GT(Private.Insns, 0u);
  EXPECT_EQ(Together.Insns, Private.Insns);
#endif
}
