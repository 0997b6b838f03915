//===- examples/optimize_game.cpp - Full pipeline on an interactive app -------===//
//
// The paper's scenario, narrated stage by stage: a user plays an Android
// game (Reversi); the system profiles the session, captures the AI kernel
// transparently, searches the compiler space offline overnight, and ships
// a faster binary — with every broken candidate caught in replay.
//
//===----------------------------------------------------------------------===//

#include "core/IterativeCompiler.h"
#include "core/Measurement.h"
#include "support/Statistics.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace ropt;

int main(int Argc, char **Argv) {
  workloads::Application App =
      workloads::buildByName(Argc > 1 ? Argv[1] : "Reversi Android");
  core::PipelineConfig Config;
  Config.Seed = 7;
  core::IterativeCompiler Pipeline(Config);

  std::printf("== evening: the user plays %s ==\n", App.Name.c_str());
  core::IterativeCompiler::ProfiledApp Profiled = Pipeline.profileApp(App);
  const profiler::CodeBreakdown &BD = Profiled.Breakdown;
  std::printf("profiler: compiled %.0f%%, cold %.0f%%, JNI %.0f%%, "
              "unreplayable %.0f%%, uncompilable %.0f%%\n",
              100 * BD.Compiled, 100 * BD.Cold, 100 * BD.Jni,
              100 * BD.Unreplayable, 100 * BD.Uncompilable);
  if (!Profiled.Region) {
    std::fprintf(stderr, "no optimizable region\n");
    return 1;
  }
  std::printf("hot region: %s (%zu methods, %.1fM exclusive cycles)\n",
              App.File->method(Profiled.Region->Root).Name.c_str(),
              Profiled.Region->Methods.size(),
              Profiled.Region->EstimatedCycles / 1e6);

  std::printf("\n== one more round: a capture fires on region entry ==\n");
  support::Result<core::SearchInputs> Inputs =
      Pipeline.captureInputs(Profiled, *Profiled.Region);
  if (!Inputs) {
    std::fprintf(stderr, "%s\n", Inputs.error().Message.c_str());
    return 1;
  }
  support::Result<std::unique_ptr<core::RegionSearch>> Prepared =
      Pipeline.prepareSearch(App, std::move(Inputs).value());
  if (!Prepared) {
    std::fprintf(stderr, "%s\n", Prepared.error().Message.c_str());
    return 1;
  }
  core::RegionSearch &Search = *Prepared.value();
  const core::CapturedRegion &Captured = Search.Captures.front();
  std::printf("captured %zu pages in %.1f ms (imperceptible); spooled by "
              "the low-priority child\n",
              Captured.Cap.Pages.size(), Captured.Cap.Overheads.totalMs());
  std::printf("interpreted replay built: %zu-cell verification map, "
              "%zu virtual-call type profiles\n",
              Captured.Map.Cells.size(), Captured.Profile.siteCount());

  std::printf("\n== overnight, idle and charged: the search runs ==\n");
  std::printf("baselines (region replays): Android %.0f cycles, "
              "LLVM -O3 %.0f cycles\n",
              Search.Android.MedianCycles, Search.O3.MedianCycles);

  // The engine parallelizes the GA's batches across workers (one replay
  // sandbox each) and memoizes duplicate genomes/binaries. Seeded runs
  // are bit-identical at any worker count.
  search::EvaluationEngine &Engine = Search.Engine;
  std::printf("evaluation engine: %zu workers\n", Engine.jobs());

  search::GeneticSearch GA(Config.Search.GA, Config.Seed, Engine);
  search::GaTrace Trace;
  auto Best = GA.run(Search.Android.MedianCycles, Search.o3Bar(), &Trace);
  if (!Best) {
    std::fprintf(stderr, "search failed\n");
    return 1;
  }
  const search::EngineCounters &C = Engine.counters();
  std::printf("%d genomes evaluated: %d ok, %d compile errors, %d "
              "crashes, %d timeouts, %d wrong outputs\n",
              C.total(), C.Ok, C.CompileError, C.RuntimeCrash,
              C.RuntimeTimeout, C.WrongOutput);
  const search::EngineCacheStats &CS = Engine.cacheStats();
  std::printf("memoization: %llu genome hits + %llu binary hits saved "
              "replays (%llu fresh compiles)\n",
              static_cast<unsigned long long>(CS.GenomeHits),
              static_cast<unsigned long long>(CS.BinaryHits),
              static_cast<unsigned long long>(CS.Misses));
  std::printf("every failure above was discarded offline — under online "
              "search each one would have hit the user\n");
  std::printf("winner: %.2fx over Android on the region  [%s]\n",
              Search.Android.MedianCycles / Best->E.MedianCycles,
              Best->G.name().c_str());

  std::printf("\n== morning: the winner is installed; the user plays ==\n");
  std::optional<vm::CodeCache> BestCode =
      Search.Baselines.compileRegion(Best->G);
  // Both installs start from one boot of the app, as processes do from
  // Android's zygote.
  core::BootImage Boot(App, Config.Seed + 100);
  core::AppInstance Fresh(Boot, Config.Seed + 100);
  uint64_t Before = Fresh.runSessionBlock(3, App.DefaultParam);
  core::AppInstance Tuned(Boot, Config.Seed + 100);
  Tuned.overrideRegionCode(Profiled.Region->Methods, *BestCode);
  uint64_t After = Tuned.runSessionBlock(3, App.DefaultParam);
  std::printf("three game rounds: %.2fM cycles -> %.2fM cycles "
              "(%.2fx whole-program)\n",
              Before / 1e6, After / 1e6,
              static_cast<double>(Before) / After);
  return 0;
}
