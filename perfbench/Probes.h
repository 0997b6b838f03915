//===- perfbench/Probes.h - Decorators and probes for the traced run -----===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer measurement from outside the program: decorators over the
/// public extension points (search::EvalBackend, search::BatchEvaluator,
/// fleet::Transport) that time and count every call and pass it through
/// unchanged, plus a probe that re-runs the compiler stage by stage.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_PERFBENCH_PROBES_H
#define ROPT_PERFBENCH_PROBES_H

#include "Spans.h"

#include "fleet/Transport.h"
#include "lir/TypeProfile.h"
#include "search/EvaluationEngine.h"

#include <atomic>
#include <map>
#include <memory>

namespace ropt {
namespace perfbench {

/// What one engine worker's backend did. Each backend is driven by one
/// thread at a time (the engine guarantees it), so no locking inside.
struct BackendStats {
  uint64_t CompileCalls = 0;
  uint64_t MeasureCalls = 0;
  double CompileMs = 0.0;
  double MeasureMs = 0.0;
  /// Measurements whose verified replay succeeded: their busy time and
  /// the virtual cycles one replay of each binary executes.
  double OkMeasureMs = 0.0;
  double VirtualCycles = 0.0;
  /// Every distinct genome compiled (canonical name -> genome, compile Ok).
  std::map<std::string, std::pair<search::Genome, bool>> Compiled;

  void merge(const BackendStats &O);
};

/// Times and counts compileGenome/measureBinary of the wrapped backend and
/// records a search.compile / search.measure span under the current batch.
class TimedBackend : public search::EvalBackend {
public:
  TimedBackend(std::unique_ptr<search::EvalBackend> Inner,
               BackendStats &Stats, SpanLog &Log,
               const std::atomic<int> &CurrentBatch, std::string App)
      : Inner(std::move(Inner)), Stats(Stats), Log(Log),
        CurrentBatch(CurrentBatch), App(std::move(App)) {}

  search::CompiledBinary compileGenome(const search::Genome &G) override;
  search::Evaluation measureBinary(const search::CompiledBinary &B,
                                   uint64_t NoiseSeed,
                                   size_t SampleCount) override;
  std::vector<double> extendSamples(const search::Evaluation &E,
                                    uint64_t NoiseSeed, size_t Begin,
                                    size_t Count) override {
    return Inner->extendSamples(E, NoiseSeed, Begin, Count);
  }
  search::ReplayBackendStats replayStats() const override {
    return Inner->replayStats();
  }

private:
  std::unique_ptr<search::EvalBackend> Inner;
  BackendStats &Stats;
  SpanLog &Log;
  const std::atomic<int> &CurrentBatch;
  std::string App;
};

/// Wraps the BatchEvaluator handed to GeneticSearch: one search.batch span
/// per batch, which the backends' spans name as their parent.
class TimedBatch : public search::BatchEvaluator {
public:
  TimedBatch(search::BatchEvaluator &Inner, SpanLog &Log,
             std::atomic<int> &CurrentBatch, int Parent, std::string App)
      : Inner(Inner), Log(Log), CurrentBatch(CurrentBatch), Parent(Parent),
        App(std::move(App)) {}

  std::vector<search::Evaluation>
  evaluateBatch(const std::vector<search::Genome> &Genomes) override;
  search::Evaluation announceIncumbent(const search::Evaluation &E) override {
    return Inner.announceIncumbent(E);
  }

  uint64_t batches() const { return Batches; }

private:
  search::BatchEvaluator &Inner;
  SpanLog &Log;
  std::atomic<int> &CurrentBatch;
  int Parent;
  std::string App;
  uint64_t Batches = 0;
};

/// Counts and times every delivery attempt. The coordinator plans sends
/// only inside event commits, which are serial.
class CountingTransport : public fleet::Transport {
public:
  explicit CountingTransport(fleet::Transport &Inner) : Inner(Inner) {}

  fleet::Delivery attempt(const fleet::MessageKey &Key) override;

  uint64_t Attempts = 0;
  uint64_t Drops = 0;
  double BusyUs = 0.0;

private:
  fleet::Transport &Inner;
};

/// Stage-by-stage replay of lir::compileAllLlvm.
struct CompileStageStats {
  uint64_t Genomes = 0;
  uint64_t Methods = 0; ///< Methods that entered the front end.
  double BuildUs = 0.0; ///< hgraph::buildHGraph
  double TranslateUs = 0.0; ///< lir::fromHGraph
  double PassesUs = 0.0;    ///< lir::runPipeline
  double VerifyUs = 0.0;    ///< LFunction::verify
  double CodegenUs = 0.0;   ///< lir::emitMachine (codegen + regalloc)
  uint64_t InsnsIn = 0;     ///< IR instructions before the pipeline.
  uint64_t InsnsOut = 0;    ///< ...and after it (pipelines that finished).
  uint64_t PipelinesDone = 0; ///< Methods whose pipeline stayed in budget.
  uint64_t StatusMismatch = 0;
};

/// Compiles \p Methods with \p G one stage at a time, accumulating into
/// \p Out, and counts a mismatch when the overall outcome differs from
/// \p ExpectedOk (what the real compile reported for this genome).
void probeCompile(const dex::DexFile &File,
                  const std::vector<dex::MethodId> &Methods,
                  const search::Genome &G, size_t SizeBudget,
                  const lir::TypeProfile &Profile, bool ExpectedOk,
                  CompileStageStats &Out);

} // namespace perfbench
} // namespace ropt

#endif // ROPT_PERFBENCH_PROBES_H
