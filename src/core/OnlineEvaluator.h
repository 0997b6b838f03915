//===- core/OnlineEvaluator.h - Motivation experiments ----------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section-2 motivation experiments:
///   Figure 1 — outcome classes of random optimization sequences.
///   Figure 2 — how slow random-but-correct binaries are.
///   Figure 3 — online vs offline speedup-estimation convergence.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_CORE_ONLINE_EVALUATOR_H
#define ROPT_CORE_ONLINE_EVALUATOR_H

#include "core/IterativeCompiler.h"

namespace ropt {
namespace core {

/// Figure 1's outcome histogram.
struct OutcomeHistogram {
  int CompilerError = 0; ///< Verifier rejection / size blowup.
  int RuntimeCrash = 0;
  int RuntimeTimeout = 0;
  int WrongOutput = 0;
  int Correct = 0;

  int total() const {
    return CompilerError + RuntimeCrash + RuntimeTimeout + WrongOutput +
           Correct;
  }
};

/// One trajectory point of the Figure-3 estimation experiment.
struct ConvergencePoint {
  int Evaluations = 0;
  double Estimate = 0.0; ///< mean(T_baseline) / mean(T_optimized).
  double Ci75Low = 0.0, Ci75High = 0.0;
  double Ci95Low = 0.0, Ci95High = 0.0;
};

/// Runs the motivation experiments on one application's hot region.
class OnlineEvaluator {
public:
  OnlineEvaluator(const workloads::Application &App,
                  PipelineConfig Config);

  /// True when setup (profile, capture, interpreted replay, baselines)
  /// succeeded.
  bool ready() const { return Search != nullptr; }

  /// Figure 1: classify \p Count random optimization sequences.
  OutcomeHistogram classifyRandomSequences(int Count);

  /// Figure 2: speedups (vs Android) of \p Count random *correct*
  /// sequences; keeps drawing genomes until that many correct ones ran.
  std::vector<double> randomCorrectSpeedups(int Count,
                                            int MaxAttempts = 2000);

  /// Figure 3: speedup-of-O1-over-O0 estimation trajectories. Online
  /// evaluations draw a fresh input in [MinParam, MaxParam] and online
  /// noise per run; offline evaluations replay the fixed captured input
  /// with offline noise. Points are emitted at log-spaced eval counts.
  struct Convergence {
    std::vector<ConvergencePoint> Online;
    std::vector<ConvergencePoint> Offline;
    double TrueSpeedup = 0.0; ///< Noise-free cycles ratio at the default.
  };
  Convergence convergence(int MaxEvaluations);

private:
  workloads::Application App;
  PipelineConfig Config;
  std::unique_ptr<RegionSearch> Search; ///< Null when setup failed.
  Rng R;
};

} // namespace core
} // namespace ropt

#endif // ROPT_CORE_ONLINE_EVALUATOR_H
