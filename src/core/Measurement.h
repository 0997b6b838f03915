//===- core/Measurement.h - Timing noise models ------------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded multiplicative log-normal noise models for the two measurement
/// contexts the paper contrasts: offline replays (idle device, pinned
/// frequency, identical state — per Section 3.7) versus the online
/// environment (frequency scaling, thermal throttling, contention — per
/// Section 2). The deterministic simulator gives exact cycle counts; these
/// models reintroduce the measurement reality the paper's statistics exist
/// to cope with.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_CORE_MEASUREMENT_H
#define ROPT_CORE_MEASUREMENT_H

#include "support/Random.h"

namespace ropt {
namespace core {

struct MeasurementModel {
  /// Replay environment: idle, charged, frequency pinned.
  double OfflineSigma = 0.004;
  /// Interactive environment: governors, thermals, background load. The
  /// heavy right tail (GC, scheduler hiccups) is modelled explicitly.
  double OnlineSigma = 0.05;
  double OnlineSpikeProb = 0.03;
  double OnlineSpikeScale = 1.8;

  double offline(Rng &R, double Cycles) const {
    return Cycles * R.logNormal(0.0, OfflineSigma);
  }

  double online(Rng &R, double Cycles) const {
    double Noisy = Cycles * R.logNormal(0.0, OnlineSigma);
    if (R.chance(OnlineSpikeProb))
      Noisy *= OnlineSpikeScale;
    return Noisy;
  }

  /// Offline sample \p Index of the stream identified by \p NoiseSeed — a
  /// pure function of (NoiseSeed, Index, Cycles), equivalent to one more
  /// replay, since replays of the same capture are cycle-exact
  /// (documented substitution, DESIGN.md §2). The racing engine relies on
  /// this to extend a binary's sample block later (or from another
  /// worker) and get exactly the values a single up-front draw would have
  /// produced.
  double offlineSampleAt(uint64_t NoiseSeed, size_t Index,
                         double Cycles) const {
    Rng R(NoiseSeed +
          0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(Index) + 1));
    return offline(R, Cycles);
  }

  /// Draws offline samples [\p Begin, \p Begin + \p Count) of the
  /// \p NoiseSeed stream via offlineSampleAt().
  std::vector<double> offlineSampleRange(uint64_t NoiseSeed, double Cycles,
                                         size_t Begin, size_t Count) const {
    std::vector<double> Out;
    Out.reserve(Count);
    for (size_t I = 0; I != Count; ++I)
      Out.push_back(offlineSampleAt(NoiseSeed, Begin + I, Cycles));
    return Out;
  }
};

} // namespace core
} // namespace ropt

#endif // ROPT_CORE_MEASUREMENT_H
