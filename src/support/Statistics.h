//===- support/Statistics.h - Statistical methodology ----------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statistical machinery Section 4 of the paper prescribes: median
/// absolute deviation outlier removal for replay timings, a two-sided
/// Student's t-test for ranking transformation pairs, and bootstrapped
/// confidence intervals for the online-vs-offline experiment (Figure 3).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_SUPPORT_STATISTICS_H
#define ROPT_SUPPORT_STATISTICS_H

#include <cstddef>
#include <vector>

namespace ropt {

class Rng;

/// Arithmetic mean of \p Values; 0 for an empty vector.
double mean(const std::vector<double> &Values);

/// Unbiased sample variance (n-1 denominator); 0 when fewer than 2 values.
double sampleVariance(const std::vector<double> &Values);

/// Sample standard deviation.
double sampleStdDev(const std::vector<double> &Values);

/// Median; 0 for an empty vector. Does not modify the input.
double median(std::vector<double> Values);

/// Median absolute deviation (unscaled).
double medianAbsDeviation(const std::vector<double> &Values);

/// Removes values further than \p Cutoff scaled MADs from the median, the
/// outlier-removal step the paper applies to replay timings. The scale
/// constant 1.4826 makes the MAD consistent with sigma for normal data.
/// When the MAD is zero (all values equal) the input is returned unchanged.
std::vector<double> removeOutliersMAD(const std::vector<double> &Values,
                                      double Cutoff = 3.0);

/// Result of a two-sample comparison.
struct TTestResult {
  double TStatistic = 0.0;
  double DegreesOfFreedom = 0.0;
  /// Two-sided p-value; 1.0 when either sample is degenerate.
  double PValue = 1.0;
};

/// Welch's two-sided t-test on two samples ("two-side student's t-test" per
/// Section 4). Returns PValue = 1 when either sample has < 2 entries or both
/// variances are zero with equal means.
TTestResult welchTTest(const std::vector<double> &A,
                       const std::vector<double> &B);

/// True when \p A is statistically smaller than \p B at level \p Alpha.
bool significantlyLess(const std::vector<double> &A,
                       const std::vector<double> &B, double Alpha = 0.05);

/// Outcome of a three-way statistical comparison of two timing samples.
enum class SampleOrder {
  Less,              ///< A is significantly smaller than B.
  Indistinguishable, ///< No significant difference at the given level.
  Greater,           ///< A is significantly larger than B.
};

/// Three-way comparison of two samples at level \p Alpha, computing the
/// rank statistic once. Exactly equivalent to the pair
/// (significantlyLess(A,B), significantlyLess(B,A)) — which can never
/// both be true — at half the cost. Degenerate samples (either empty)
/// are Indistinguishable.
SampleOrder compareSamples(const std::vector<double> &A,
                           const std::vector<double> &B,
                           double Alpha = 0.05);

/// Alpha-spending schedule for the sequential racing test (DESIGN.md
/// §11): cumulative significance budget spent after escalation round
/// \p Round (1-based) of \p MaxRounds. Geometric spending
///
///   spent(r) = Alpha * (2^r - 1) / (2^MaxRounds - 1)
///
/// so early low-power rounds (few samples) spend little of the budget,
/// the per-round increments are strictly increasing, and the total over
/// all rounds is exactly \p Alpha — a Bonferroni bound keeps the
/// family-wise error of the whole race at or below \p Alpha.
double racingSpentAlpha(double Alpha, int Round, int MaxRounds);

/// The increment spent at round \p Round alone: the per-round test level
/// the racing engine passes to compareSamples.
double racingRoundAlpha(double Alpha, int Round, int MaxRounds);

/// A two-sided bootstrap percentile interval.
struct BootstrapInterval {
  double Low = 0.0;
  double High = 0.0;
};

/// Percentile bootstrap CI for the ratio mean(A)/mean(B) — the speedup
/// estimator Figure 3 tracks as evaluations accumulate.
BootstrapInterval bootstrapRatioCI(const std::vector<double> &A,
                                   const std::vector<double> &B,
                                   double Confidence, Rng &R,
                                   size_t Resamples = 1000);

/// Regularized incomplete beta function I_x(a, b); exposed for testing.
double regularizedIncompleteBeta(double A, double B, double X);

} // namespace ropt

#endif // ROPT_SUPPORT_STATISTICS_H
