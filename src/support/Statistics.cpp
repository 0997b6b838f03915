//===- support/Statistics.cpp - Statistical methodology ------------------===//

#include "support/Statistics.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ropt;

double ropt::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double ropt::sampleVariance(const std::vector<double> &Values) {
  if (Values.size() < 2)
    return 0.0;
  double M = mean(Values);
  double Sum = 0.0;
  for (double V : Values)
    Sum += (V - M) * (V - M);
  return Sum / static_cast<double>(Values.size() - 1);
}

double ropt::sampleStdDev(const std::vector<double> &Values) {
  return std::sqrt(sampleVariance(Values));
}

double ropt::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  size_t Mid = Values.size() / 2;
  std::nth_element(Values.begin(), Values.begin() + Mid, Values.end());
  double Upper = Values[Mid];
  if (Values.size() % 2 == 1)
    return Upper;
  double Lower = *std::max_element(Values.begin(), Values.begin() + Mid);
  return 0.5 * (Lower + Upper);
}

double ropt::medianAbsDeviation(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Med = median(Values);
  std::vector<double> Deviations;
  Deviations.reserve(Values.size());
  for (double V : Values)
    Deviations.push_back(std::fabs(V - Med));
  return median(std::move(Deviations));
}

std::vector<double> ropt::removeOutliersMAD(const std::vector<double> &Values,
                                            double Cutoff) {
  double MAD = medianAbsDeviation(Values);
  if (MAD == 0.0)
    return Values;
  double Med = median(Values);
  double Limit = Cutoff * 1.4826 * MAD;
  std::vector<double> Kept;
  Kept.reserve(Values.size());
  for (double V : Values)
    if (std::fabs(V - Med) <= Limit)
      Kept.push_back(V);
  return Kept;
}

/// Log of the gamma function (Lanczos approximation).
static double logGamma(double X) {
  static const double Coeffs[6] = {76.18009172947146,  -86.50532032941677,
                                   24.01409824083091,  -1.231739572450155,
                                   0.1208650973866179e-2, -0.5395239384953e-5};
  double Y = X;
  double Tmp = X + 5.5;
  Tmp -= (X + 0.5) * std::log(Tmp);
  double Ser = 1.000000000190015;
  for (double C : Coeffs)
    Ser += C / ++Y;
  return -Tmp + std::log(2.5066282746310005 * Ser / X);
}

/// Continued-fraction evaluation for the incomplete beta function
/// (Numerical Recipes "betacf" scheme, modified Lentz method).
static double betaContinuedFraction(double A, double B, double X) {
  const double Eps = 3.0e-12;
  const double FpMin = 1.0e-300;
  double Qab = A + B;
  double Qap = A + 1.0;
  double Qam = A - 1.0;
  double C = 1.0;
  double D = 1.0 - Qab * X / Qap;
  if (std::fabs(D) < FpMin)
    D = FpMin;
  D = 1.0 / D;
  double H = D;
  for (int M = 1; M <= 300; ++M) {
    int M2 = 2 * M;
    double Aa = M * (B - M) * X / ((Qam + M2) * (A + M2));
    D = 1.0 + Aa * D;
    if (std::fabs(D) < FpMin)
      D = FpMin;
    C = 1.0 + Aa / C;
    if (std::fabs(C) < FpMin)
      C = FpMin;
    D = 1.0 / D;
    H *= D * C;
    Aa = -(A + M) * (Qab + M) * X / ((A + M2) * (Qap + M2));
    D = 1.0 + Aa * D;
    if (std::fabs(D) < FpMin)
      D = FpMin;
    C = 1.0 + Aa / C;
    if (std::fabs(C) < FpMin)
      C = FpMin;
    D = 1.0 / D;
    double Del = D * C;
    H *= Del;
    if (std::fabs(Del - 1.0) < Eps)
      break;
  }
  return H;
}

double ropt::regularizedIncompleteBeta(double A, double B, double X) {
  assert(A > 0.0 && B > 0.0 && "shape parameters must be positive");
  if (X <= 0.0)
    return 0.0;
  if (X >= 1.0)
    return 1.0;
  double LogBt = logGamma(A + B) - logGamma(A) - logGamma(B) +
                 A * std::log(X) + B * std::log(1.0 - X);
  double Bt = std::exp(LogBt);
  if (X < (A + 1.0) / (A + B + 2.0))
    return Bt * betaContinuedFraction(A, B, X) / A;
  return 1.0 - Bt * betaContinuedFraction(B, A, 1.0 - X) / B;
}

/// Two-sided p-value for a t statistic with \p Df degrees of freedom.
static double tTestPValue(double T, double Df) {
  if (Df <= 0.0)
    return 1.0;
  double X = Df / (Df + T * T);
  return regularizedIncompleteBeta(Df / 2.0, 0.5, X);
}

TTestResult ropt::welchTTest(const std::vector<double> &A,
                             const std::vector<double> &B) {
  TTestResult Result;
  if (A.size() < 2 || B.size() < 2)
    return Result;
  double MeanA = mean(A), MeanB = mean(B);
  double VarA = sampleVariance(A), VarB = sampleVariance(B);
  double Na = static_cast<double>(A.size());
  double Nb = static_cast<double>(B.size());
  double Se2 = VarA / Na + VarB / Nb;
  if (Se2 == 0.0) {
    // Both samples are constant: either identical (p = 1) or trivially
    // different (p = 0).
    Result.PValue = (MeanA == MeanB) ? 1.0 : 0.0;
    return Result;
  }
  Result.TStatistic = (MeanA - MeanB) / std::sqrt(Se2);
  double Num = Se2 * Se2;
  double Den = (VarA / Na) * (VarA / Na) / (Na - 1.0) +
               (VarB / Nb) * (VarB / Nb) / (Nb - 1.0);
  Result.DegreesOfFreedom = Num / Den;
  Result.PValue = tTestPValue(Result.TStatistic, Result.DegreesOfFreedom);
  return Result;
}

bool ropt::significantlyLess(const std::vector<double> &A,
                             const std::vector<double> &B, double Alpha) {
  return compareSamples(A, B, Alpha) == SampleOrder::Less;
}

SampleOrder ropt::compareSamples(const std::vector<double> &A,
                                 const std::vector<double> &B,
                                 double Alpha) {
  if (A.empty() || B.empty())
    return SampleOrder::Indistinguishable;
  double MeanA = mean(A), MeanB = mean(B);
  if (MeanA == MeanB)
    return SampleOrder::Indistinguishable;
  // Degenerate equal-constant samples: a strict mean difference with zero
  // variance is treated as significant by welchTTest (p = 0).
  if (welchTTest(A, B).PValue >= Alpha)
    return SampleOrder::Indistinguishable;
  return MeanA < MeanB ? SampleOrder::Less : SampleOrder::Greater;
}

double ropt::racingSpentAlpha(double Alpha, int Round, int MaxRounds) {
  if (MaxRounds <= 0 || Round <= 0)
    return 0.0;
  if (Round >= MaxRounds)
    return Alpha;
  // 2^r - 1 over 2^R - 1; rounds are small (budget / block size), so the
  // doubles are exact.
  double Num = std::ldexp(1.0, Round) - 1.0;
  double Den = std::ldexp(1.0, MaxRounds) - 1.0;
  return Alpha * Num / Den;
}

double ropt::racingRoundAlpha(double Alpha, int Round, int MaxRounds) {
  return racingSpentAlpha(Alpha, Round, MaxRounds) -
         racingSpentAlpha(Alpha, Round - 1, MaxRounds);
}

/// Draws one bootstrap resample of \p Values and returns its mean.
static double resampleMean(const std::vector<double> &Values, Rng &R) {
  double Sum = 0.0;
  for (size_t I = 0; I != Values.size(); ++I)
    Sum += Values[static_cast<size_t>(R.below(Values.size()))];
  return Sum / static_cast<double>(Values.size());
}

/// Percentile interval from a sorted vector of statistic draws.
static BootstrapInterval percentileInterval(std::vector<double> Stats,
                                            double Confidence) {
  std::sort(Stats.begin(), Stats.end());
  double Tail = (1.0 - Confidence) / 2.0;
  size_t N = Stats.size();
  size_t LoIdx = static_cast<size_t>(Tail * static_cast<double>(N - 1) + 0.5);
  size_t HiIdx =
      static_cast<size_t>((1.0 - Tail) * static_cast<double>(N - 1) + 0.5);
  BootstrapInterval Interval;
  Interval.Low = Stats[std::min(LoIdx, N - 1)];
  Interval.High = Stats[std::min(HiIdx, N - 1)];
  return Interval;
}

BootstrapInterval ropt::bootstrapRatioCI(const std::vector<double> &A,
                                         const std::vector<double> &B,
                                         double Confidence, Rng &R,
                                         size_t Resamples) {
  if (A.empty() || B.empty())
    return {};
  std::vector<double> Stats;
  Stats.reserve(Resamples);
  for (size_t I = 0; I != Resamples; ++I) {
    double Denominator = resampleMean(B, R);
    if (Denominator == 0.0)
      Denominator = 1e-300;
    Stats.push_back(resampleMean(A, R) / Denominator);
  }
  return percentileInterval(std::move(Stats), Confidence);
}
