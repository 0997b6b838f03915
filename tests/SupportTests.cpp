//===- tests/SupportTests.cpp - support/ unit tests ------------------------===//

#include "support/Format.h"
#include "support/Random.h"
#include "support/Serialize.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace ropt;

// --- Format -----------------------------------------------------------------

TEST(Format, Basic) {
  EXPECT_EQ(format("x=%d y=%s", 42, "abc"), "x=42 y=abc");
  EXPECT_EQ(format("%.2f", 1.005), "1.00");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(Format, LongStrings) {
  std::string Long(5000, 'a');
  EXPECT_EQ(format("%s!", Long.c_str()), Long + "!");
}

TEST(Format, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

// --- Random -----------------------------------------------------------------

TEST(Random, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += (A.next() == B.next());
  EXPECT_LT(Same, 2);
}

TEST(Random, BelowInRange) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Random, BelowCoversAllValues) {
  Rng R(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 500; ++I)
    Seen.insert(R.below(5));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(Random, RangeInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.range(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= (V == -3);
    SawHi |= (V == 3);
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Random, UniformBounds) {
  Rng R(11);
  for (int I = 0; I != 1000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(Random, UniformMeanRoughlyHalf) {
  Rng R(13);
  double Sum = 0;
  const int N = 20000;
  for (int I = 0; I != N; ++I)
    Sum += R.uniform();
  EXPECT_NEAR(Sum / N, 0.5, 0.02);
}

TEST(Random, GaussianMoments) {
  Rng R(17);
  const int N = 40000;
  std::vector<double> Xs;
  Xs.reserve(N);
  for (int I = 0; I != N; ++I)
    Xs.push_back(R.gaussian());
  EXPECT_NEAR(mean(Xs), 0.0, 0.03);
  EXPECT_NEAR(sampleStdDev(Xs), 1.0, 0.03);
}

TEST(Random, LogNormalPositive) {
  Rng R(19);
  for (int I = 0; I != 100; ++I)
    EXPECT_GT(R.logNormal(0.0, 0.5), 0.0);
}

TEST(Random, SplitStreamsIndependent) {
  Rng A(31);
  Rng B = A.split();
  // The split stream should not mirror the parent stream.
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += (A.next() == B.next());
  EXPECT_LT(Same, 2);
}

TEST(Random, ShufflePreservesElements) {
  Rng R(37);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7};
  auto Orig = V;
  R.shuffle(V);
  std::multiset<int> A(V.begin(), V.end()), B(Orig.begin(), Orig.end());
  EXPECT_EQ(A, B);
}

TEST(Random, PickReturnsMember) {
  Rng R(41);
  std::vector<int> V = {10, 20, 30};
  for (int I = 0; I != 50; ++I) {
    int X = R.pick(V);
    EXPECT_TRUE(X == 10 || X == 20 || X == 30);
  }
}

// --- Statistics -------------------------------------------------------------

TEST(Statistics, MeanAndVariance) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(sampleVariance({2, 4, 4, 4, 5, 5, 7, 9}), 4.571428, 1e-5);
  EXPECT_DOUBLE_EQ(sampleVariance({5}), 0.0);
}

TEST(Statistics, Median) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Statistics, MedianAbsDeviation) {
  // median = 3, deviations {2,1,0,1,2} -> MAD 1.
  EXPECT_DOUBLE_EQ(medianAbsDeviation({1, 2, 3, 4, 5}), 1.0);
  EXPECT_DOUBLE_EQ(medianAbsDeviation({5, 5, 5}), 0.0);
}

TEST(Statistics, OutlierRemovalDropsSpike) {
  std::vector<double> V = {10, 11, 10, 9, 10, 11, 9, 10, 500};
  auto Kept = removeOutliersMAD(V);
  EXPECT_EQ(Kept.size(), V.size() - 1);
  for (double X : Kept)
    EXPECT_LT(X, 100);
}

TEST(Statistics, OutlierRemovalKeepsCleanData) {
  std::vector<double> V = {10, 11, 10, 9, 10, 11, 9, 10};
  EXPECT_EQ(removeOutliersMAD(V).size(), V.size());
}

TEST(Statistics, OutlierRemovalZeroMADKeepsAll) {
  std::vector<double> V = {5, 5, 5, 5, 900};
  // MAD is 0: everything is kept (documented degenerate behaviour).
  EXPECT_EQ(removeOutliersMAD(V).size(), V.size());
}

TEST(Statistics, IncompleteBetaKnownValues) {
  // I_x(1, 1) = x.
  EXPECT_NEAR(regularizedIncompleteBeta(1, 1, 0.3), 0.3, 1e-9);
  // I_x(2, 2) = x^2 (3 - 2x).
  EXPECT_NEAR(regularizedIncompleteBeta(2, 2, 0.5), 0.5, 1e-9);
  EXPECT_NEAR(regularizedIncompleteBeta(2, 2, 0.25), 0.15625, 1e-9);
  EXPECT_DOUBLE_EQ(regularizedIncompleteBeta(3, 4, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularizedIncompleteBeta(3, 4, 1.0), 1.0);
}

TEST(Statistics, TTestIdenticalSamples) {
  std::vector<double> A = {1, 2, 3, 4, 5};
  TTestResult R = welchTTest(A, A);
  EXPECT_NEAR(R.PValue, 1.0, 1e-9);
}

TEST(Statistics, TTestClearlyDifferent) {
  std::vector<double> A = {1.0, 1.1, 0.9, 1.05, 0.95};
  std::vector<double> B = {9.0, 9.1, 8.9, 9.05, 8.95};
  TTestResult R = welchTTest(A, B);
  EXPECT_LT(R.PValue, 1e-6);
}

TEST(Statistics, TTestOverlappingNotSignificant) {
  std::vector<double> A = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> B = {1.5, 2.5, 2.0, 3.5};
  TTestResult R = welchTTest(A, B);
  EXPECT_GT(R.PValue, 0.2);
}

TEST(Statistics, TTestDegenerateSamples) {
  EXPECT_DOUBLE_EQ(welchTTest({1.0}, {2.0, 3.0}).PValue, 1.0);
  EXPECT_DOUBLE_EQ(welchTTest({}, {}).PValue, 1.0);
  // Constant, different samples: trivially significant.
  EXPECT_DOUBLE_EQ(welchTTest({2, 2, 2}, {3, 3, 3}).PValue, 0.0);
}

TEST(Statistics, SignificantlyLess) {
  std::vector<double> Fast = {1.0, 1.02, 0.98, 1.01, 0.99};
  std::vector<double> Slow = {2.0, 2.02, 1.98, 2.01, 1.99};
  EXPECT_TRUE(significantlyLess(Fast, Slow));
  EXPECT_FALSE(significantlyLess(Slow, Fast));
  EXPECT_FALSE(significantlyLess(Fast, Fast));
}

TEST(Statistics, CompareSamplesThreeWay) {
  std::vector<double> Fast = {1.0, 1.02, 0.98, 1.01, 0.99};
  std::vector<double> Slow = {2.0, 2.02, 1.98, 2.01, 1.99};
  EXPECT_EQ(compareSamples(Fast, Slow), SampleOrder::Less);
  EXPECT_EQ(compareSamples(Slow, Fast), SampleOrder::Greater);
  EXPECT_EQ(compareSamples(Fast, Fast), SampleOrder::Indistinguishable);
  // Degenerate inputs are never "different".
  EXPECT_EQ(compareSamples({}, Slow), SampleOrder::Indistinguishable);
  EXPECT_EQ(compareSamples(Fast, {}), SampleOrder::Indistinguishable);
}

TEST(Statistics, CompareSamplesMatchesSignificantlyLessPair) {
  // compareSamples must be exactly the (significantlyLess(A,B),
  // significantlyLess(B,A)) pair — the double rank-test it replaced.
  Rng R(311);
  for (int Trial = 0; Trial != 200; ++Trial) {
    std::vector<double> A, B;
    double Gap = (Trial % 5) * 0.02; // 0 .. 0.08 relative mean gap
    for (int I = 0; I != 6; ++I) {
      A.push_back(R.gaussian(1.0, 0.03));
      B.push_back(R.gaussian(1.0 + Gap, 0.03));
    }
    SampleOrder O = compareSamples(A, B);
    EXPECT_EQ(O == SampleOrder::Less, significantlyLess(A, B));
    EXPECT_EQ(O == SampleOrder::Greater, significantlyLess(B, A));
  }
}

TEST(Statistics, RacingAlphaSpendingSchedule) {
  const double Alpha = 0.05;
  const int Rounds = 4;
  // Spending is 0 before the race, exactly Alpha at the end, and
  // strictly increasing in between.
  EXPECT_DOUBLE_EQ(racingSpentAlpha(Alpha, 0, Rounds), 0.0);
  EXPECT_DOUBLE_EQ(racingSpentAlpha(Alpha, Rounds, Rounds), Alpha);
  double Sum = 0.0, PrevIncrement = 0.0;
  for (int R = 1; R <= Rounds; ++R) {
    double Increment = racingRoundAlpha(Alpha, R, Rounds);
    EXPECT_GT(Increment, 0.0) << "round " << R;
    // Early low-power rounds spend less than later high-power ones.
    EXPECT_GT(Increment, PrevIncrement) << "round " << R;
    PrevIncrement = Increment;
    Sum += Increment;
    EXPECT_NEAR(racingSpentAlpha(Alpha, R, Rounds), Sum, 1e-12);
  }
  EXPECT_NEAR(Sum, Alpha, 1e-12);
  // One-round race: all of alpha in the single test.
  EXPECT_DOUBLE_EQ(racingRoundAlpha(Alpha, 1, 1), Alpha);
}

TEST(Statistics, RacingFalsePositiveRateUnderEqualDistributions) {
  // Simulate the race's sequential test on two *equal* distributions:
  // the fraction of races that ever declare "Greater" (an early stop)
  // must stay near the family-wise alpha.
  const double Alpha = 0.05;
  const int Rounds = 3, Block = 3, Trials = 2000;
  Rng R(631);
  int FalseStops = 0;
  for (int T = 0; T != Trials; ++T) {
    std::vector<double> Ref, Cand;
    for (int I = 0; I != Block * (Rounds + 1); ++I)
      Ref.push_back(R.gaussian(100.0, 1.0));
    for (int I = 0; I != Block; ++I)
      Cand.push_back(R.gaussian(100.0, 1.0));
    for (int Round = 1; Round <= Rounds; ++Round) {
      if (compareSamples(Cand, Ref,
                         racingRoundAlpha(Alpha, Round, Rounds)) ==
          SampleOrder::Greater) {
        ++FalseStops;
        break;
      }
      for (int I = 0; I != Block; ++I)
        Cand.push_back(R.gaussian(100.0, 1.0));
    }
  }
  double Rate = static_cast<double>(FalseStops) / Trials;
  // Bonferroni guarantees <= Alpha in expectation; allow sampling slack.
  EXPECT_LT(Rate, Alpha + 0.02);
}

TEST(Statistics, RacingPowerUnderKnownGap) {
  // A candidate 10 sigma slower than the reference must be early-stopped
  // almost always — that is the whole point of racing.
  const double Alpha = 0.05;
  const int Rounds = 3, Block = 3, Trials = 500;
  Rng R(733);
  int Stopped = 0;
  for (int T = 0; T != Trials; ++T) {
    std::vector<double> Ref, Cand;
    for (int I = 0; I != Block * (Rounds + 1); ++I)
      Ref.push_back(R.gaussian(100.0, 1.0));
    for (int I = 0; I != Block; ++I)
      Cand.push_back(R.gaussian(110.0, 1.0));
    for (int Round = 1; Round <= Rounds; ++Round) {
      if (compareSamples(Cand, Ref,
                         racingRoundAlpha(Alpha, Round, Rounds)) ==
          SampleOrder::Greater) {
        ++Stopped;
        break;
      }
      for (int I = 0; I != Block; ++I)
        Cand.push_back(R.gaussian(110.0, 1.0));
    }
  }
  EXPECT_GT(static_cast<double>(Stopped) / Trials, 0.95);
}

TEST(Statistics, BootstrapRatioCI) {
  Rng R(107);
  std::vector<double> A, B;
  for (int I = 0; I != 300; ++I) {
    A.push_back(R.gaussian(20.0, 1.0));
    B.push_back(R.gaussian(10.0, 1.0));
  }
  BootstrapInterval CI = bootstrapRatioCI(A, B, 0.95, R);
  EXPECT_LT(CI.Low, 2.0);
  EXPECT_GT(CI.High, 2.0);
}

// --- Serialize ----------------------------------------------------------------

TEST(Serialize, RoundTripScalars) {
  ByteWriter W;
  W.writeU8(0xab);
  W.writeU32(0xdeadbeef);
  W.writeU64(0x0123456789abcdefULL);
  W.writeString("hello");

  ByteReader R(W.bytes());
  EXPECT_EQ(R.readU8(), 0xab);
  EXPECT_EQ(R.readU32(), 0xdeadbeefu);
  EXPECT_EQ(R.readU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(R.readString(), "hello");
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(Serialize, RoundTripBytes) {
  std::vector<uint8_t> Payload(1000);
  for (size_t I = 0; I != Payload.size(); ++I)
    Payload[I] = static_cast<uint8_t>(I * 7);
  ByteWriter W;
  W.writeBytes(Payload.data(), Payload.size());
  ByteReader R(W.bytes());
  std::vector<uint8_t> Out(Payload.size());
  R.readBytes(Out.data(), Out.size());
  EXPECT_EQ(Out, Payload);
}

TEST(Serialize, EmptyString) {
  ByteWriter W;
  W.writeString("");
  ByteReader R(W.bytes());
  EXPECT_EQ(R.readString(), "");
}

TEST(Serialize, Remaining) {
  ByteWriter W;
  W.writeU32(1);
  W.writeU32(2);
  ByteReader R(W.bytes());
  EXPECT_EQ(R.remaining(), 8u);
  R.readU32();
  EXPECT_EQ(R.remaining(), 4u);
}
