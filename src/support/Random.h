//===- support/Random.h - Deterministic random number generation -*- C++ -*-=//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fully deterministic PRNG used everywhere randomness is needed
/// (genetic search, workload inputs, measurement noise, ASLR). We do not use
/// std::mt19937 so that streams are stable across standard-library
/// implementations, and we support cheap splitting so that independent
/// subsystems draw from independent streams.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_SUPPORT_RANDOM_H
#define ROPT_SUPPORT_RANDOM_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ropt {

/// xoshiro256** seeded via SplitMix64. Deterministic and splittable.
class Rng {
public:
  explicit Rng(uint64_t Seed) { reseed(Seed); }

  /// Re-initializes the stream from \p Seed.
  void reseed(uint64_t Seed);

  /// Returns the next raw 64-bit draw.
  uint64_t next();

  /// Returns an independent generator derived from this one's stream.
  /// Advances this generator by one draw.
  Rng split() { return Rng(next() ^ 0x9e3779b97f4a7c15ULL); }

  /// Returns a uniform integer in [0, Bound). \p Bound must be non-zero.
  uint64_t below(uint64_t Bound);

  /// Returns a uniform integer in [Lo, Hi] inclusive.
  int64_t range(int64_t Lo, int64_t Hi);

  /// Returns a uniform double in [0, 1).
  double uniform();

  /// Returns a uniform double in [Lo, Hi).
  double uniform(double Lo, double Hi);

  /// Returns true with probability \p P.
  bool chance(double P) { return uniform() < P; }

  /// Returns a standard-normal draw (Box-Muller, one value per call).
  double gaussian();

  /// Returns a draw from a normal with the given mean and sigma.
  double gaussian(double Mean, double Sigma) {
    return Mean + Sigma * gaussian();
  }

  /// Returns exp(N(Mu, Sigma)); used to model skewed latency noise.
  double logNormal(double Mu, double Sigma);

  /// Fisher-Yates shuffles \p Values in place.
  template <typename T> void shuffle(std::vector<T> &Values) {
    for (size_t I = Values.size(); I > 1; --I) {
      size_t J = static_cast<size_t>(below(I));
      std::swap(Values[I - 1], Values[J]);
    }
  }

  /// Picks a uniformly random element of the non-empty \p Values.
  template <typename T> const T &pick(const std::vector<T> &Values) {
    assert(!Values.empty() && "pick() from empty vector");
    return Values[static_cast<size_t>(below(Values.size()))];
  }

private:
  uint64_t State[4];
  bool HaveSpareGaussian = false;
  double SpareGaussian = 0.0;
};

} // namespace ropt

#endif // ROPT_SUPPORT_RANDOM_H
