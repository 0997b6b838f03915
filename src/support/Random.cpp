//===- support/Random.cpp - Deterministic random number generation -------===//

#include "support/Random.h"

#include <cmath>

using namespace ropt;

static uint64_t splitMix64(uint64_t &X) {
  X += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

static uint64_t rotl(uint64_t X, int K) {
  return (X << K) | (X >> (64 - K));
}

void Rng::reseed(uint64_t Seed) {
  uint64_t SM = Seed;
  for (uint64_t &S : State)
    S = splitMix64(SM);
  HaveSpareGaussian = false;
}

uint64_t Rng::next() {
  uint64_t Result = rotl(State[1] * 5, 7) * 9;
  uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

uint64_t Rng::below(uint64_t Bound) {
  assert(Bound != 0 && "below(0) is meaningless");
  // Rejection sampling to avoid modulo bias.
  uint64_t Threshold = (0 - Bound) % Bound;
  for (;;) {
    uint64_t R = next();
    if (R >= Threshold)
      return R % Bound;
  }
}

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "empty range");
  uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
  // Span == 0 means the full 64-bit range.
  if (Span == 0)
    return static_cast<int64_t>(next());
  return Lo + static_cast<int64_t>(below(Span));
}

double Rng::uniform() {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double Lo, double Hi) {
  return Lo + (Hi - Lo) * uniform();
}

double Rng::gaussian() {
  if (HaveSpareGaussian) {
    HaveSpareGaussian = false;
    return SpareGaussian;
  }
  double U, V, S;
  do {
    U = uniform(-1.0, 1.0);
    V = uniform(-1.0, 1.0);
    S = U * U + V * V;
  } while (S >= 1.0 || S == 0.0);
  double Scale = std::sqrt(-2.0 * std::log(S) / S);
  SpareGaussian = V * Scale;
  HaveSpareGaussian = true;
  return U * Scale;
}

double Rng::logNormal(double Mu, double Sigma) {
  return std::exp(gaussian(Mu, Sigma));
}
