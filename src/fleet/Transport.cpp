//===- fleet/Transport.cpp - Injectable device<->server messaging ---------===//

#include "fleet/Transport.h"

#include "support/Random.h"

#include <algorithm>

using namespace ropt;
using namespace ropt::fleet;

uint64_t fleet::appKey(const std::string &Name) {
  uint64_t H = 0xcbf29ce484222325ull; // FNV-1a
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

uint64_t MessageKey::mix() const {
  // SplitMix-style fold of every identity field; Rng's SplitMix64 seeding
  // then decorrelates nearby keys.
  uint64_t H = App;
  auto Fold = [&H](uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  };
  Fold(static_cast<uint64_t>(Dir));
  Fold(static_cast<uint64_t>(Round) + 1);
  Fold(static_cast<uint64_t>(Device) + 1);
  Fold(static_cast<uint64_t>(Attempt) + 1);
  return H;
}

Delivery SimTransport::attempt(const MessageKey &Key) {
  // One private stream per attempt identity: the verdict cannot depend on
  // how many other messages were sent before this one.
  Rng R(Seed ^ Key.mix());
  Delivery D;
  D.Delivered = !R.chance(Opt.DropProb);
  D.LatencyTicks =
      MinLatencyTicks + R.below(MaxLatencyTicks - MinLatencyTicks + 1);
  D.Reordered = D.Delivered && R.chance(Opt.ReorderProb);
  if (D.Reordered)
    D.ReorderTicks = 1 + R.below(2 * MaxLatencyTicks);
  return D;
}

SendOutcome fleet::planDelivery(Transport &T, MessageKey Key,
                                const RetryPolicy &Policy) {
  SendOutcome Out;
  for (int A = 0; A < Policy.MaxAttempts; ++A) {
    Key.Attempt = A;
    Delivery D = T.attempt(Key);
    ++Out.Attempts;
    if (D.Delivered) {
      Out.Delivered = true;
      Out.Reordered = D.Reordered;
      Out.ReorderTicks = D.ReorderTicks;
      Out.DelayTicks += D.LatencyTicks + D.ReorderTicks;
      return Out;
    }
    // A drop costs the sender a timeout: the attempt's latency (the time
    // it takes to conclude nothing came back) plus the capped backoff
    // before the retransmit. All of it lands in the arrival delay.
    ++Out.Drops;
    Out.DelayTicks += D.LatencyTicks;
    uint64_t Backoff = BackoffBaseTicks
                       << std::min<uint64_t>(static_cast<uint64_t>(A), 16);
    Out.DelayTicks += std::min(Backoff, BackoffCapTicks);
  }
  return Out;
}
