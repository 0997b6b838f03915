//===- fleet/Transport.h - Injectable device<->server messaging -*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message layer between fleet devices and the aggregation server.
/// Real deployments talk over flaky mobile networks, so the simulated
/// transport injects seeded drop, latency and reordering. Since the
/// event-loop redesign (DESIGN.md §14) messages travel in *virtual time*:
/// a send is planned up front into an arrival delay the event queue
/// consumes, and latency, retransmits and reordering genuinely move the
/// arrival — which changes when (and in what order) hints and reports
/// land, and therefore which hints seed which search. The results stay
/// deterministic, not loss-invariant, because of one property:
///
///  - A transport's verdict for one delivery attempt is a pure function
///    of the attempt's identity (app, round, device, direction, attempt
///    number) and the transport seed — never of wall-clock time or call
///    order. Replaying the same protocol replays the same packet fates,
///    so a seeded run is bit-identical across --jobs values and reruns.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_FLEET_TRANSPORT_H
#define ROPT_FLEET_TRANSPORT_H

#include "support/Json.h"

#include <cstdint>
#include <string>

namespace ropt {
namespace fleet {

/// Which way a fleet message travels (half of an attempt's identity).
enum class Channel : uint64_t {
  Hints = 1,  ///< Server -> device: the round's top-k hint set.
  Report = 2, ///< Device -> server: round results + hint rejections.
};

/// Identity of one delivery attempt. Transports must derive their verdict
/// purely from this (plus their own seed) so packet fates are replayable.
struct MessageKey {
  uint64_t App = 0; ///< appKey() of the application name.
  Channel Dir = Channel::Report;
  int Round = 0;
  int Device = 0;
  int Attempt = 0;

  /// Mixes the fields into one 64-bit stream seed.
  uint64_t mix() const;
};

/// Stable 64-bit key for an application name (FNV-1a).
uint64_t appKey(const std::string &Name);

/// One attempt's fate, in virtual time.
struct Delivery {
  bool Delivered = true;
  uint64_t LatencyTicks = 1; ///< Simulated one-way latency.
  /// The packet was overtaken in flight: it arrives ReorderTicks later
  /// than its nominal latency, so a message sent after it can land
  /// first. Since the event loop commits arrivals in virtual-time order,
  /// reordering now *changes results* — deterministically — instead of
  /// being a log-only counter the round barrier used to hide.
  bool Reordered = false;
  uint64_t ReorderTicks = 0; ///< Extra in-flight delay when reordered.
};

class Transport {
public:
  virtual ~Transport() = default;

  /// Decides the fate of one delivery attempt.
  virtual Delivery attempt(const MessageKey &Key) = 0;
};

/// The ideal network: every attempt lands with unit latency.
class PerfectTransport : public Transport {
public:
  Delivery attempt(const MessageKey &) override { return Delivery{}; }
};

/// Degradation knobs for the simulated network.
struct TransportOptions {
  double DropProb = 0.0;    ///< Per-attempt loss probability.
  double ReorderProb = 0.0; ///< Per-delivery overtaking probability.
};

/// Per-attempt in-flight latency range of the simulated network.
inline constexpr uint64_t MinLatencyTicks = 1;
inline constexpr uint64_t MaxLatencyTicks = 4;

/// Seeded lossy transport: drop/latency/reorder drawn from a stream
/// keyed on (seed, attempt identity), independent of call order. A
/// reordered delivery draws its overtaking penalty from the same stream
/// (1..2*MaxLatencyTicks extra in-flight ticks).
class SimTransport : public Transport {
public:
  SimTransport(TransportOptions Opt, uint64_t Seed)
      : Opt(Opt), Seed(Seed) {}

  Delivery attempt(const MessageKey &Key) override;

private:
  TransportOptions Opt;
  uint64_t Seed;
};

/// Sender-side retry policy: capped exponential backoff between
/// retransmits. The default cap of 64 attempts makes delivery effectively
/// certain at any plausible drop rate (P(fail) = DropProb^64); what loss
/// costs is virtual *time* — every dropped attempt adds its backoff wait
/// to the message's arrival delay, shifting when the payload lands.
struct RetryPolicy {
  int MaxAttempts = 64;
};

/// Wait before retransmit n: BackoffBaseTicks << (n-1), capped.
inline constexpr uint64_t BackoffBaseTicks = 1;
inline constexpr uint64_t BackoffCapTicks = 16;

/// What one planned send looks like to the event queue: whether the
/// payload ever lands and, if so, after how many virtual ticks. Drops and
/// reordering are folded into DelayTicks, so the *content* consequences
/// of a bad network (late hints, overtaken reports) play out in the
/// simulation instead of being retried away behind a barrier.
struct SendOutcome {
  bool Delivered = false;
  int Attempts = 0;
  uint64_t Drops = 0;
  /// Send-to-arrival virtual delay: failed-attempt backoffs, the landing
  /// attempt's latency, and any reorder penalty. Meaningless when
  /// !Delivered (the message is simply gone).
  uint64_t DelayTicks = 0;
  bool Reordered = false; ///< The landing attempt drew the reorder fate.
  /// The reorder's share of DelayTicks — what arrival would have gained
  /// had the landing attempt not been overtaken. Lets the coordinator
  /// decide whether the reorder *mattered* (crossed a step boundary).
  uint64_t ReorderTicks = 0;
};

/// Plans one message's journey through \p T: walks the attempt sequence
/// (pure per-attempt verdicts) until an attempt lands or Policy
/// .MaxAttempts is exhausted, accumulating backoff and latency into the
/// arrival delay. Nothing blocks — the caller schedules the arrival at
/// now() + DelayTicks.
SendOutcome planDelivery(Transport &T, MessageKey Key,
                         const RetryPolicy &Policy);

/// Transport accounting rolled up across sends — one struct instead of
/// the six hand-summed counters it replaced, shared by FleetResult, the
/// manifest's fleet section and `ropt-report summarize`. Methods are
/// inline so the report layer can use it without linking the fleet
/// library (the dependency runs fleet -> report, not the reverse).
struct TransportStats {
  uint64_t Attempts = 0;
  uint64_t Drops = 0;
  uint64_t Ticks = 0;    ///< Virtual in-flight + backoff ticks.
  uint64_t Failed = 0;   ///< Sends whose retry budget ran out.
  uint64_t Reorders = 0; ///< Deliveries that drew the reorder fate.
  /// Reorders that actually changed arrival order at a destination — a
  /// later-sent message landed first. This is the measured form of the
  /// claim the round barrier used to assert ("reordering never changes
  /// results"): under the event loop it can, and this counts when it did.
  uint64_t ReordersEffective = 0;

  TransportStats &operator+=(const TransportStats &O) {
    Attempts += O.Attempts;
    Drops += O.Drops;
    Ticks += O.Ticks;
    Failed += O.Failed;
    Reorders += O.Reorders;
    ReordersEffective += O.ReordersEffective;
    return *this;
  }

  /// Folds one planned send (everything but ReordersEffective, which
  /// only a destination's arrival log can decide).
  void count(const SendOutcome &S) {
    Attempts += static_cast<uint64_t>(S.Attempts);
    Drops += S.Drops;
    Ticks += S.DelayTicks;
    if (!S.Delivered)
      ++Failed;
    if (S.Reordered)
      ++Reorders;
  }

  /// The one JSON emitter (field names are the schema): appends
  /// attempts/drops/ticks/failed/reorders/reorders_effective to \p B.
  void emitJson(json::Builder &B) const {
    B.field("transport_attempts", Attempts)
        .field("transport_drops", Drops)
        .field("transport_ticks", Ticks)
        .field("deliveries_failed", Failed)
        .field("reorders", Reorders)
        .field("reorders_effective", ReordersEffective);
  }
};

} // namespace fleet
} // namespace ropt

#endif // ROPT_FLEET_TRANSPORT_H
