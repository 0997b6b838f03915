//===- support/Metrics.h - Named counters, gauges, histograms --*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide metrics registry behind the pipeline's accounting:
/// monotonic counters (pages spooled, replays run, genomes rejected),
/// gauges (last-seen values) and fixed-bucket histograms (capture sizes,
/// per-capture overhead). Instruments are registered by name on first use
/// and keep a stable address for the life of the process, so hot sites
/// cache the reference once (`ROPT_METRIC_ADD` does this with a static
/// local) and pay one relaxed atomic add thereafter.
///
/// Naming follows the trace convention: `layer.noun`, e.g.
/// `capture.pages_spooled`, `replay.replays`, `search.genomes_rejected`.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_SUPPORT_METRICS_H
#define ROPT_SUPPORT_METRICS_H

#ifndef ROPT_OBSERVABILITY
#define ROPT_OBSERVABILITY 1
#endif

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ropt {

/// Monotonic counter. add() is wait-free.
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-written value.
class Gauge {
public:
  void set(int64_t New) { V.store(New, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Fixed-bucket histogram: counts per upper-bound bucket plus an implicit
/// overflow bucket, with sum/min/max. observe() takes a mutex — fine for
/// the per-capture / per-replay rates it is used at.
class Histogram {
public:
  /// The histogram's value, also usable on its own as an unlocked,
  /// mergeable accumulator. Two snapshots with the same bounds merge by
  /// bucket-wise addition, which is associative and commutative on the
  /// counts.
  struct Snapshot {
    /// \p UpperBounds must be sorted ascending; a value lands in the
    /// first bucket whose bound is >= the value, or in the overflow
    /// bucket.
    explicit Snapshot(std::vector<double> UpperBounds = {})
        : Bounds(std::move(UpperBounds)), Counts(Bounds.size() + 1, 0) {}

    std::vector<double> Bounds;   ///< Upper bounds, one per finite bucket.
    std::vector<uint64_t> Counts; ///< Bounds.size() + 1 entries (overflow).
    uint64_t Count = 0;
    double Sum = 0.0;
    double Min = 0.0; ///< 0 when Count == 0.
    double Max = 0.0;

    /// Index into Counts of the bucket \p Value lands in.
    size_t bucketOf(double Value) const;
    void observe(double Value) { add(bucketOf(Value), Value); }
    /// Records \p Value in bucket \p Bucket, which is bucketOf(Value).
    void add(size_t Bucket, double Value);
    /// Adds \p O's observations; \p O must have the same bounds.
    Snapshot &operator+=(const Snapshot &O);
    double mean() const { return Count ? Sum / static_cast<double>(Count) : 0.0; }
    /// Estimated \p Q-quantile (Q in [0,1]) by linear interpolation
    /// inside the bucket holding the target rank — the Prometheus
    /// histogram_quantile estimator, except the first bucket interpolates
    /// from the observed Min (not 0) and the overflow bucket toward the
    /// observed Max, so estimates are always within [Min, Max].
    double quantile(double Q) const;
  };

  explicit Histogram(std::vector<double> UpperBounds);

  void observe(double Value);
  void reset();
  Snapshot snapshot() const;

private:
  mutable std::mutex Mutex;
  Snapshot Value;
};

/// Point-in-time copy of every registered instrument, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, int64_t>> Gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> Histograms;

  /// Counter value by name; 0 when the counter was never registered.
  uint64_t counter(const std::string &Name) const;
  /// Gauge value by name; 0 when absent.
  int64_t gauge(const std::string &Name) const;

  /// Human-readable dump, one instrument per line.
  std::string toText() const;
  /// JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string toJson() const;
};

/// The registry. instance() is the process-wide one the pipeline uses;
/// independent registries can be constructed for tests.
class Metrics {
public:
  static Metrics &instance();

  Metrics() = default;
  Metrics(const Metrics &) = delete;
  Metrics &operator=(const Metrics &) = delete;

  /// Find-or-create; the returned reference is stable forever.
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  /// \p UpperBounds is only consulted on first registration.
  Histogram &histogram(const std::string &Name,
                       std::vector<double> UpperBounds);

  MetricsSnapshot snapshot() const;

  /// Zeroes every registered instrument (references stay valid).
  void reset();

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

} // namespace ropt

#if ROPT_OBSERVABILITY

/// Bumps the named process-wide counter. The registry lookup happens once
/// per site (static local); the steady-state cost is one relaxed add.
#define ROPT_METRIC_ADD(NameLiteral, Delta)                                  \
  do {                                                                       \
    static ::ropt::Counter &RoptMetricC =                                    \
        ::ropt::Metrics::instance().counter(NameLiteral);                    \
    RoptMetricC.add(static_cast<uint64_t>(Delta));                           \
  } while (false)
#define ROPT_METRIC_INC(NameLiteral) ROPT_METRIC_ADD(NameLiteral, 1)
#define ROPT_METRIC_GAUGE_SET(NameLiteral, Value)                            \
  do {                                                                       \
    static ::ropt::Gauge &RoptMetricG =                                      \
        ::ropt::Metrics::instance().gauge(NameLiteral);                      \
    RoptMetricG.set(static_cast<int64_t>(Value));                            \
  } while (false)
/// \p ... is the brace-initializer of upper bounds, e.g. ({1, 10, 100}).
#define ROPT_METRIC_OBSERVE(NameLiteral, Value, ...)                         \
  do {                                                                       \
    static ::ropt::Histogram &RoptMetricH =                                  \
        ::ropt::Metrics::instance().histogram(NameLiteral,                   \
                                              std::vector<double> __VA_ARGS__); \
    RoptMetricH.observe(static_cast<double>(Value));                         \
  } while (false)

#else // !ROPT_OBSERVABILITY

#define ROPT_METRIC_ADD(NameLiteral, Delta)                                  \
  do {                                                                       \
    (void)sizeof(NameLiteral);                                               \
    (void)sizeof(Delta);                                                     \
  } while (false)
#define ROPT_METRIC_INC(NameLiteral)                                         \
  do {                                                                       \
    (void)sizeof(NameLiteral);                                               \
  } while (false)
#define ROPT_METRIC_GAUGE_SET(NameLiteral, Value)                            \
  do {                                                                       \
    (void)sizeof(NameLiteral);                                               \
    (void)sizeof(Value);                                                     \
  } while (false)
#define ROPT_METRIC_OBSERVE(NameLiteral, Value, ...)                         \
  do {                                                                       \
    (void)sizeof(NameLiteral);                                               \
    (void)sizeof(Value);                                                     \
  } while (false)

#endif // ROPT_OBSERVABILITY

#endif // ROPT_SUPPORT_METRICS_H
