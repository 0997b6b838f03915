//===- support/Metrics.cpp - Named counters, gauges, histograms -------------===//

#include "support/Metrics.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace ropt;

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> UpperBounds)
    : Value(std::move(UpperBounds)) {
  assert(std::is_sorted(Value.Bounds.begin(), Value.Bounds.end()) &&
         "histogram bounds must ascend");
}

void Histogram::observe(double V) {
  // The bounds never change after construction (reset() keeps them), so
  // the bucket search runs outside the lock.
  size_t Bucket = Value.bucketOf(V);
  std::lock_guard<std::mutex> Lock(Mutex);
  Value.add(Bucket, V);
}

void Histogram::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::fill(Value.Counts.begin(), Value.Counts.end(), 0);
  Value.Count = 0;
  Value.Sum = Value.Min = Value.Max = 0.0;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Value;
}

size_t Histogram::Snapshot::bucketOf(double V) const {
  size_t Bucket = 0;
  while (Bucket < Bounds.size() && V > Bounds[Bucket])
    ++Bucket;
  return Bucket;
}

void Histogram::Snapshot::add(size_t Bucket, double V) {
  ++Counts[Bucket];
  Min = Count == 0 ? V : std::min(Min, V);
  Max = Count == 0 ? V : std::max(Max, V);
  ++Count;
  Sum += V;
}

Histogram::Snapshot &Histogram::Snapshot::operator+=(const Snapshot &O) {
  assert(Bounds == O.Bounds && "merging histograms of different bounds");
  for (size_t I = 0; I < Counts.size(); ++I)
    Counts[I] += O.Counts[I];
  if (O.Count) {
    Min = Count ? std::min(Min, O.Min) : O.Min;
    Max = Count ? std::max(Max, O.Max) : O.Max;
    Count += O.Count;
    Sum += O.Sum;
  }
  return *this;
}

double Histogram::Snapshot::quantile(double Q) const {
  if (Count == 0)
    return 0.0;
  Q = std::clamp(Q, 0.0, 1.0);
  double TargetRank = Q * static_cast<double>(Count);
  uint64_t Before = 0;
  for (size_t B = 0; B != Counts.size(); ++B) {
    if (Counts[B] == 0)
      continue;
    double InBucket = static_cast<double>(Counts[B]);
    if (TargetRank > static_cast<double>(Before) + InBucket) {
      Before += Counts[B];
      continue;
    }
    bool Overflow = B >= Bounds.size();
    double Lo = B == 0 ? Min : Bounds[B - 1];
    double Hi = Overflow ? Max : Bounds[B];
    Lo = std::clamp(Lo, Min, Max);
    Hi = std::clamp(Hi, Min, Max);
    double Frac = (TargetRank - static_cast<double>(Before)) / InBucket;
    return Lo + Frac * (Hi - Lo);
  }
  return Max;
}

// --- MetricsSnapshot ---------------------------------------------------------

uint64_t MetricsSnapshot::counter(const std::string &Name) const {
  for (const auto &KV : Counters)
    if (KV.first == Name)
      return KV.second;
  return 0;
}

int64_t MetricsSnapshot::gauge(const std::string &Name) const {
  for (const auto &KV : Gauges)
    if (KV.first == Name)
      return KV.second;
  return 0;
}

std::string MetricsSnapshot::toText() const {
  std::string Out;
  for (const auto &KV : Counters)
    Out += format("%-34s %llu\n", KV.first.c_str(),
                  static_cast<unsigned long long>(KV.second));
  for (const auto &KV : Gauges)
    Out += format("%-34s %lld (gauge)\n", KV.first.c_str(),
                  static_cast<long long>(KV.second));
  for (const auto &KV : Histograms) {
    const Histogram::Snapshot &H = KV.second;
    Out += format("%-34s n=%llu mean=%.3f min=%.3f max=%.3f (histogram)\n",
                  KV.first.c_str(),
                  static_cast<unsigned long long>(H.Count), H.mean(), H.Min,
                  H.Max);
  }
  return Out;
}

namespace {

void appendJsonKey(std::string &Out, const std::string &Name) {
  // Instrument names are dot/underscore ASCII; quote-escape defensively.
  Out += '"';
  for (char C : Name) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  Out += '"';
}

} // namespace

std::string MetricsSnapshot::toJson() const {
  std::string Out = "{\"counters\":{";
  for (size_t I = 0; I != Counters.size(); ++I) {
    if (I)
      Out += ",";
    appendJsonKey(Out, Counters[I].first);
    Out += format(":%llu",
                  static_cast<unsigned long long>(Counters[I].second));
  }
  Out += "},\"gauges\":{";
  for (size_t I = 0; I != Gauges.size(); ++I) {
    if (I)
      Out += ",";
    appendJsonKey(Out, Gauges[I].first);
    Out += format(":%lld", static_cast<long long>(Gauges[I].second));
  }
  Out += "},\"histograms\":{";
  for (size_t I = 0; I != Histograms.size(); ++I) {
    if (I)
      Out += ",";
    const Histogram::Snapshot &H = Histograms[I].second;
    appendJsonKey(Out, Histograms[I].first);
    Out += format(":{\"count\":%llu,\"sum\":%.6f,\"min\":%.6f,"
                  "\"max\":%.6f,\"buckets\":[",
                  static_cast<unsigned long long>(H.Count), H.Sum, H.Min,
                  H.Max);
    for (size_t B = 0; B != H.Counts.size(); ++B) {
      if (B)
        Out += ",";
      bool Overflow = B >= H.Bounds.size();
      Out += format("{\"le\":%s,\"count\":%llu}",
                    Overflow ? "\"inf\""
                             : format("%.6f", H.Bounds[B]).c_str(),
                    static_cast<unsigned long long>(H.Counts[B]));
    }
    Out += "]}";
  }
  Out += "}}";
  return Out;
}

// --- Metrics -----------------------------------------------------------------

Metrics &Metrics::instance() {
  static Metrics M;
  return M;
}

Counter &Metrics::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Counter> &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &Metrics::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Gauge> &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &Metrics::histogram(const std::string &Name,
                              std::vector<double> UpperBounds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Histogram> &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>(std::move(UpperBounds));
  return *Slot;
}

MetricsSnapshot Metrics::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  MetricsSnapshot S;
  for (const auto &KV : Counters)
    S.Counters.emplace_back(KV.first, KV.second->value());
  for (const auto &KV : Gauges)
    S.Gauges.emplace_back(KV.first, KV.second->value());
  for (const auto &KV : Histograms)
    S.Histograms.emplace_back(KV.first, KV.second->snapshot());
  return S;
}

void Metrics::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &KV : Counters)
    KV.second->reset();
  for (auto &KV : Gauges)
    KV.second->reset();
  for (auto &KV : Histograms)
    KV.second->reset();
}
