//===- perfbench/Spans.h - In-memory span log for the traced run ---------===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: spans recorded around calls into the
/// program's public entry points (profileApp, captureRegionMulti, the
/// engine's backends, GeneticSearch batches, Coordinator::run). The program
/// itself gets no new instrumentation. Spans stay in memory while the run
/// measures and are written out once, when it ends.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_PERFBENCH_SPANS_H
#define ROPT_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ropt {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// One closed (or still open: EndNs < 0) interval.
struct SpanRecord {
  std::string Name;
  std::string App;
  int Parent = -1;
  int64_t StartNs = 0; ///< Relative to the log's creation.
  int64_t EndNs = -1;
};

/// Thread-safe: engine workers record compile/measure spans concurrently.
class SpanLog {
public:
  SpanLog() : Epoch(Clock::now()) {}

  /// Opens a span and returns its id (its index in the log).
  int begin(const char *Name, int Parent, const std::string &App);
  void end(int Id);

  /// Summed duration of every closed span called \p Name.
  double totalMs(const std::string &Name) const;

  /// One JSON object per line: id, name, app, parent, start_us, end_us.
  bool writeJsonl(const std::string &Path) const;

private:
  int64_t nowNs() const;

  Clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<SpanRecord> Spans;
};

/// RAII span; close() ends it early and returns its duration in ms.
class Span {
public:
  Span(SpanLog &Log, const char *Name, int Parent = -1,
       const std::string &App = std::string())
      : Log(Log), Id(Log.begin(Name, Parent, App)), T0(Clock::now()) {}
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() { close(); }

  int id() const { return Id; }

  double close() {
    if (!Open)
      return 0.0;
    Open = false;
    Log.end(Id);
    return msSince(T0);
  }

private:
  SpanLog &Log;
  int Id;
  Clock::time_point T0;
  bool Open = true;
};

} // namespace perfbench
} // namespace ropt

#endif // ROPT_PERFBENCH_SPANS_H
