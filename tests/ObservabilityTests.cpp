//===- tests/ObservabilityTests.cpp - support/Trace + support/Metrics --------===//
//
// The tracing/metrics layer: span nesting, thread safety, counter and
// histogram correctness, well-formedness of the Chrome trace_event export
// (validated with a real JSON parser below), and an end-to-end smoke test
// asserting the pipeline's key counters are nonzero after one
// IterativeCompiler run.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include "core/IterativeCompiler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>

using namespace ropt;

namespace {

// --- A strict recursive-descent JSON syntax checker ------------------------

class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{': return object();
    case '[': return array();
    case '"': return string();
    case 't': return literal("true");
    case 'f': return literal("false");
    case 'n': return literal("null");
    default: return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
        if (S[Pos] == 'u') {
          for (int I = 0; I != 4; ++I)
            if (++Pos >= S.size() || !std::isxdigit(
                                         static_cast<unsigned char>(S[Pos])))
              return false;
        }
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing quote
    return true;
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }

  bool literal(const char *Lit) {
    size_t Len = std::strlen(Lit);
    if (S.compare(Pos, Len, Lit) != 0)
      return false;
    Pos += Len;
    return true;
  }

  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }
  void skipWs() {
    while (Pos < S.size() &&
           std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  const std::string &S;
  size_t Pos = 0;
};

bool jsonValid(const std::string &S) { return JsonChecker(S).valid(); }

// Only the ROPT_OBSERVABILITY-gated smoke test below queries spans.
[[maybe_unused]] bool hasSpan(const std::vector<TraceEvent> &Events,
                              const char *Name) {
  return std::any_of(Events.begin(), Events.end(),
                     [Name](const TraceEvent &E) {
                       return E.Ph == TraceEvent::Phase::Complete &&
                              std::string(E.Name) == Name;
                     });
}

/// RAII: leaves the process-wide recorder disabled and empty so tests
/// compose in any order.
struct TraceSession {
  TraceSession() {
    TraceRecorder::instance().clear();
    TraceRecorder::instance().enable(true);
  }
  ~TraceSession() {
    TraceRecorder::instance().enable(false);
    TraceRecorder::instance().clear();
  }
};

} // namespace

// --- The JSON checker itself ------------------------------------------------

TEST(JsonChecker, AcceptsAndRejects) {
  EXPECT_TRUE(jsonValid("{}"));
  EXPECT_TRUE(jsonValid("[1,2.5,-3e4,\"a\\\"b\",true,null,{\"k\":[]}]"));
  EXPECT_FALSE(jsonValid("{"));
  EXPECT_FALSE(jsonValid("{\"a\":1,}"));
  EXPECT_FALSE(jsonValid("[1 2]"));
  EXPECT_FALSE(jsonValid("\"unterminated"));
  EXPECT_FALSE(jsonValid("{}extra"));
}

// --- Trace ------------------------------------------------------------------

TEST(Trace, DisabledRecordsNothing) {
  TraceRecorder &T = TraceRecorder::instance();
  T.enable(false);
  T.clear();
  {
    ROPT_TRACE_SPAN("test.disabled");
    ROPT_TRACE_COUNTER("test.counter", 1);
    ROPT_TRACE_INSTANT("test.instant");
  }
  EXPECT_EQ(T.eventCount(), 0u);
}

TEST(Trace, SpanNestingIsContained) {
  TraceSession Session;
  {
    ScopedSpan Outer("test.outer");
    {
      ScopedSpan Inner("test.inner");
      volatile int Sink = 0;
      for (int I = 0; I != 1000; ++I)
        Sink = I;
      (void)Sink;
    }
  }
  std::vector<TraceEvent> Events = TraceRecorder::instance().events();
  ASSERT_EQ(Events.size(), 2u);
  // Spans are recorded at close: inner first.
  EXPECT_STREQ(Events[0].Name, "test.inner");
  EXPECT_STREQ(Events[1].Name, "test.outer");
  const TraceEvent &Inner = Events[0], &Outer = Events[1];
  EXPECT_GE(Inner.StartUs, Outer.StartUs);
  EXPECT_LE(Inner.StartUs + Inner.DurUs, Outer.StartUs + Outer.DurUs);
}

TEST(Trace, SpanArgumentAndCounterValueSurvive) {
  TraceSession Session;
  {
    ScopedSpan Gen("test.gen", 7);
  }
  TraceRecorder::instance().recordCounter("test.val", 1234);
  std::vector<TraceEvent> Events = TraceRecorder::instance().events();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_TRUE(Events[0].HasValue);
  EXPECT_EQ(Events[0].Value, 7);
  EXPECT_EQ(Events[1].Ph, TraceEvent::Phase::Counter);
  EXPECT_EQ(Events[1].Value, 1234);
}

TEST(Trace, BoundedBufferEvictsOldestFirst) {
  TraceSession Session;
  TraceRecorder &T = TraceRecorder::instance();
  T.setMaxEvents(10);
  EXPECT_EQ(T.maxEvents(), 10u);
  for (int I = 0; I != 25; ++I)
    T.recordCounter("test.bounded", I);
  EXPECT_EQ(T.eventCount(), 10u);
  EXPECT_EQ(T.droppedEvents(), 15u);
  // The survivors are the newest 10, in recording order.
  std::vector<TraceEvent> Events = T.events();
  ASSERT_EQ(Events.size(), 10u);
  for (size_t I = 0; I != Events.size(); ++I)
    EXPECT_EQ(Events[I].Value, static_cast<int64_t>(15 + I));
  // Shrinking the cap below the current size evicts immediately; the
  // dropped counter keeps accumulating until clear().
  T.setMaxEvents(4);
  EXPECT_EQ(T.eventCount(), 4u);
  EXPECT_EQ(T.droppedEvents(), 21u);
  EXPECT_EQ(T.events().back().Value, 24);
  T.clear();
  EXPECT_EQ(T.droppedEvents(), 0u);
  T.setMaxEvents(TraceRecorder::DefaultMaxEvents);
}

TEST(Trace, ThreadSafetyUnderConcurrentRecording) {
  TraceSession Session;
  constexpr int Threads = 8, PerThread = 500;
  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([] {
      for (int I = 0; I != PerThread; ++I) {
        ScopedSpan Span("test.mt");
        TraceRecorder::instance().recordCounter("test.mt_counter", I);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(TraceRecorder::instance().eventCount(),
            static_cast<size_t>(Threads) * PerThread * 2);
  EXPECT_TRUE(jsonValid(TraceRecorder::instance().toChromeJson()));
}

TEST(Trace, ChromeJsonAndJsonlAreWellFormed) {
  TraceSession Session;
  TraceRecorder &T = TraceRecorder::instance();
  {
    ScopedSpan Span("test.span\"with\\quotes");
    T.recordInstant("test.instant");
    T.recordCounter("test.counter", -5);
  }
  std::string Chrome = T.toChromeJson();
  EXPECT_TRUE(jsonValid(Chrome)) << Chrome;
  EXPECT_NE(Chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"ph\":\"i\""), std::string::npos);

  // JSONL: every line independently parses. Thread-name metadata lines
  // (ph:"M") may precede the events depending on what earlier tests
  // registered; only the event lines are counted.
  std::string Jsonl = T.toJsonl();
  size_t EventLines = 0, At = 0;
  while (At < Jsonl.size()) {
    size_t End = Jsonl.find('\n', At);
    ASSERT_NE(End, std::string::npos);
    std::string Line = Jsonl.substr(At, End - At);
    EXPECT_TRUE(jsonValid(Line));
    if (Line.find("\"thread_name\"") == std::string::npos)
      ++EventLines;
    At = End + 1;
  }
  EXPECT_EQ(EventLines, 3u);
}

TEST(Trace, ThreadNamesExportAsChromeMetadata) {
  TraceSession Session;
  TraceRecorder &T = TraceRecorder::instance();
  T.setCurrentThreadName("test-main");
  { ScopedSpan Span("test.span"); }

  std::map<uint32_t, std::string> Names = T.threadNames();
  bool Found = false;
  for (const auto &KV : Names)
    Found |= KV.second == "test-main";
  EXPECT_TRUE(Found);

  std::string Chrome = T.toChromeJson();
  EXPECT_TRUE(jsonValid(Chrome)) << Chrome;
  EXPECT_NE(Chrome.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(Chrome.find("test-main"), std::string::npos);
}

TEST(Trace, ThreadPoolWorkersRegisterNames) {
  // Worker naming is metadata: it happens even while recording is off.
  ThreadPool Pool(3);
  Pool.parallelFor(3, [](size_t, size_t) {});
  std::map<uint32_t, std::string> Names =
      TraceRecorder::instance().threadNames();
  int Workers = 0;
  for (const auto &KV : Names)
    if (KV.second.rfind("worker-", 0) == 0)
      ++Workers;
  EXPECT_GE(Workers, 3);
}

// --- Metrics ----------------------------------------------------------------

TEST(MetricsTest, CountersAndGauges) {
  Metrics Reg; // independent registry, no cross-test state
  Reg.counter("a").add(3);
  Reg.counter("a").add(4);
  Reg.counter("b").add(1);
  Reg.gauge("g").set(-17);
  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.counter("a"), 7u);
  EXPECT_EQ(S.counter("b"), 1u);
  EXPECT_EQ(S.counter("absent"), 0u);
  EXPECT_EQ(S.gauge("g"), -17);
  ASSERT_EQ(S.Counters.size(), 2u);
  // Snapshot is name-sorted (std::map iteration order).
  EXPECT_EQ(S.Counters[0].first, "a");
  EXPECT_EQ(S.Counters[1].first, "b");

  Reg.reset();
  EXPECT_EQ(Reg.snapshot().counter("a"), 0u);
  // The reference stays valid across reset.
  Reg.counter("a").add(2);
  EXPECT_EQ(Reg.snapshot().counter("a"), 2u);
}

TEST(MetricsTest, HistogramBuckets) {
  Metrics Reg;
  Histogram &H = Reg.histogram("h", {1.0, 10.0, 100.0});
  for (double V : {0.5, 1.0, 5.0, 50.0, 500.0, 5000.0})
    H.observe(V);
  Histogram::Snapshot S = H.snapshot();
  ASSERT_EQ(S.Counts.size(), 4u); // 3 bounds + overflow
  EXPECT_EQ(S.Counts[0], 2u);     // 0.5, 1.0 (bounds are inclusive)
  EXPECT_EQ(S.Counts[1], 1u);     // 5.0
  EXPECT_EQ(S.Counts[2], 1u);     // 50.0
  EXPECT_EQ(S.Counts[3], 2u);     // 500, 5000 overflow
  EXPECT_EQ(S.Count, 6u);
  EXPECT_DOUBLE_EQ(S.Min, 0.5);
  EXPECT_DOUBLE_EQ(S.Max, 5000.0);
  EXPECT_NEAR(S.mean(), 5556.5 / 6.0, 1e-9);
}

TEST(MetricsTest, HistogramBucketBoundaryEdges) {
  Metrics Reg;
  Histogram &H = Reg.histogram("edges", {10.0, 100.0});
  H.observe(10.0);  // exactly on a bound: first bucket (inclusive)
  H.observe(10.000001);
  H.observe(100.0); // exactly on the last finite bound
  H.observe(100.000001); // just past it: overflow
  Histogram::Snapshot S = H.snapshot();
  ASSERT_EQ(S.Counts.size(), 3u);
  EXPECT_EQ(S.Counts[0], 1u);
  EXPECT_EQ(S.Counts[1], 2u);
  EXPECT_EQ(S.Counts[2], 1u);
  EXPECT_EQ(S.Count, 4u);
}

TEST(MetricsTest, HistogramQuantileEstimates) {
  Metrics Reg;
  Histogram &H = Reg.histogram("q", {10.0, 20.0});
  for (double V : {2.0, 4.0, 6.0, 8.0, 10.0})
    H.observe(V); // bucket 0
  for (double V : {12.0, 14.0, 16.0, 18.0, 20.0})
    H.observe(V); // bucket 1
  Histogram::Snapshot S = H.snapshot();
  // Rank interpolation: the first bucket spans [Min, Bounds[0]].
  EXPECT_NEAR(S.quantile(0.0), 2.0, 1e-9);
  EXPECT_NEAR(S.quantile(0.25), 6.0, 1e-9);  // 2 + (2.5/5) * (10 - 2)
  EXPECT_NEAR(S.quantile(0.5), 10.0, 1e-9);
  EXPECT_NEAR(S.quantile(0.75), 15.0, 1e-9); // 10 + (2.5/5) * (20 - 10)
  EXPECT_NEAR(S.quantile(1.0), 20.0, 1e-9);
  // Out-of-range Q is clamped.
  EXPECT_NEAR(S.quantile(-1.0), 2.0, 1e-9);
  EXPECT_NEAR(S.quantile(2.0), 20.0, 1e-9);
}

TEST(MetricsTest, HistogramQuantileOverflowBucket) {
  Metrics Reg;
  Histogram &H = Reg.histogram("ovf", {10.0});
  H.observe(5.0);
  H.observe(50.0);  // overflow
  H.observe(150.0); // overflow
  Histogram::Snapshot S = H.snapshot();
  // The overflow bucket interpolates between the last bound and Max, so
  // estimates stay within [Min, Max] instead of running off to infinity.
  double Q9 = S.quantile(0.9);
  EXPECT_GE(Q9, 10.0);
  EXPECT_LE(Q9, 150.0);
  EXPECT_NEAR(S.quantile(1.0), 150.0, 1e-9);

  Histogram &Empty = Reg.histogram("empty", {1.0});
  EXPECT_DOUBLE_EQ(Empty.snapshot().quantile(0.5), 0.0);
}

TEST(MetricsTest, CountersAreThreadSafe) {
  Metrics Reg;
  Counter &C = Reg.counter("mt");
  std::vector<std::thread> Pool;
  for (int T = 0; T != 8; ++T)
    Pool.emplace_back([&C] {
      for (int I = 0; I != 10000; ++I)
        C.add(1);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(C.value(), 80000u);
}

TEST(MetricsTest, TextAndJsonDumps) {
  Metrics Reg;
  Reg.counter("capture.pages_spooled").add(12);
  Reg.gauge("search.best_cycles").set(999);
  Reg.histogram("replay.cycles", {10.0, 100.0}).observe(42.0);
  MetricsSnapshot S = Reg.snapshot();
  std::string Text = S.toText();
  EXPECT_NE(Text.find("capture.pages_spooled"), std::string::npos);
  EXPECT_NE(Text.find("12"), std::string::npos);
  std::string Json = S.toJson();
  EXPECT_TRUE(jsonValid(Json)) << Json;
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("\"histograms\""), std::string::npos);
}

#if ROPT_OBSERVABILITY

// --- The instrumentation macros (compiled out when OFF) ---------------------

TEST(Trace, MacrosRecordWhenEnabled) {
  TraceSession Session;
  {
    ROPT_TRACE_SPAN("test.macro_span");
    ROPT_TRACE_SPAN_V("test.macro_span_v", 3);
    ROPT_TRACE_COUNTER("test.macro_counter", 11);
    ROPT_TRACE_INSTANT("test.macro_instant");
  }
  std::vector<TraceEvent> Events = TraceRecorder::instance().events();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_TRUE(hasSpan(Events, "test.macro_span"));
  EXPECT_TRUE(hasSpan(Events, "test.macro_span_v"));
}

TEST(MetricsTest, MacrosHitTheProcessRegistry) {
  Metrics::instance().reset();
  ROPT_METRIC_INC("test.inc");
  ROPT_METRIC_ADD("test.add", 41);
  ROPT_METRIC_GAUGE_SET("test.gauge", -3);
  ROPT_METRIC_OBSERVE("test.hist", 7.0, ({1.0, 10.0}));
  MetricsSnapshot S = Metrics::instance().snapshot();
  EXPECT_EQ(S.counter("test.inc"), 1u);
  EXPECT_EQ(S.counter("test.add"), 41u);
  EXPECT_EQ(S.gauge("test.gauge"), -3);
  Metrics::instance().reset();
}

// --- End-to-end: one pipeline run populates the whole layer -----------------

TEST(ObservabilityPipeline, SmokeCountersAndSpans) {
  Metrics::instance().reset();
  TraceSession Session;

  core::PipelineConfig Config;
  Config.Seed = 1;
  Config.Search.GA.Generations = 3;
  Config.Search.GA.PopulationSize = 10;
  Config.Search.GA.HillClimbRounds = 1;
  Config.Search.MaxReplaysPerEvaluation = 5;
  Config.Capture.ProfileSessions = 4;
  Config.Measure.FinalMeasurementRuns = 4;
  core::IterativeCompiler Pipeline(Config);
  core::OptimizationReport Report =
      Pipeline.optimize(workloads::buildByName("Sieve"));
  ASSERT_TRUE(Report.Succeeded) << Report.FailureReason;

  // The acceptance counters: capture spooled pages, replays ran, the GA
  // accepted/rejected genomes.
  MetricsSnapshot S = Metrics::instance().snapshot();
  EXPECT_GT(S.counter("capture.pages_spooled"), 0u);
  EXPECT_GT(S.counter("capture.captures"), 0u);
  EXPECT_GT(S.counter("replay.replays"), 0u);
  EXPECT_GT(S.counter("search.genomes_accepted") +
                S.counter("search.genomes_rejected"),
            0u);
  EXPECT_EQ(S.counter("search.genomes_accepted") +
                S.counter("search.genomes_rejected"),
            S.counter("search.evaluations"));
  EXPECT_GT(S.counter("vm.insns"), 0u);
  EXPECT_GT(S.counter("vm.heap_allocs"), 0u);
  EXPECT_GT(S.counter("pipeline.runs"), 0u);

  // The evaluator's per-run counters and the process-wide registry agree
  // on the number of GA evaluations; the evaluator additionally ran the
  // Android and -O3 baselines before the search started.
  EXPECT_EQ(S.counter("search.evaluations") + 2,
            static_cast<uint64_t>(Report.Counters.total()));

  // One trace shows the whole Figure-6 loop: phases, capture, replay, and
  // at least one GA generation.
  std::vector<TraceEvent> Events = TraceRecorder::instance().events();
  EXPECT_TRUE(hasSpan(Events, "pipeline.optimize"));
  EXPECT_TRUE(hasSpan(Events, "pipeline.profile"));
  EXPECT_TRUE(hasSpan(Events, "pipeline.capture"));
  EXPECT_TRUE(hasSpan(Events, "capture.spool"));
  EXPECT_TRUE(hasSpan(Events, "replay.run"));
  EXPECT_TRUE(hasSpan(Events, "replay.restore"));
  EXPECT_TRUE(hasSpan(Events, "pipeline.fork"));
  EXPECT_TRUE(hasSpan(Events, "search.generation"));
  EXPECT_TRUE(hasSpan(Events, "search.hillclimb"));

  // One pipeline.measure span per whole-program block (value 0 android,
  // 1 -O3, 2 GA), each inside the install phase.
  const TraceEvent *Install = nullptr;
  std::vector<const TraceEvent *> Measures;
  for (const TraceEvent &E : Events) {
    if (E.Ph != TraceEvent::Phase::Complete)
      continue;
    if (std::string(E.Name) == "pipeline.install_measure")
      Install = &E;
    else if (std::string(E.Name) == "pipeline.measure")
      Measures.push_back(&E);
  }
  ASSERT_NE(Install, nullptr);
  ASSERT_EQ(Measures.size(), 3u);
  std::set<int64_t> Variants;
  for (const TraceEvent *M : Measures) {
    EXPECT_TRUE(M->HasValue);
    Variants.insert(M->Value);
    EXPECT_GE(M->StartUs, Install->StartUs);
    EXPECT_LE(M->StartUs + M->DurUs, Install->StartUs + Install->DurUs);
  }
  EXPECT_EQ(Variants, (std::set<int64_t>{0, 1, 2}));

  // And the export of a real pipeline trace is valid JSON.
  EXPECT_TRUE(jsonValid(TraceRecorder::instance().toChromeJson()));

  // The GA's generation log is consistent with the evaluation stream.
  ASSERT_FALSE(Report.Trace.Generations.empty());
  int LoggedEvals = 0;
  for (const search::GenerationStats &G : Report.Trace.Generations) {
    LoggedEvals += G.Evaluations;
    if (G.valid() > 0) {
      EXPECT_LE(G.BestCycles, G.MeanCycles);
      EXPECT_LE(G.MeanCycles, G.WorstCycles);
    }
  }
  EXPECT_EQ(LoggedEvals,
            static_cast<int>(Report.Trace.Evaluations.size()));
  EXPECT_EQ(LoggedEvals + 2, Report.Counters.total());
}

#endif // ROPT_OBSERVABILITY
