//===- analysis/SpanDag.cpp - Span tree over trace events -------------------===//

#include "analysis/SpanDag.h"

#include "support/Json.h"

#include <algorithm>
#include <map>

using namespace ropt;
using namespace ropt::analysis;

SpanDag SpanDag::build(std::vector<RawSpan> Spans) {
  // Parent-before-child order: by thread, then start ascending, then
  // duration descending (the containing span first). For identical
  // intervals the RAII recorder emits the inner span first (destructors
  // unwind inside-out), so the later-recorded event is the outer one.
  std::vector<size_t> Order(Spans.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const RawSpan &SA = Spans[A], &SB = Spans[B];
    if (SA.ThreadId != SB.ThreadId)
      return SA.ThreadId < SB.ThreadId;
    if (SA.StartUs != SB.StartUs)
      return SA.StartUs < SB.StartUs;
    if (SA.DurUs != SB.DurUs)
      return SA.DurUs > SB.DurUs;
    return A > B;
  });

  SpanDag Dag;
  Dag.Nodes.reserve(Spans.size());
  std::vector<int> Stack; // Indices into Dag.Nodes, current thread only.
  uint32_t StackThread = 0;
  for (size_t I : Order) {
    RawSpan &S = Spans[I];
    if (S.ThreadId != StackThread) {
      Stack.clear();
      StackThread = S.ThreadId;
    }
    uint64_t End = S.StartUs + S.DurUs;
    while (!Stack.empty()) {
      const SpanNode &Top = Dag.Nodes[static_cast<size_t>(Stack.back())];
      if (S.StartUs >= Top.StartUs && End <= Top.StartUs + Top.DurUs)
        break;
      Stack.pop_back();
    }
    SpanNode N;
    N.Name = std::move(S.Name);
    N.StartUs = S.StartUs;
    N.DurUs = S.DurUs;
    N.SelfUs = S.DurUs;
    N.ThreadId = S.ThreadId;
    N.Parent = Stack.empty() ? -1 : Stack.back();
    int Index = static_cast<int>(Dag.Nodes.size());
    Dag.Nodes.push_back(std::move(N));
    if (Stack.empty())
      Dag.Roots.push_back(Index);
    else
      Dag.Nodes[static_cast<size_t>(Stack.back())].Children.push_back(
          Index);
    Stack.push_back(Index);
  }

  for (SpanNode &N : Dag.Nodes) {
    uint64_t ChildUs = 0;
    for (int C : N.Children)
      ChildUs += Dag.Nodes[static_cast<size_t>(C)].DurUs;
    N.SelfUs = ChildUs >= N.DurUs ? 0 : N.DurUs - ChildUs;
  }
  return Dag;
}

SpanDag SpanDag::fromEvents(const std::vector<TraceEvent> &Events) {
  std::vector<RawSpan> Spans;
  for (const TraceEvent &E : Events) {
    if (E.Ph != TraceEvent::Phase::Complete)
      continue;
    RawSpan S;
    S.Name = E.Name;
    S.StartUs = E.StartUs;
    S.DurUs = E.DurUs;
    S.ThreadId = E.ThreadId;
    Spans.push_back(std::move(S));
  }
  return build(std::move(Spans));
}

support::Result<SpanDag> SpanDag::fromChromeJson(const std::string &Text) {
  support::Result<json::Value> Doc = json::parse(Text);
  if (!Doc)
    return support::Error(support::ErrorCode::Unknown,
                          "trace.json: " + Doc.error().Message);
  const json::Value *Events = Doc.value().find("traceEvents");
  if (!Events || !Events->isArray())
    return support::Error(support::ErrorCode::Unknown,
                          "trace.json: missing traceEvents array");
  std::vector<RawSpan> Spans;
  for (const json::Value &E : Events->elements()) {
    if (E.string("ph") != "X")
      continue;
    RawSpan S;
    S.Name = E.string("name");
    S.StartUs = E.integer<uint64_t>("ts");
    S.DurUs = E.integer<uint64_t>("dur");
    S.ThreadId = E.integer<uint32_t>("tid");
    Spans.push_back(std::move(S));
  }
  return build(std::move(Spans));
}

std::vector<int> SpanDag::criticalPath() const {
  auto Better = [&](int A, int B) {
    // True when A is the better (longer) pick; ties toward the earlier
    // start, then the lexically smaller name, for a stable result.
    const SpanNode &NA = Nodes[static_cast<size_t>(A)];
    const SpanNode &NB = Nodes[static_cast<size_t>(B)];
    if (NA.DurUs != NB.DurUs)
      return NA.DurUs > NB.DurUs;
    if (NA.StartUs != NB.StartUs)
      return NA.StartUs < NB.StartUs;
    return NA.Name < NB.Name;
  };
  std::vector<int> Path;
  if (Roots.empty())
    return Path;
  int Cur = Roots.front();
  for (int R : Roots)
    if (R != Cur && Better(R, Cur))
      Cur = R;
  while (true) {
    Path.push_back(Cur);
    const SpanNode &N = Nodes[static_cast<size_t>(Cur)];
    if (N.Children.empty())
      break;
    int Next = N.Children.front();
    for (int C : N.Children)
      if (C != Next && Better(C, Next))
        Next = C;
    Cur = Next;
  }
  return Path;
}

std::vector<SpanStats> SpanDag::topSpans(size_t N) const {
  std::map<std::string, SpanStats> ByName;
  for (const SpanNode &Node : Nodes) {
    SpanStats &S = ByName[Node.Name];
    S.Name = Node.Name;
    S.TotalUs += Node.DurUs;
    S.SelfUs += Node.SelfUs;
    ++S.Count;
  }
  std::vector<SpanStats> Out;
  Out.reserve(ByName.size());
  for (auto &KV : ByName)
    Out.push_back(std::move(KV.second));
  std::sort(Out.begin(), Out.end(),
            [](const SpanStats &A, const SpanStats &B) {
              if (A.TotalUs != B.TotalUs)
                return A.TotalUs > B.TotalUs;
              return A.Name < B.Name;
            });
  if (Out.size() > N)
    Out.resize(N);
  return Out;
}
