//===- perfbench/Spans.cpp - In-memory span log for the traced run --------===//

#include "Spans.h"

#include "support/Json.h"

#include <cstdio>

using namespace ropt;
using namespace ropt::perfbench;

int64_t SpanLog::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

int SpanLog::begin(const char *Name, int Parent, const std::string &App) {
  SpanRecord R;
  R.Name = Name;
  R.App = App;
  R.Parent = Parent;
  R.StartNs = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back(std::move(R));
  return static_cast<int>(Spans.size() - 1);
}

void SpanLog::end(int Id) {
  int64_t T = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  Spans[static_cast<size_t>(Id)].EndNs = T;
}

double SpanLog::totalMs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  int64_t Ns = 0;
  for (const SpanRecord &R : Spans)
    if (R.EndNs >= 0 && R.Name == Name)
      Ns += R.EndNs - R.StartNs;
  return static_cast<double>(Ns) / 1e6;
}

bool SpanLog::writeJsonl(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(M);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &R = Spans[I];
    json::Builder B;
    B.field("id", static_cast<int64_t>(I))
        .field("name", R.Name)
        .field("app", R.App)
        .field("parent", static_cast<int64_t>(R.Parent))
        .field("start_us", static_cast<double>(R.StartNs) / 1e3)
        .field("end_us", static_cast<double>(R.EndNs) / 1e3);
    std::fprintf(F, "%s\n", std::move(B).str().c_str());
  }
  return std::fclose(F) == 0;
}
