//===- lir/TypeProfile.h - Virtual call-site type profiles ------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-call-site receiver-class histograms, recorded by the interpreted
/// replay (Section 3.4) and consumed by the speculative devirtualization
/// pass. "What is novel is the information that drives the pass."
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_LIR_TYPE_PROFILE_H
#define ROPT_LIR_TYPE_PROFILE_H

#include "dex/DexFile.h"

#include <cstdint>
#include <map>

namespace ropt {
namespace lir {

/// Identifies one invoke-virtual bytecode: (method, pc).
struct CallSiteKey {
  dex::MethodId Method = dex::InvalidId;
  uint32_t Site = 0;

  bool operator<(const CallSiteKey &O) const {
    if (Method != O.Method)
      return Method < O.Method;
    return Site < O.Site;
  }
  bool operator==(const CallSiteKey &O) const {
    return Method == O.Method && Site == O.Site;
  }
};

/// Receiver-class frequency histograms per call site.
class TypeProfile {
public:
  void record(dex::MethodId Method, uint32_t Site, dex::ClassId Receiver) {
    ++Sites[CallSiteKey{Method, Site}][Receiver];
  }

  /// Returns true and sets \p Out when one receiver class covers at least
  /// \p MinFraction of the dispatches observed at the site.
  bool dominantType(dex::MethodId Method, uint32_t Site,
                    double MinFraction, dex::ClassId &Out) const {
    auto It = Sites.find(CallSiteKey{Method, Site});
    if (It == Sites.end() || It->second.empty())
      return false;
    uint64_t Total = 0, Best = 0;
    dex::ClassId BestClass = dex::InvalidId;
    for (const auto &KV : It->second) {
      Total += KV.second;
      if (KV.second > Best) {
        Best = KV.second;
        BestClass = KV.first;
      }
    }
    if (static_cast<double>(Best) <
        MinFraction * static_cast<double>(Total))
      return false;
    Out = BestClass;
    return true;
  }

  /// Accumulates another profile's histograms (multi-capture support).
  void merge(const TypeProfile &Other) {
    for (const auto &KV : Other.Sites)
      for (const auto &CC : KV.second)
        Sites[KV.first][CC.first] += CC.second;
  }

  /// Equal histograms at equal sites: the devirtualization pass decides
  /// identically under both profiles.
  bool operator==(const TypeProfile &O) const { return Sites == O.Sites; }

  size_t siteCount() const { return Sites.size(); }
  bool empty() const { return Sites.empty(); }

  const std::map<CallSiteKey, std::map<dex::ClassId, uint64_t>> &
  sites() const {
    return Sites;
  }

private:
  std::map<CallSiteKey, std::map<dex::ClassId, uint64_t>> Sites;
};

} // namespace lir
} // namespace ropt

#endif // ROPT_LIR_TYPE_PROFILE_H
