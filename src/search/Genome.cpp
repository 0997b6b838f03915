//===- search/Genome.cpp - Optimization-decision genomes --------------------===//

#include "search/Genome.h"

#include <algorithm>
#include <cassert>

using namespace ropt;
using namespace ropt::search;
using lir::PassDescriptor;
using lir::PassInstance;

std::string Genome::name() const {
  std::string Out;
  for (size_t I = 0; I != Passes.size(); ++I) {
    if (I)
      Out += ",";
    Out += lir::passInstanceName(Passes[I]);
  }
  switch (RegAlloc) {
  case hgraph::RegAllocKind::LinearScan:
    break;
  case hgraph::RegAllocKind::Frequency:
    Out += "|ra=freq";
    break;
  case hgraph::RegAllocKind::FirstUse:
    Out += "|ra=first-use";
    break;
  case hgraph::RegAllocKind::None:
    Out += "|ra=none";
    break;
  }
  return Out;
}

bool Genome::operator==(const Genome &O) const {
  if (RegAlloc != O.RegAlloc || Passes.size() != O.Passes.size())
    return false;
  for (size_t I = 0; I != Passes.size(); ++I) {
    const PassInstance &A = Passes[I], &B = O.Passes[I];
    if (A.Id != B.Id || A.IntParam != B.IntParam ||
        A.Aggressive != B.Aggressive)
      return false;
  }
  return true;
}

PassInstance search::randomGene(Rng &R, const GenomeConfig &Config) {
  const auto &Registry = lir::passRegistry();
  const PassDescriptor *Pick = nullptr;
  // Rejection-sample around pruned arms (DisabledPassMask). The mask can
  // never cover the whole registry, so this terminates; bounded attempts
  // keep a pathological mask from spinning regardless.
  for (int Attempt = 0; Attempt != 64; ++Attempt) {
    const PassDescriptor &D =
        Registry[static_cast<size_t>(R.below(Registry.size()))];
    if (Config.DisabledPassMask &
        (1u << static_cast<uint32_t>(D.Id)))
      continue;
    Pick = &D;
    break;
  }
  if (!Pick) {
    for (const PassDescriptor &D : Registry)
      if (!(Config.DisabledPassMask &
            (1u << static_cast<uint32_t>(D.Id)))) {
        Pick = &D;
        break;
      }
    if (!Pick)
      Pick = &Registry[0];
  }
  const PassDescriptor &D = *Pick;
  PassInstance P;
  P.Id = D.Id;
  if (D.HasIntParam)
    P.IntParam = static_cast<int>(R.range(D.MinInt, D.MaxInt));
  if (D.HasAggressive)
    P.Aggressive = R.chance(Config.AggressiveProb);
  return P;
}

Genome search::randomGenome(Rng &R, const GenomeConfig &Config) {
  Genome G;
  size_t Length = static_cast<size_t>(R.range(
      static_cast<int64_t>(Config.MinLength),
      static_cast<int64_t>(Config.MaxInitialLength)));
  for (size_t I = 0; I != Length; ++I)
    G.Passes.push_back(randomGene(R, Config));
  double RaDraw = R.uniform();
  if (RaDraw < 0.10)
    G.RegAlloc = hgraph::RegAllocKind::Frequency;
  else if (RaDraw < 0.14)
    G.RegAlloc = hgraph::RegAllocKind::FirstUse;
  else if (RaDraw < 0.16)
    G.RegAlloc = hgraph::RegAllocKind::None;
  return G;
}

void search::mutate(Genome &G, Rng &R, const GenomeConfig &Config) {
  // Per-gene perturbations.
  for (PassInstance &P : G.Passes) {
    if (!R.chance(Config.GeneMutationProb))
      continue;
    const PassDescriptor &D = lir::passDescriptor(P.Id);
    switch (R.below(3)) {
    case 0: // modify the parameter (or replace if there is none)
      if (D.HasIntParam) {
        P.IntParam = static_cast<int>(R.range(D.MinInt, D.MaxInt));
        break;
      }
      [[fallthrough]];
    case 1: // replace with a fresh gene
      P = randomGene(R, Config);
      break;
    case 2: // toggle the aggressive flag where supported; a sound-only
            // search (AggressiveProb 0) may only clear it
      if (D.HasAggressive)
        P.Aggressive = Config.AggressiveProb > 0 && !P.Aggressive;
      else
        P = randomGene(R, Config);
      break;
    }
  }

  // Genome-level: introduce a new pass / drop one.
  if (G.Passes.size() < Config.MaxLength &&
      R.chance(Config.GeneMutationProb)) {
    size_t Pos = static_cast<size_t>(R.below(G.Passes.size() + 1));
    G.Passes.insert(G.Passes.begin() + Pos, randomGene(R, Config));
  }
  if (G.Passes.size() > Config.MinLength &&
      R.chance(Config.GeneMutationProb)) {
    size_t Pos = static_cast<size_t>(R.below(G.Passes.size()));
    G.Passes.erase(G.Passes.begin() + Pos);
  }
  if (R.chance(Config.GeneMutationProb / 2)) {
    double Draw = R.uniform();
    G.RegAlloc = Draw < 0.80   ? hgraph::RegAllocKind::LinearScan
                 : Draw < 0.92 ? hgraph::RegAllocKind::Frequency
                 : Draw < 0.98 ? hgraph::RegAllocKind::FirstUse
                               : hgraph::RegAllocKind::None;
  }
}

Genome search::crossover(const Genome &A, const Genome &B, Rng &R,
                         const GenomeConfig &Config) {
  Genome Child;
  Child.RegAlloc = R.chance(0.5) ? A.RegAlloc : B.RegAlloc;
  for (int Attempt = 0; Attempt != 8; ++Attempt) {
    size_t CutA = static_cast<size_t>(R.below(A.Passes.size() + 1));
    size_t CutB = static_cast<size_t>(R.below(B.Passes.size() + 1));
    Child.Passes.assign(A.Passes.begin(), A.Passes.begin() + CutA);
    Child.Passes.insert(Child.Passes.end(), B.Passes.begin() + CutB,
                        B.Passes.end());
    if (Child.Passes.size() >= Config.MinLength &&
        Child.Passes.size() <= Config.MaxLength)
      return Child;
  }
  // Give up on the length constraint: take the longer parent.
  Child.Passes = A.Passes.size() >= B.Passes.size() ? A.Passes : B.Passes;
  return Child;
}

void search::removeRedundantPasses(Genome &G) {
  auto SameGene = [](const PassInstance &A, const PassInstance &B) {
    return A.Id == B.Id && A.IntParam == B.IntParam &&
           A.Aggressive == B.Aggressive;
  };
  std::vector<PassInstance> Out;
  for (const PassInstance &P : G.Passes)
    if (Out.empty() || !SameGene(Out.back(), P))
      Out.push_back(P);
  G.Passes = std::move(Out);
}

bool search::parseGenome(const std::string &Name, Genome &Out) {
  Genome G;
  std::string Body = Name;
  // The register-allocator suffix is the only '|'-separated section.
  size_t Bar = Body.find('|');
  if (Bar != std::string::npos) {
    std::string Ra = Body.substr(Bar + 1);
    Body.resize(Bar);
    if (Ra == "ra=freq")
      G.RegAlloc = hgraph::RegAllocKind::Frequency;
    else if (Ra == "ra=first-use")
      G.RegAlloc = hgraph::RegAllocKind::FirstUse;
    else if (Ra == "ra=none")
      G.RegAlloc = hgraph::RegAllocKind::None;
    else
      return false;
  }
  size_t Pos = 0;
  while (Pos <= Body.size() && !Body.empty()) {
    size_t Comma = Body.find(',', Pos);
    std::string Spec = Body.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    PassInstance P;
    if (!lir::parsePassInstance(Spec, P))
      return false;
    G.Passes.push_back(P);
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  Out = std::move(G);
  return true;
}
