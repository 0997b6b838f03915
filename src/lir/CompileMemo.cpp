//===- lir/CompileMemo.cpp - Memoized pass transitions and codegen ---------===//

#include "lir/CompileMemo.h"

#include "hgraph/Build.h"
#include "lir/Codegen.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <list>
#include <optional>
#include <string_view>
#include <unordered_map>

using namespace ropt;
using namespace ropt::lir;

namespace {

/// The process-wide resident budget, shared by every live memo: 1 MiB of
/// encoded IR states and 2 MiB of machine code. The two halves are separate
/// so the per-pass churn of IR states cannot flush the machine code that
/// binary hits reuse whole. A process-wide (not per-memo) budget keeps the
/// fleet's per-class memos from multiplying memory.
constexpr int64_t IrBudgetBytes = int64_t(1) << 20;
constexpr int64_t CodeBudgetBytes = int64_t(2) << 20;

std::atomic<int64_t> ProcessIrBytes{0};
std::atomic<int64_t> ProcessCodeBytes{0};

/// Approximate heap cost of one allocation beyond its payload.
constexpr int64_t MallocOverhead = 16;

// --- IR encoding ---------------------------------------------------------------
//
// A resident IR state is stored as a lossless byte encoding of its
// LFunction: LEB128 varints, ids shifted by one so NoValue/InvalidId encode
// as 0, ImmI zigzagged, ImmF by its bit pattern. Lossless means byte
// equality is full structural equality (0.0 and -0.0 differ, as they fold
// differently), and the encoding is about a fifth of the in-memory IR.

uint64_t bitsOf(double D) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(D), "bitcast");
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}

/// Appends varints to a byte string. Callers reserve() room for a group of
/// values first, so each put is a plain store.
class Encoder {
public:
  /// Makes room for \p Varints more values.
  void reserve(size_t Varints) {
    size_t Need = Len + Varints * MaxVarint;
    if (Need > Out.size())
      Out.resize(std::max(Need, Out.size() * 2));
  }
  void put(uint64_t V) {
    char *P = Out.data() + Len;
    while (V >= 0x80) {
      *P++ = static_cast<char>(V | 0x80);
      V >>= 7;
    }
    *P++ = static_cast<char>(V);
    Len = static_cast<size_t>(P - Out.data());
  }
  void putId(uint32_t V) { put(uint32_t(V + 1)); }
  void putBytes(const std::string &S) {
    reserve(1 + (S.size() + MaxVarint - 1) / MaxVarint);
    put(S.size());
    std::memcpy(Out.data() + Len, S.data(), S.size());
    Len += S.size();
  }
  std::string take() {
    Out.resize(Len);
    Out.shrink_to_fit();
    return std::move(Out);
  }

private:
  static constexpr size_t MaxVarint = 10;
  std::string Out;
  size_t Len = 0;
};

} // namespace

std::string lir::encodeIR(const LFunction &Fn) {
  Encoder E;
  E.reserve(1);
  E.putId(Fn.Method);
  E.putBytes(Fn.Name);
  E.reserve(4);
  E.put(Fn.ParamCount);
  E.put(Fn.ReturnsValue);
  E.put(Fn.NumValues);
  E.put(Fn.Blocks.size());
  for (const LBlock &B : Fn.Blocks) {
    E.reserve(1);
    E.put(B.Phis.size());
    for (const LPhi &P : B.Phis) {
      E.reserve(2 + P.In.size());
      E.putId(P.Dst);
      E.put(P.In.size());
      for (ValueId V : P.In)
        E.putId(V);
    }
    E.reserve(1);
    E.put(B.Insns.size());
    for (const LInsn &I : B.Insns) {
      E.reserve(10 + I.Args.size());
      E.put(static_cast<uint64_t>(I.Op));
      E.putId(I.Dst);
      E.putId(I.A);
      E.putId(I.B);
      E.put((static_cast<uint64_t>(I.ImmI) << 1) ^
            static_cast<uint64_t>(I.ImmI >> 63));
      E.put(bitsOf(I.ImmF));
      E.put(I.Idx);
      E.putId(I.Site);
      E.putId(I.SiteMethod);
      E.put(I.Args.size());
      for (ValueId V : I.Args)
        E.putId(V);
    }
    const LTerminator &T = B.Term;
    E.reserve(9 + B.Preds.size());
    E.put(static_cast<uint64_t>(T.K));
    E.put(static_cast<uint64_t>(T.CondOp));
    E.putId(T.A);
    E.putId(T.B);
    E.put(static_cast<uint8_t>(T.Hint));
    E.put(T.Taken);
    E.put(T.Fall);
    E.put(T.GuardClass);
    E.put(B.Preds.size());
    for (uint32_t P : B.Preds)
      E.put(P);
  }
  return E.take();
}

namespace {

/// Reads encodeIR()'s output back.
class Decoder {
public:
  explicit Decoder(const std::string &Bytes)
      : P(reinterpret_cast<const uint8_t *>(Bytes.data())) {}

  uint64_t get() {
    uint64_t V = 0;
    for (unsigned Shift = 0;; Shift += 7) {
      uint8_t B = *P++;
      V |= uint64_t(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return V;
    }
  }
  uint32_t getId() { return static_cast<uint32_t>(get() - 1); }
  template <typename T> T getAs() { return static_cast<T>(get()); }

  LFunction function() {
    LFunction Fn;
    Fn.Method = getId();
    size_t NameLen = get();
    Fn.Name.assign(reinterpret_cast<const char *>(P), NameLen);
    P += NameLen;
    Fn.ParamCount = getAs<uint16_t>();
    Fn.ReturnsValue = get() != 0;
    Fn.NumValues = getAs<uint32_t>();
    Fn.Blocks.resize(get());
    for (LBlock &B : Fn.Blocks) {
      B.Phis.resize(get());
      for (LPhi &Phi : B.Phis) {
        Phi.Dst = getId();
        Phi.In.resize(get());
        for (ValueId &V : Phi.In)
          V = getId();
      }
      B.Insns.resize(get());
      for (LInsn &I : B.Insns) {
        I.Op = getAs<vm::MOpcode>();
        I.Dst = getId();
        I.A = getId();
        I.B = getId();
        uint64_t Zig = get();
        I.ImmI = static_cast<int64_t>((Zig >> 1) ^ (~(Zig & 1) + 1));
        uint64_t FBits = get();
        std::memcpy(&I.ImmF, &FBits, sizeof(FBits));
        I.Idx = getAs<uint32_t>();
        I.Site = getId();
        I.SiteMethod = getId();
        I.Args.resize(get());
        for (ValueId &V : I.Args)
          V = getId();
      }
      LTerminator &T = B.Term;
      T.K = getAs<LTerminator::Kind>();
      T.CondOp = getAs<vm::MOpcode>();
      T.A = getId();
      T.B = getId();
      T.Hint = static_cast<vm::BranchHint>(getAs<int8_t>());
      T.Taken = getAs<uint32_t>();
      T.Fall = getAs<uint32_t>();
      T.GuardClass = getAs<uint32_t>();
      B.Preds.resize(get());
      for (uint32_t &Pred : B.Preds)
        Pred = getAs<uint32_t>();
    }
    return Fn;
  }

private:
  const uint8_t *P;
};

LFunction decodeIR(const std::string &Bytes) {
  return Decoder(Bytes).function();
}

uint64_t hashBytes(const std::string &Bytes) {
  return std::hash<std::string_view>()(Bytes);
}

uint64_t mix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  return H * 0xff51afd7ed558ccdull;
}

int64_t codeBytes(const vm::MachineFunction &Fn) {
  return int64_t(sizeof(vm::MachineFunction)) + 2 * MallocOverhead +
         int64_t(Fn.Name.capacity()) +
         int64_t(Fn.Code.capacity() * sizeof(vm::MInsn));
}

struct TransitionKey {
  uint32_t State;
  int32_t IntParam;
  uint8_t Pass;
  bool Aggressive;

  bool operator==(const TransitionKey &) const = default;
};

struct TransitionKeyHash {
  size_t operator()(const TransitionKey &K) const {
    return mix(mix(K.State, uint64_t(uint32_t(K.IntParam))),
               (uint64_t(K.Pass) << 1) | K.Aggressive);
  }
};

void publishResidentGauge() {
  ROPT_METRIC_GAUGE_SET("compile.memo_resident_bytes",
                        static_cast<int64_t>(
                            CompileMemo::processResidentBytes()));
}

} // namespace

struct CompileMemo::Impl {
  using Lock = std::unique_lock<std::mutex>;
  using MachinePtr = std::shared_ptr<vm::MachineFunction>;
  using DecodedPtr = std::shared_ptr<const vm::DecodedFunction>;
  using EncodedPtr = std::shared_ptr<const std::string>;

  /// One interned IR state. Never deleted: an evicted state keeps its
  /// hash, flags and transitions and only drops its IR.
  struct IrState {
    bool OverBudget = false; ///< instructionCount() > SizeBudget.
    int8_t Verified = -1;    ///< -1 unknown, 0 verifier error, 1 ok.
    bool Pinned = false;     ///< Front-end roots are never evicted.
    int64_t IrSize = 0;      ///< Bytes charged for IR while resident.
    EncodedPtr IR;           ///< encodeIR() bytes; null once evicted.
    std::list<uint32_t>::iterator IrPos; ///< Into IrLru while resident.
  };

  /// Machine code of one (state, RegAllocKind).
  struct CodeEntry {
    MachinePtr Fn;
    /// Fn decoded, while some code cache still holds it: caches that
    /// install the same code share one decoding.
    std::weak_ptr<const vm::DecodedFunction> Decoded;
    int64_t Size = 0;
    std::list<uint64_t>::iterator Pos; ///< Into CodeLru.
  };

  struct MethodRoot {
    bool Unsupported = false;
    uint32_t Root = 0;
  };

  /// The IR a walk is working on, with its analyses while passes keep
  /// them valid.
  struct WorkingIr {
    LFunction Fn;
    FunctionAnalyses Analyses;
  };

  explicit Impl(CompileMemo &Owner) : Owner(Owner), Callees(Owner.File) {
    Ctx.File = &Owner.File;
    Ctx.Profile = &Owner.Profile;
    Ctx.Callees = &Callees;
  }

  ~Impl() {
    ProcessIrBytes.fetch_sub(IrBytes, std::memory_order_relaxed);
    ProcessCodeBytes.fetch_sub(CodeBytes, std::memory_order_relaxed);
    publishResidentGauge();
  }

  CompileMemo &Owner;
  CalleeSsa Callees; ///< Thread-safe; shared by every walk.
  PassContext Ctx;

  std::deque<IrState> States;
  /// Hash of the encoding -> the latest state interned under it. An older
  /// state with the same hash only loses sharing, never correctness.
  std::unordered_map<uint64_t, uint32_t> ByHash;
  std::unordered_map<TransitionKey, uint32_t, TransitionKeyHash> Next;
  std::unordered_map<dex::MethodId, MethodRoot> Roots;
  /// (state << 2 | RegAllocKind) -> code.
  std::unordered_map<uint64_t, CodeEntry> Codes;
  std::list<uint32_t> IrLru;   ///< Evictable IR states, most recent first.
  std::list<uint64_t> CodeLru; ///< Code keys, most recent first.
  int64_t IrBytes = 0;
  int64_t CodeBytes = 0;
  CompileMemoStats Stats;

  static uint64_t codeKey(uint32_t State, hgraph::RegAllocKind Kind) {
    static_assert(static_cast<int>(hgraph::RegAllocKind::None) < 4,
                  "RegAllocKind must fit the key's two low bits");
    return (uint64_t(State) << 2) | static_cast<uint64_t>(Kind);
  }

  static TransitionKey transitionKey(uint32_t State, const PassInstance &P) {
    return TransitionKey{State, P.IntParam, static_cast<uint8_t>(P.Id),
                         P.Aggressive};
  }

  // --- Residency ------------------------------------------------------------

  void touchIr(IrState &S) {
    if (S.IR && !S.Pinned)
      IrLru.splice(IrLru.begin(), IrLru, S.IrPos);
  }

  void makeResident(uint32_t Id, EncodedPtr IR, bool Pin) {
    IrState &S = States[Id];
    S.IrSize = int64_t(sizeof(std::string) + IR->capacity()) +
               2 * MallocOverhead;
    S.IR = std::move(IR);
    S.Pinned = Pin;
    IrBytes += S.IrSize;
    ProcessIrBytes.fetch_add(S.IrSize, std::memory_order_relaxed);
    if (!Pin) {
      IrLru.push_front(Id);
      S.IrPos = IrLru.begin();
    }
    while (ProcessIrBytes.load(std::memory_order_relaxed) > IrBudgetBytes &&
           !IrLru.empty()) {
      IrState &Victim = States[IrLru.back()];
      IrLru.pop_back();
      IrBytes -= Victim.IrSize;
      ProcessIrBytes.fetch_sub(Victim.IrSize, std::memory_order_relaxed);
      Victim.IR.reset();
      Victim.IrSize = 0;
      countEviction();
    }
  }

  void storeCode(uint64_t Key, MachinePtr Fn, const DecodedPtr &Decoded) {
    CodeEntry &E = Codes[Key];
    E.Size = codeBytes(*Fn);
    E.Fn = std::move(Fn);
    E.Decoded = Decoded;
    CodeLru.push_front(Key);
    E.Pos = CodeLru.begin();
    CodeBytes += E.Size;
    ProcessCodeBytes.fetch_add(E.Size, std::memory_order_relaxed);
    while (ProcessCodeBytes.load(std::memory_order_relaxed) >
               CodeBudgetBytes &&
           !CodeLru.empty()) {
      auto Victim = Codes.find(CodeLru.back());
      CodeLru.pop_back();
      CodeBytes -= Victim->second.Size;
      ProcessCodeBytes.fetch_sub(Victim->second.Size,
                                 std::memory_order_relaxed);
      Codes.erase(Victim);
      countEviction();
    }
  }

  void countEviction() {
    ++Stats.Evictions;
    ROPT_METRIC_INC("compile.memo_evictions");
  }

  // --- States ---------------------------------------------------------------

  /// The state whose IR encodes to \p Bytes, interning it when new.
  uint32_t intern(std::string Bytes, uint64_t Hash, bool OverBudget,
                  bool Pin = false) {
    auto It = ByHash.find(Hash);
    if (It != ByHash.end()) {
      IrState &S = States[It->second];
      if (S.IR && *S.IR == Bytes) {
        touchIr(S);
        return It->second;
      }
    }
    uint32_t Id = static_cast<uint32_t>(States.size());
    States.emplace_back();
    States.back().OverBudget = OverBudget;
    ByHash[Hash] = Id;
    makeResident(Id, std::make_shared<const std::string>(std::move(Bytes)),
                 Pin);
    return Id;
  }

  /// The front end's SSA for \p Id, built (and pinned) on first use.
  MethodRoot rootOf(Lock &L, dex::MethodId Id) {
    auto It = Roots.find(Id);
    if (It != Roots.end())
      return It->second;
    MethodRoot R;
    const dex::Method &M = Owner.File.method(Id);
    if (M.IsNative || M.isUncompilable()) {
      R.Unsupported = true;
      Roots.emplace(Id, R);
      return R;
    }
    L.unlock();
    LFunction Fn = [&] {
      ROPT_TRACE_SPAN("compile.frontend");
      return fromHGraph(hgraph::buildHGraph(Owner.File, Id),
                        TranslateOptions());
    }();
    bool Over = Fn.instructionCount() > Owner.SizeBudget;
    std::string Bytes = encodeIR(Fn);
    uint64_t Hash = hashBytes(Bytes);
    L.lock();
    It = Roots.find(Id);
    if (It != Roots.end()) // Another thread built it meanwhile.
      return It->second;
    R.Root = intern(std::move(Bytes), Hash, Over, /*Pin=*/true);
    Roots.emplace(Id, R);
    return R;
  }

  /// The IR of Walk.back(): decoded when resident, else recomputed by
  /// replaying \p Pipeline from the nearest resident state on \p Walk (the
  /// walk starts at a pinned root, so one always exists). The recomputed
  /// state becomes resident again: transitions are exact, so the replayed
  /// IR equals the evicted one.
  void materialize(Lock &L, const std::vector<uint32_t> &Walk,
                   const std::vector<PassInstance> &Pipeline,
                   std::optional<WorkingIr> &Work) {
    size_t To = Walk.size() - 1;
    size_t From = To;
    while (!States[Walk[From]].IR)
      --From;
    EncodedPtr Base = States[Walk[From]].IR;
    touchIr(States[Walk[From]]);
    L.unlock();
    Work.emplace(WorkingIr{decodeIR(*Base), {}});
    if (From == To) {
      L.lock();
      return;
    }
    for (size_t I = From; I != To; ++I)
      applyPass(Work->Fn, Pipeline[I], Ctx, Work->Analyses);
    auto Bytes = std::make_shared<const std::string>(encodeIR(Work->Fn));
    L.lock();
    ++Stats.Recomputes;
    ROPT_METRIC_INC("compile.memo_recomputes");
    if (!States[Walk[To]].IR)
      makeResident(Walk[To], std::move(Bytes), /*Pin=*/false);
  }

  // --- One method -----------------------------------------------------------

  struct MethodResult {
    CompileStatus Status;
    DecodedPtr Code;
  };

  /// The code under \p Key as installed: the live decoding if a cache
  /// still holds one, else a fresh one, decoded with the lock released.
  DecodedPtr decodedCode(Lock &L, uint64_t Key, CodeEntry &E) {
    if (DecodedPtr Decoded = E.Decoded.lock())
      return Decoded;
    MachinePtr Fn = E.Fn;
    L.unlock();
    DecodedPtr Decoded;
    {
      ROPT_TRACE_SPAN("compile.codegen");
      Decoded = vm::decodeMachineFunction(Fn);
    }
    L.lock();
    // The entry may have been evicted meanwhile, or decoded by another
    // thread; then only the sharing of this decoding is lost.
    if (auto It = Codes.find(Key); It != Codes.end() && It->second.Fn == Fn) {
      if (DecodedPtr Shared = It->second.Decoded.lock())
        return Shared;
      It->second.Decoded = Decoded;
    }
    return Decoded;
  }

  MethodResult compileMethod(Lock &L, dex::MethodId Id,
                             const std::vector<PassInstance> &Pipeline,
                             hgraph::RegAllocKind RegAlloc) {
    MethodRoot Root = rootOf(L, Id);
    if (Root.Unsupported)
      return {CompileStatus::Unsupported, nullptr};

    // Walk the transition table, applying passes only where it has no
    // entry yet. Work holds the IR of Walk.back() whenever a pass was just
    // applied; a table hit to another state leaves it stale, while a
    // self-transition keeps it (and its analyses) valid.
    std::vector<uint32_t> Walk;
    Walk.reserve(Pipeline.size() + 1);
    Walk.push_back(Root.Root);
    std::optional<WorkingIr> Work;
    for (const PassInstance &P : Pipeline) {
      TransitionKey Key = transitionKey(Walk.back(), P);
      auto It = Next.find(Key);
      if (It != Next.end()) {
        ++Stats.TransitionHits;
        ROPT_METRIC_INC("compile.memo_transition_hits");
        if (It->second != Walk.back())
          Work.reset();
        Walk.push_back(It->second);
      } else {
        ++Stats.TransitionMisses;
        ROPT_METRIC_INC("compile.memo_transition_misses");
        if (!Work)
          materialize(L, Walk, Pipeline, Work);
        L.unlock();
        bool Changed;
        {
          ROPT_TRACE_SPAN_V("compile.pass", static_cast<int>(P.Id));
          Changed = applyPass(Work->Fn, P, Ctx, Work->Analyses);
        }
        if (!Changed) {
          // The IR is byte-identical (applyPass's contract): the state
          // maps to itself, with nothing to encode, hash or intern.
          L.lock();
          ROPT_METRIC_INC("compile.memo_noop_passes");
          Next.emplace(Key, Walk.back());
          Walk.push_back(Walk.back());
        } else {
          bool Over = Work->Fn.instructionCount() > Owner.SizeBudget;
          std::string Bytes = encodeIR(Work->Fn);
          uint64_t Hash = hashBytes(Bytes);
          L.lock();
          uint32_t To = intern(std::move(Bytes), Hash, Over);
          Next.emplace(Key, To);
          Walk.push_back(To);
        }
      }
      if (States[Walk.back()].OverBudget)
        return {CompileStatus::SizeBudget, nullptr};
    }

    uint32_t Final = Walk.back();
    if (States[Final].Verified < 0) {
      if (!Work)
        materialize(L, Walk, Pipeline, Work);
      L.unlock();
      std::string Error;
      bool Valid;
      {
        ROPT_TRACE_SPAN("compile.verify");
        Valid = Work->Fn.verify(Error);
      }
      L.lock();
      States[Final].Verified = Valid ? 1 : 0;
    }
    if (States[Final].Verified == 0)
      return {CompileStatus::VerifierError, nullptr};

    uint64_t Key = codeKey(Final, RegAlloc);
    if (auto It = Codes.find(Key); It != Codes.end()) {
      ++Stats.CodegenHits;
      ROPT_METRIC_INC("compile.memo_codegen_hits");
      CodeLru.splice(CodeLru.begin(), CodeLru, It->second.Pos);
      return {CompileStatus::Ok, decodedCode(L, Key, It->second)};
    }
    ++Stats.CodegenMisses;
    ROPT_METRIC_INC("compile.memo_codegen_misses");
    if (!Work)
      materialize(L, Walk, Pipeline, Work);
    L.unlock();
    MachinePtr Fn;
    DecodedPtr Decoded;
    {
      ROPT_TRACE_SPAN("compile.codegen");
      Fn = emitMachine(std::move(Work->Fn), RegAlloc);
      Decoded = vm::decodeMachineFunction(Fn);
    }
    L.lock();
    if (auto It = Codes.find(Key); It != Codes.end())
      return {CompileStatus::Ok, decodedCode(L, Key, It->second)}; // Identical.
    storeCode(Key, std::move(Fn), Decoded);
    return {CompileStatus::Ok, std::move(Decoded)};
  }
};

CompileMemo::CompileMemo(const dex::DexFile &File, TypeProfile Profile,
                         size_t SizeBudget)
    : File(File), Profile(std::move(Profile)), SizeBudget(SizeBudget),
      State(std::make_unique<Impl>(*this)) {}

CompileMemo::~CompileMemo() = default;

CompileStatus CompileMemo::compileAll(const std::vector<dex::MethodId> &Methods,
                                      const std::vector<PassInstance> &Pipeline,
                                      hgraph::RegAllocKind RegAlloc,
                                      vm::CodeCache &Cache) {
  CompileStatus Status = CompileStatus::Ok;
  std::vector<Impl::DecodedPtr> Compiled;
  std::unique_lock<std::mutex> L(Mutex);
  for (dex::MethodId Id : Methods) {
    Impl::MethodResult R = State->compileMethod(L, Id, Pipeline, RegAlloc);
    if (R.Status == CompileStatus::Ok) {
      Compiled.push_back(std::move(R.Code));
      continue;
    }
    if (R.Status != CompileStatus::Unsupported && Status == CompileStatus::Ok)
      Status = R.Status;
  }
  L.unlock();
  for (Impl::DecodedPtr &Code : Compiled)
    Cache.install(std::move(Code));
  publishResidentGauge();
  return Status;
}

CompileMemoStats CompileMemo::stats() const {
  std::lock_guard<std::mutex> L(Mutex);
  CompileMemoStats S = State->Stats;
  S.ResidentBytes = static_cast<uint64_t>(State->IrBytes + State->CodeBytes);
  return S;
}

uint64_t CompileMemo::processResidentBytes() {
  return static_cast<uint64_t>(
      ProcessIrBytes.load(std::memory_order_relaxed) +
      ProcessCodeBytes.load(std::memory_order_relaxed));
}
