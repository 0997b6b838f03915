//===- vm/Runtime.cpp - Mixed-mode execution engine (shared plumbing) ------===//

#include "vm/Runtime.h"

#include "support/Metrics.h"
#include "support/Random.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>

using namespace ropt;
using namespace ropt::vm;

Runtime::Runtime(os::AddressSpace &Space, const dex::DexFile &Dex,
                 const NativeRegistry &Natives, RuntimeConfig Config)
    : Space(Space), Dex(Dex), Natives(Natives), Config(Config),
      TheHeap(Space, Config.HeapLimitBytes, Config.GcThresholdBytes) {
  ResolvedNatives.reserve(Dex.natives().size());
  for (const dex::NativeDecl &Decl : Dex.natives()) {
    const NativeImpl *Impl = Natives.lookup(Decl.Name);
    assert(Impl && "native declared in dex file but not registered");
    ResolvedNatives.push_back(Impl);
  }
  MethodCycles.assign(Dex.methods().size() + Dex.natives().size(), 0);
  MethodFeatures.assign(Dex.methods().size() + Dex.natives().size(),
                        MethodFeatureCounters());
}

void Runtime::mapStandardLayout(os::AddressSpace &Space,
                                const dex::DexFile &Dex,
                                const RuntimeConfig &Config) {
  using os::MappingKind;
  using os::ProtExec;
  using os::ProtRead;
  using os::ProtWrite;

  Space.mapRegion(Layout::CodeBase, Layout::CodeSize, ProtRead | ProtExec,
                  MappingKind::FileMapped, "app.oat");
  Space.mapRegion(Layout::DataBase, Layout::DataSize, ProtRead | ProtWrite,
                  MappingKind::Data, "statics");
  Space.mapRegion(Layout::HeapBase, Config.HeapLimitBytes,
                  ProtRead | ProtWrite, MappingKind::Heap, "dalvik-heap");
  Space.mapShared(Layout::RuntimeImageBase, runtimeImage(Config.BootId),
                  ProtRead, MappingKind::RuntimeImage, "boot.art");
  Space.mapRegion(Layout::StackBase, Layout::StackSize,
                  ProtRead | ProtWrite, MappingKind::Stack, "stack");

  // Static field initial values.
  for (size_t I = 0; I != Dex.staticFields().size(); ++I) {
    uint64_t Bits =
        static_cast<uint64_t>(Dex.staticFields()[I].InitialValue);
    [[maybe_unused]] bool Ok =
        Space.poke(Layout::DataBase + 8 * I, &Bits, sizeof(Bits));
    assert(Ok && "static field outside data segment");
  }

  // Heap control block.
  Heap H(Space, Config.HeapLimitBytes, Config.GcThresholdBytes);
  H.initialize();
}

namespace {

/// The runtime image of one boot, generated page by page on demand.
/// Consecutive words of the boot's stream fill the image front to back;
/// the source keeps a copy of the stream taken at the start of each page
/// up to the highest page asked for, so it generates page K from
/// checkpoint K whatever order pages are asked in.
class RuntimeImageSource final : public os::PageSource {
public:
  explicit RuntimeImageSource(uint64_t BootId)
      : PageSource(Layout::RuntimeImageSize / os::PageSize),
        Pages(pageCount()), Ready(pageCount()) {
    Checkpoints.emplace_back(0xb007ULL * 2654435761ULL + BootId);
  }

  const os::PhysPageRef &page(uint64_t I) const override {
    assert(I < pageCount() && "image page out of range");
    if (!Ready[I].load(std::memory_order_acquire))
      generate(I);
    return Pages[I];
  }

private:
  static constexpr uint64_t WordsPerPage = os::PageSize / 8;

  void generate(uint64_t I) const {
    std::lock_guard<std::mutex> Guard(Lock);
    if (Ready[I].load(std::memory_order_relaxed))
      return;
    while (Checkpoints.size() <= I) {
      Rng Next = Checkpoints.back();
      for (uint64_t W = 0; W != WordsPerPage; ++W)
        Next.next();
      Checkpoints.push_back(Next);
    }
    Rng PageRng = Checkpoints[I];
    auto Phys = std::make_shared<os::PhysicalPage>();
    for (size_t Offset = 0; Offset != os::PageSize; Offset += 8) {
      uint64_t Word = PageRng.next();
      std::memcpy(Phys->Data.data() + Offset, &Word, sizeof(Word));
    }
    Pages[I] = std::move(Phys);
    ROPT_METRIC_INC("vm.runtime_image_pages");
    Ready[I].store(true, std::memory_order_release);
  }

  mutable std::mutex Lock;
  /// Checkpoints[K]: the stream at the first word of page K.
  mutable std::vector<Rng> Checkpoints;
  /// Pages[K] is written once, under Lock, before Ready[K] is set.
  mutable std::vector<os::PhysPageRef> Pages;
  mutable std::vector<std::atomic<bool>> Ready;
};

} // namespace

const std::shared_ptr<const os::PageSource> &
Runtime::runtimeImage(uint64_t BootId) {
  // Node-based map: a returned pointer never moves.
  static std::mutex Lock;
  static std::map<uint64_t, std::shared_ptr<const os::PageSource>> Images;
  std::lock_guard<std::mutex> Guard(Lock);
  std::shared_ptr<const os::PageSource> &Image = Images[BootId];
  if (!Image) {
    ROPT_METRIC_INC("vm.runtime_image_builds");
    Image = std::make_shared<RuntimeImageSource>(BootId);
  }
  return Image;
}

void Runtime::noteBranchSlow(uint64_t Site, bool Taken) {
  MethodFeatureCounters &F = MethodFeatures[AttributionStack.back()];
  ++F.Branches;
  if (!FeaturePredictor.predictAndUpdate(Site, Taken))
    ++F.Mispredicts;
}

void Runtime::noteAllocSlow(uint64_t Slots) {
  MethodFeatureCounters &F = MethodFeatures[AttributionStack.back()];
  ++F.Allocs;
  F.AllocSlots += Slots;
}

Value Runtime::callNative(dex::NativeId Id,
                          const std::vector<Value> &Args) {
  const NativeImpl *Impl = ResolvedNatives.at(Id);
  // The JNI transition was the caller's cost (callNativeFrom); the native
  // body's work is attributed to the native itself (profile slots after
  // the method table) so the code-breakdown's JNI category sees it.
  if (Config.AttributeCycles && !AttributionStack.empty()) {
    // Feature attribution goes to the nearest managed caller beneath the
    // native wrapper (the wrapper itself sits outside every compilable
    // region, so the region's JNI share would otherwise be invisible).
    dex::MethodId Caller = AttributionStack.size() >= 2
                               ? AttributionStack[AttributionStack.size() - 2]
                               : AttributionStack.back();
    MethodFeatures[Caller].NativeCycles +=
        Costs.NativeCallCycles + Impl->WorkCycles;
  }
  if (Config.AttributeCycles)
    AttributionStack.push_back(
        static_cast<dex::MethodId>(Dex.methods().size() + Id));
  FrameCost Body = openFrame();
  Body.charge(Impl->WorkCycles);
  flush(Body);
  if (Config.AttributeCycles)
    AttributionStack.pop_back();
  EnvironmentReads += Impl->ReadsEnvironment;
  Env.IoLog = &IoLog;
  Env.InputQueue = &Inputs;
  // A coarse monotone clock: cycles at 1 GHz, rounded to milliseconds.
  Env.NowMillis = TotalCycles / 1000000;
  return Impl->Fn(Env, Args);
}

Value Runtime::invoke(dex::MethodId MethodId,
                      const std::vector<Value> &Args) {
  if (Trap != TrapKind::None)
    return Value();
  if (Depth >= Config.MaxCallDepth) {
    Trap = TrapKind::StackOverflow;
    return Value();
  }

  const dex::Method &M = Dex.method(MethodId);
  assert(Args.size() == M.ParamCount && "argument count mismatch");

  ++Depth;
  if (Config.AttributeCycles)
    AttributionStack.push_back(MethodId);

  bool FiredHook = false;
  if (MethodId == HookTarget && !RegionActive) {
    RegionActive = true;
    FiredHook = true;
    if (Hook.OnEnter)
      Hook.OnEnter(Args);
  }

  Value Ret;
  const DecodedFunction *Fn = nullptr;
  if (!M.IsNative && Mode == ExecMode::Mixed) {
    // The session-shared cache wins: it is the immutable compiled binary
    // under evaluation; the runtime-owned cache serves online installs.
    if (SharedCode)
      Fn = SharedCode->decoded(MethodId);
    if (!Fn)
      Fn = Cache.decoded(MethodId);
  }
  if (M.IsNative) {
    FrameCost F = openFrame();
    Ret = callNativeFrom(F, M.Native, Args);
  } else if (Fn) {
    Ret = execMachine(*Fn, Args);
  } else {
    Ret = interpret(M, Args);
  }

  if (FiredHook) {
    if (Hook.OnExit)
      Hook.OnExit();
    RegionActive = false;
  }

  if (Config.AttributeCycles)
    AttributionStack.pop_back();
  --Depth;
  return Ret;
}

CallResult Runtime::call(dex::MethodId Method,
                         const std::vector<Value> &Args) {
  assert(Depth == 0 && "call() is not reentrant");
  Trap = TrapKind::None;
  CallCycles = 0;
  CallInsns = 0;

  Value Ret = invoke(Method, Args);

  CallResult Result;
  Result.Trap = Trap;
  Result.Ret = Ret;
  Result.Cycles = CallCycles;
  Result.Insns = CallInsns;
  Trap = TrapKind::None;

  // Flushed per top-level call, not per instruction, so the interpreter's
  // hot loop stays untouched.
  ROPT_METRIC_INC("vm.calls");
  ROPT_METRIC_ADD("vm.insns", Result.Insns);
  ROPT_METRIC_ADD("vm.cycles", Result.Cycles);
  if (Result.Trap != TrapKind::None)
    ROPT_METRIC_INC("vm.traps");
  return Result;
}

void Runtime::resetProfile() {
  MethodCycles.assign(Dex.methods().size() + Dex.natives().size(), 0);
  MethodFeatures.assign(Dex.methods().size() + Dex.natives().size(),
                        MethodFeatureCounters());
  FeaturePredictor.reset();
}

BootState Runtime::bootState() const {
  assert(Depth == 0 && "boot state read inside a call");
  BootState S;
  S.Code = Cache;
  S.DCache = DCache;
  S.Predictor = Predictor;
  S.TotalCycles = TotalCycles;
  S.TotalInsns = TotalInsns;
  S.EnvironmentReads = EnvironmentReads;
  S.IoLog = IoLog;
  S.Inputs = Inputs;
  S.NowMillis = Env.NowMillis;
  return S;
}

void Runtime::adoptBootState(BootState S) {
  assert(Depth == 0 && TotalInsns == 0 && "adopting into a used runtime");
  Cache = std::move(S.Code);
  DCache = S.DCache;
  Predictor = S.Predictor;
  TotalCycles = S.TotalCycles;
  TotalInsns = S.TotalInsns;
  EnvironmentReads = S.EnvironmentReads;
  IoLog = std::move(S.IoLog);
  Inputs = std::move(S.Inputs);
  Env.NowMillis = S.NowMillis;
}

Value Runtime::readStatic(dex::StaticFieldId Id) {
  uint64_t Bits = 0;
  [[maybe_unused]] bool Ok =
      Space.peek(staticSlotAddr(Id), &Bits, sizeof(Bits));
  assert(Ok && "static slot unmapped");
  Value V;
  V.Raw = Bits;
  return V;
}
