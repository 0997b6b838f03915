//===- vm/Runtime.h - Mixed-mode execution engine ---------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution engine: a bytecode interpreter and a machine-code executor
/// sharing one heap, one static area, one native registry, and one cycle
/// accounting stream — the analogue of ART running a mix of interpreted and
/// AOT-compiled methods. Every call picks the best available tier per
/// method (unless forced to interpret, as the verification replay is).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_VM_RUNTIME_H
#define ROPT_VM_RUNTIME_H

#include "dex/DexFile.h"
#include "os/AddressSpace.h"
#include "vm/CostModel.h"
#include "vm/Heap.h"
#include "vm/Machine.h"
#include "vm/Native.h"
#include "vm/Trap.h"
#include "vm/Value.h"

#include <deque>
#include <memory>
#include <vector>

namespace ropt {
namespace vm {

/// Hooks the interpreted replay uses to build type profiles and the
/// verification map (Section 3.4). Only the interpreter fires them.
class ExecObserver {
public:
  virtual ~ExecObserver() = default;
  /// An invoke-virtual at (Caller, Pc) dispatched on ReceiverClass.
  virtual void onVirtualDispatch(dex::MethodId Caller, uint32_t Pc,
                                 dex::ClassId ReceiverClass) {
    (void)Caller;
    (void)Pc;
    (void)ReceiverClass;
  }
  /// An 8-byte heap or static cell at Addr was written.
  virtual void onCellWrite(uint64_t Addr) { (void)Addr; }
};

/// Per-method microarchitectural event counts, filled alongside the
/// exclusive-cycle profile (only when AttributeCycles is on) and indexed
/// like Runtime::methodCycles(). The analysis layer's bottleneck
/// classifier consumes these; measurement runs never touch them, and the
/// counting-only branch-predictor consult uses a dedicated predictor so
/// profiling cannot perturb the cost model's state.
struct MethodFeatureCounters {
  uint64_t Insns = 0;
  uint64_t Branches = 0;      ///< Conditional branches executed.
  uint64_t Mispredicts = 0;   ///< Counting-only 2-bit-predictor misses.
  uint64_t MemReads = 0;
  uint64_t MemWrites = 0;
  uint64_t CacheMisses = 0;   ///< L1D-model misses on the read side.
  uint64_t Allocs = 0;
  uint64_t AllocSlots = 0;
  uint64_t NativeCycles = 0;  ///< JNI transition + body, charged to the
                              ///< nearest managed caller.
};

/// Runtime configuration.
struct RuntimeConfig {
  uint64_t InsnBudget = 50000000; ///< Per top-level call; Timeout beyond.
  uint32_t MaxCallDepth = 512;
  uint64_t HeapLimitBytes = 24 * 1024 * 1024;
  uint64_t GcThresholdBytes = 8 * 1024 * 1024;
  bool AttributeCycles = false; ///< Per-method exclusive cycle profile.
  uint64_t BootId = 1;          ///< Seeds the runtime-image content.
};

/// Result of one top-level call.
struct CallResult {
  TrapKind Trap = TrapKind::None;
  Value Ret;
  uint64_t Cycles = 0;
  uint64_t Insns = 0;

  bool ok() const { return Trap == TrapKind::None; }
};

/// Callbacks fired around the outermost invocation of a designated hot
/// region root — the capture mechanism's entry-point instrumentation
/// (Section 3.2, step 1).
struct RegionHooks {
  std::function<void(const std::vector<Value> &)> OnEnter;
  std::function<void()> OnExit;
};

/// Execution tier selection.
enum class ExecMode {
  Mixed,         ///< Compiled code when available, interpreter otherwise.
  InterpretOnly, ///< Force the interpreter everywhere.
};

/// The engine. One Runtime per process address space.
class Runtime {
public:
  Runtime(os::AddressSpace &Space, const dex::DexFile &Dex,
          const NativeRegistry &Natives, RuntimeConfig Config);

  /// Maps the standard process layout into \p Space and initializes the
  /// data segment (static fields) and heap control block. The runtime
  /// image is mapped shared from runtimeImage(Config.BootId). Call once
  /// for a fresh app process; replay loaders restore captured pages
  /// instead.
  static void mapStandardLayout(os::AddressSpace &Space,
                                const dex::DexFile &Dex,
                                const RuntimeConfig &Config);

  /// The runtime image of boot \p BootId: Layout::RuntimeImageSize bytes
  /// of immutable objects, a deterministic function of the boot id and
  /// identical for every process of that boot. Built once per boot id on
  /// first use (thread-safe) and kept for the life of the program; every
  /// address space maps these same physical pages (AddressSpace::
  /// mapShared). The table's own reference keeps each page shared, so a
  /// write from any process copies the page instead of changing it.
  static const std::vector<os::PhysPageRef> &runtimeImage(uint64_t BootId);

  /// Invokes \p Method with \p Args. Resets the per-call budget; cycle and
  /// instruction counts accumulate into the lifetime totals too.
  CallResult call(dex::MethodId Method, const std::vector<Value> &Args);

  Heap &heap() { return TheHeap; }
  os::AddressSpace &space() { return Space; }
  const RuntimeConfig &config() const { return Config; }
  const dex::DexFile &dexFile() const { return Dex; }
  CodeCache &codeCache() { return Cache; }
  const CycleCostModel &costModel() const { return Costs; }

  void setMode(ExecMode M) { Mode = M; }
  ExecMode mode() const { return Mode; }

  /// Zero-copy code install for replay sessions: points the Mixed tier at
  /// an immutable, externally-owned code cache. Lookups consult it before
  /// the runtime-owned cache (which still serves online installs), so one
  /// compiled binary serves any number of fresh Runtimes without per-replay
  /// install work. The caller guarantees \p Code outlives this Runtime.
  void setSharedCode(const CodeCache *Code) { SharedCode = Code; }
  const CodeCache *sharedCode() const { return SharedCode; }

  void setObserver(ExecObserver *Obs) { Observer = Obs; }

  /// Arms hooks around the outermost call of \p Target (recursion does not
  /// re-fire). Used by the capture manager.
  void armRegionHook(dex::MethodId Target, RegionHooks Hooks) {
    HookTarget = Target;
    Hook = std::move(Hooks);
  }
  void disarmRegionHook() {
    HookTarget = dex::InvalidId;
    Hook = RegionHooks();
  }

  /// Environment for natives: scripted inputs, io log, nondeterminism.
  NativeContext &env() { return Env; }
  std::vector<int64_t> &ioLog() { return IoLog; }
  std::deque<int64_t> &inputQueue() { return Inputs; }
  /// Installs the nondeterminism source natives draw from.
  void setEnvironmentRng(Rng *R) { Env.EnvRng = R; }

  /// Lifetime accounting.
  uint64_t totalCycles() const { return TotalCycles; }
  uint64_t totalInsns() const { return TotalInsns; }

  /// Exclusive cycles per method id (only filled when AttributeCycles).
  /// Entries past the method table — [methods().size(),
  /// methods().size() + natives().size()) — attribute native (JNI) work.
  const std::vector<uint64_t> &methodCycles() const { return MethodCycles; }
  /// Per-method feature counts, same indexing as methodCycles() (only
  /// filled when AttributeCycles).
  const std::vector<MethodFeatureCounters> &methodFeatures() const {
    return MethodFeatures;
  }
  void resetProfile();

  /// Static field cell address.
  static uint64_t staticSlotAddr(dex::StaticFieldId Id) {
    return Layout::DataBase + 8 * Id;
  }

  /// Reads a static field directly (test/verification convenience).
  Value readStatic(dex::StaticFieldId Id);

private:
  // --- Shared execution plumbing -----------------------------------------
  // The per-instruction helpers are defined inline at the bottom of this
  // header: they sit on the interpreter/executor dispatch hot path and the
  // call through a separate TU cost roughly a third of replay throughput.
  void charge(uint64_t Cycles);
  void chargeMemRead(uint64_t Addr);
  void chargeMemWrite(uint64_t Addr);
  bool memLoad(uint64_t Addr, uint64_t &Out);
  bool memStore(uint64_t Addr, uint64_t ValueBits);
  bool consumeInsn();
  void safepoint();
  // Cold paths stay in Runtime.cpp.
  Value callNative(dex::NativeId Id, const std::vector<Value> &Args);
  Value invoke(dex::MethodId Method, const std::vector<Value> &Args);
  /// Feature counting (profiling only, no cycle charge): a conditional
  /// branch at \p Site that went \p Taken, and an allocation of \p Slots.
  /// The AttributeCycles early-out is inline (one predictable branch per
  /// dynamic branch instruction); the counting body stays in Runtime.cpp.
  void noteBranch(uint64_t Site, bool Taken) {
    if (Config.AttributeCycles && !AttributionStack.empty())
      noteBranchSlow(Site, Taken);
  }
  void noteAlloc(uint64_t Slots) {
    if (Config.AttributeCycles && !AttributionStack.empty())
      noteAllocSlow(Slots);
  }
  void noteBranchSlow(uint64_t Site, bool Taken);
  void noteAllocSlow(uint64_t Slots);

  // --- Interpreter (Interpreter.cpp) ---------------------------------------
  Value interpret(const dex::Method &M, const std::vector<Value> &Args);

  // --- Machine executor (Executor.cpp) -------------------------------------
  Value execMachine(const MachineFunction &Fn,
                    const std::vector<Value> &Args);

  friend class RuntimeTestPeer;

  os::AddressSpace &Space;
  const dex::DexFile &Dex;
  const NativeRegistry &Natives;
  RuntimeConfig Config;
  CycleCostModel Costs;
  Heap TheHeap;
  CodeCache Cache;
  const CodeCache *SharedCode = nullptr; ///< Session-shared, immutable.
  ExecMode Mode = ExecMode::Mixed;
  ExecObserver *Observer = nullptr;

  /// Resolved native implementations, indexed by NativeId.
  std::vector<const NativeImpl *> ResolvedNatives;

  NativeContext Env;
  std::vector<int64_t> IoLog;
  std::deque<int64_t> Inputs;

  CacheSim DCache;
  BranchPredictor Predictor;

  dex::MethodId HookTarget = dex::InvalidId;
  RegionHooks Hook;
  bool RegionActive = false;

  // Per-call execution state.
  TrapKind Trap = TrapKind::None;
  uint64_t CallCycles = 0;
  uint64_t CallInsns = 0;
  uint32_t Depth = 0;

  // Lifetime accounting.
  uint64_t TotalCycles = 0;
  uint64_t TotalInsns = 0;

  // Profiling.
  std::vector<uint64_t> MethodCycles;
  std::vector<MethodFeatureCounters> MethodFeatures;
  std::vector<dex::MethodId> AttributionStack;
  BranchPredictor FeaturePredictor; ///< Counting-only, never charges.
};

// --- Hot-path plumbing, inline ------------------------------------------

inline void Runtime::charge(uint64_t Cycles) {
  CallCycles += Cycles;
  TotalCycles += Cycles;
  if (Config.AttributeCycles && !AttributionStack.empty())
    MethodCycles[AttributionStack.back()] += Cycles;
}

inline void Runtime::chargeMemRead(uint64_t Addr) {
  uint64_t Cost = Costs.LoadCycles;
  bool Hit = DCache.access(Addr);
  if (!Hit)
    Cost += Costs.CacheMissPenalty;
  if (Config.AttributeCycles && !AttributionStack.empty()) {
    MethodFeatureCounters &F = MethodFeatures[AttributionStack.back()];
    ++F.MemReads;
    if (!Hit)
      ++F.CacheMisses;
  }
  charge(Cost);
}

inline void Runtime::chargeMemWrite(uint64_t Addr) {
  DCache.access(Addr); // stores install the line; latency is absorbed
  if (Config.AttributeCycles && !AttributionStack.empty())
    ++MethodFeatures[AttributionStack.back()].MemWrites;
  charge(Costs.StoreCycles);
}

inline bool Runtime::memLoad(uint64_t Addr, uint64_t &Out) {
  chargeMemRead(Addr);
  if (Space.loadU64(Addr, Out) == os::AccessResult::Ok)
    return true;
  Trap = TrapKind::MemoryFault;
  return false;
}

inline bool Runtime::memStore(uint64_t Addr, uint64_t ValueBits) {
  chargeMemWrite(Addr);
  if (Space.storeU64(Addr, ValueBits) == os::AccessResult::Ok) {
    if (Observer)
      Observer->onCellWrite(Addr);
    return true;
  }
  Trap = TrapKind::MemoryFault;
  return false;
}

inline bool Runtime::consumeInsn() {
  ++CallInsns;
  ++TotalInsns;
  if (Config.AttributeCycles && !AttributionStack.empty())
    ++MethodFeatures[AttributionStack.back()].Insns;
  if (CallInsns > Config.InsnBudget) {
    Trap = TrapKind::Timeout;
    return false;
  }
  return true;
}

inline void Runtime::safepoint() {
  charge(Costs.SafepointCycles);
  uint64_t GcCost = TheHeap.pollSafepoint(Costs.GcPauseCycles);
  if (GcCost > 0)
    charge(GcCost);
}

} // namespace vm
} // namespace ropt

#endif // ROPT_VM_RUNTIME_H

