//===- lir/Passes.h - The LLVM-like optimization space ----------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transformation space the genetic search explores (Section 3.6):
/// passes, integer parameters, and aggressive flags. Some aggressive modes
/// are *deliberately unsound* — they model the real-compiler bugs Figure 1
/// quantifies (see DESIGN.md §4). Safe defaults never miscompile.
///
/// Pass identities, parameter ranges, and flag meanings are described by
/// the registry so the search layer can enumerate and mutate them without
/// knowing pass internals.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_LIR_PASSES_H
#define ROPT_LIR_PASSES_H

#include "lir/Analysis.h"
#include "lir/TypeProfile.h"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ropt {
namespace lir {

enum class PassId : uint8_t {
  SimplifyCfg,    ///< Merge/thread trivial blocks, drop dead phis.
  ConstProp,      ///< Global constant folding incl. branch folding.
  InstCombine,    ///< Algebraic simplification on SSA.
  Gvn,            ///< Dominator-scoped global value numbering.
  Dce,            ///< SSA dead code elimination. Aggressive: drops dead
                  ///< loads and allocations too.
  Licm,           ///< Loop-invariant code motion. Aggressive: speculates
                  ///< division out of loops (UNSOUND: may trap on a
                  ///< zero-trip or guarded-divisor loop).
  Reassociate,    ///< Integer reassociation. Aggressive ("fastmath"):
                  ///< reassociates FP too (UNSOUND: changes rounding).
  LoopRotate,     ///< While-loop -> guarded do-while.
  LoopUnroll,     ///< Unroll rotated self-loops by IntParam. Aggressive:
                  ///< assumes the trip count is divisible by the factor
                  ///< and drops the intermediate exit tests (UNSOUND: the
                  ///< classic remainder-handling bug — overshoot
                  ///< iterations run with out-of-range indices).
  LoopPeel,       ///< Peel IntParam first iterations of self-loops.
  GcElide,        ///< The paper's custom pass: one safepoint per loop
                  ///< iteration. Aggressive: strips loop safepoints
                  ///< entirely (UNSOUND: GC starvation in alloc loops).
  JniIntrinsics,  ///< The paper's custom pass: JNI math -> intrinsics.
  Devirtualize,   ///< Profile-guided speculative devirtualization;
                  ///< IntParam = min dominant-receiver percent.
  Inline,         ///< Inline static calls up to IntParam instructions.
  JumpThreading,  ///< Forward through empty blocks. Aggressive: also
                  ///< threads phi-bearing blocks with a phi-update bug
                  ///< (UNSOUND: produces verifier-rejected IR).
  BoundsCheckElim,///< Dominance/const-based check removal. Aggressive:
                  ///< trusts a naive induction analysis that ignores
                  ///< multiplicative index updates (UNSOUND: genuine
                  ///< out-of-bounds accesses).
  Sink,           ///< Sink single-successor-used pure code.
  PassIdCount,
};

/// One pass application in a pipeline.
struct PassInstance {
  PassId Id = PassId::SimplifyCfg;
  int IntParam = 0;
  bool Aggressive = false;
};

/// Search-facing pass metadata.
struct PassDescriptor {
  PassId Id;
  const char *Name;
  bool HasIntParam;
  int MinInt;
  int MaxInt;
  int DefaultInt;
  bool HasAggressive;
};

/// All passes, indexed by PassId.
const std::vector<PassDescriptor> &passRegistry();

/// Descriptor lookup.
const PassDescriptor &passDescriptor(PassId Id);

/// Parses "name", "name=K", "name!aggr" forms (debug/test convenience).
bool parsePassInstance(const std::string &Spec, PassInstance &Out);

/// Renders "name=K!" form.
std::string passInstanceName(const PassInstance &P);

/// The front end's SSA (bytecode -> HGraph -> SSA, default
/// TranslateOptions) of the methods the inliner splices in, built once
/// per method and kept for the provider's lifetime. Thread-safe: the
/// compile memo shares one between its workers.
class CalleeSsa {
public:
  explicit CalleeSsa(const dex::DexFile &File) : File(File) {}
  CalleeSsa(const CalleeSsa &) = delete;
  CalleeSsa &operator=(const CalleeSsa &) = delete;

  /// The SSA of \p Method, which must be compilable.
  const LFunction &get(dex::MethodId Method);
  const dex::DexFile &file() const { return File; }

private:
  const dex::DexFile &File;
  std::mutex Mutex;
  std::unordered_map<dex::MethodId, std::unique_ptr<const LFunction>> Built;
};

/// External context passes may consult.
struct PassContext {
  const dex::DexFile *File = nullptr;
  const TypeProfile *Profile = nullptr;
  /// Callee SSA for inline; runPipeline makes one for its run when null.
  CalleeSsa *Callees = nullptr;
};

/// Applies one pass. Returns true if the function changed, and false only
/// when it is byte-for-byte unchanged (the compile memo records such a
/// pass as a self-transition). \p Analyses must hold \p Fn's analyses or
/// none; they are dropped when the pass changed \p Fn. The result may be
/// *invalid IR* when an unsound mode fires — callers must verify() before
/// code generation (that is the "compiler crash" outcome).
bool applyPass(LFunction &Fn, const PassInstance &Pass,
               const PassContext &Ctx, FunctionAnalyses &Analyses);

/// Runs a pipeline in order; stops early (returning false) if the function
/// exceeds \p SizeBudget instructions (the "compiler timeout" outcome).
bool runPipeline(LFunction &Fn, const std::vector<PassInstance> &Pipeline,
                 const PassContext &Ctx, size_t SizeBudget = 50000);

// Individual passes (exposed for unit tests).
bool simplifyCfg(LFunction &Fn);
bool constProp(LFunction &Fn);
bool instCombine(LFunction &Fn);
bool gvn(LFunction &Fn, FunctionAnalyses &Analyses);
bool dce(LFunction &Fn, bool Aggressive);
bool licm(LFunction &Fn, bool SpeculateDiv, FunctionAnalyses &Analyses);
bool reassociate(LFunction &Fn, bool FastMath);
bool loopRotate(LFunction &Fn, FunctionAnalyses &Analyses);
bool loopUnroll(LFunction &Fn, int Factor, bool AssumeDivisible,
                FunctionAnalyses &Analyses);
bool loopPeel(LFunction &Fn, int Count);
bool gcElide(LFunction &Fn, bool StripLoops, FunctionAnalyses &Analyses);
bool jniIntrinsics(LFunction &Fn, const dex::DexFile &File);
bool devirtualize(LFunction &Fn, const dex::DexFile &File,
                  const TypeProfile &Profile, int MinPercent);
bool inlineCalls(LFunction &Fn, CalleeSsa &Callees, int Threshold);
bool jumpThreading(LFunction &Fn, bool Aggressive);
bool boundsCheckElim(LFunction &Fn, bool Aggressive,
                     FunctionAnalyses &Analyses);
bool sinkCode(LFunction &Fn);

} // namespace lir
} // namespace ropt

#endif // ROPT_LIR_PASSES_H
