//===- lir/InlineDevirt.cpp - Inlining and speculative devirtualization -----===//
//
// Inlining splices a callee's SSA body into the caller; speculative
// devirtualization (Section 3.4) turns profile-monomorphic virtual calls
// into a class guard plus a direct call, with the original dispatch on the
// slow path. The two compose: devirtualized direct calls become inline
// candidates, which is how the paper's backend "aggressively inlines"
// virtual call sites.
//
//===----------------------------------------------------------------------===//

#include "hgraph/Build.h"
#include "lir/Analysis.h"
#include "lir/FromHGraph.h"
#include "lir/Passes.h"

#include <cassert>

using namespace ropt;
using namespace ropt::lir;
using vm::MOpcode;

namespace {

/// Remaps every value in \p Fn-appended callee blocks through \p ValueMap.
ValueId mapped(const std::vector<ValueId> &ValueMap, ValueId V) {
  return V == NoValue ? NoValue : ValueMap[V];
}

/// Splices \p Callee into \p Fn, replacing the call at \p Block/\p InsnIdx.
/// Returns false (without mutating) when the callee shape is unsupported.
bool spliceCallee(LFunction &Fn, uint32_t Block, size_t InsnIdx,
                  const LFunction &Callee) {
  const LInsn Call = Fn.Blocks[Block].Insns[InsnIdx];
  assert(Call.Op == MOpcode::MCallStatic && "can only inline direct calls");

  // Collect the callee's return blocks first; a never-returning callee
  // whose result is used cannot be expressed after splicing.
  std::vector<uint32_t> RetBlocks;
  for (uint32_t Id = 0; Id != Callee.Blocks.size(); ++Id) {
    LTerminator::Kind K = Callee.Blocks[Id].Term.K;
    if (K == LTerminator::Kind::Ret || K == LTerminator::Kind::RetVoid)
      RetBlocks.push_back(Id);
  }
  if (RetBlocks.empty())
    return false;

  uint32_t BlockOffset = static_cast<uint32_t>(Fn.Blocks.size());

  // Value remapping: parameters take the call arguments.
  std::vector<ValueId> ValueMap(Callee.NumValues, NoValue);
  assert(Call.Args.size() == Callee.ParamCount && "call arity mismatch");
  for (uint32_t P = 0; P != Callee.ParamCount; ++P)
    ValueMap[P] = Call.Args[P];
  for (ValueId V = Callee.ParamCount; V != Callee.NumValues; ++V)
    ValueMap[V] = Fn.newValue();

  // Copy callee blocks, remapped.
  for (const LBlock &CB : Callee.Blocks) {
    LBlock NB;
    for (const LPhi &P : CB.Phis) {
      LPhi NP;
      NP.Dst = mapped(ValueMap, P.Dst);
      for (ValueId In : P.In)
        NP.In.push_back(mapped(ValueMap, In));
      NB.Phis.push_back(std::move(NP));
    }
    for (LInsn I : CB.Insns) {
      I.Dst = mapped(ValueMap, I.Dst);
      forEachOperand(I, [&ValueMap](ValueId &V) { V = ValueMap[V]; });
      NB.Insns.push_back(std::move(I));
    }
    NB.Term = CB.Term;
    NB.Term.A = mapped(ValueMap, NB.Term.A);
    NB.Term.B = mapped(ValueMap, NB.Term.B);
    NB.Term.Taken += BlockOffset;
    NB.Term.Fall += BlockOffset;
    NB.Preds = CB.Preds;
    for (uint32_t &Pred : NB.Preds)
      Pred += BlockOffset;
    Fn.Blocks.push_back(std::move(NB));
  }

  // Continuation block Y: everything after the call.
  uint32_t Y = static_cast<uint32_t>(Fn.Blocks.size());
  Fn.Blocks.emplace_back();
  {
    LBlock &XB = Fn.Blocks[Block];
    LBlock &YB = Fn.Blocks[Y];
    YB.Insns.assign(XB.Insns.begin() + InsnIdx + 1, XB.Insns.end());
    YB.Term = XB.Term;
    XB.Insns.resize(InsnIdx);
    XB.Term = LTerminator();
    XB.Term.K = LTerminator::Kind::Goto;
    XB.Term.Taken = BlockOffset; // callee entry
  }
  // Successors of the old terminator now see Y as their predecessor.
  for (uint32_t Succ : Fn.Blocks[Y].Term.successors())
    for (uint32_t &Pred : Fn.Blocks[Succ].Preds)
      if (Pred == Block)
        Pred = Y;

  Fn.Blocks[BlockOffset].Preds = {Block};

  // Return blocks feed the continuation.
  std::vector<ValueId> RetValues;
  for (uint32_t Ret : RetBlocks) {
    LBlock &RB = Fn.Blocks[BlockOffset + Ret];
    if (RB.Term.K == LTerminator::Kind::Ret)
      RetValues.push_back(RB.Term.A);
    else
      RetValues.push_back(NoValue);
    RB.Term = LTerminator();
    RB.Term.K = LTerminator::Kind::Goto;
    RB.Term.Taken = Y;
    Fn.Blocks[Y].Preds.push_back(BlockOffset + Ret);
  }

  // The call result becomes a phi over the returned values.
  if (Call.Dst != NoValue) {
    LPhi P;
    P.Dst = Call.Dst;
    P.In = RetValues;
    Fn.Blocks[Y].Phis.push_back(std::move(P));
  }
  return true;
}

} // namespace

const LFunction &CalleeSsa::get(dex::MethodId Method) {
  std::lock_guard<std::mutex> L(Mutex);
  std::unique_ptr<const LFunction> &Slot = Built[Method];
  if (!Slot)
    Slot = std::make_unique<const LFunction>(
        fromHGraph(hgraph::buildHGraph(File, Method)));
  return *Slot;
}

bool lir::inlineCalls(LFunction &Fn, CalleeSsa &Callees, int Threshold) {
  const dex::DexFile &File = Callees.file();
  bool Changed = false;
  int InlinesLeft = 40; // hard cap against pathological growth

  bool FoundOne = true;
  while (FoundOne && InlinesLeft > 0) {
    FoundOne = false;
    for (uint32_t Id = 0; Id != Fn.Blocks.size() && !FoundOne; ++Id) {
      LBlock &B = Fn.Blocks[Id];
      for (size_t Pos = 0; Pos != B.Insns.size(); ++Pos) {
        const LInsn &I = B.Insns[Pos];
        if (I.Op != MOpcode::MCallStatic)
          continue;
        const dex::Method &Callee = File.method(I.Idx);
        if (Callee.IsNative || Callee.isUncompilable() ||
            Callee.Id == Fn.Method)
          continue;
        const LFunction &CalleeFn = Callees.get(I.Idx);
        if (CalleeFn.instructionCount() > static_cast<size_t>(Threshold))
          continue;
        if (!spliceCallee(Fn, Id, Pos, CalleeFn))
          continue;
        Changed = true;
        FoundOne = true;
        --InlinesLeft;
        break;
      }
    }
  }
  if (Changed)
    simplifyCfg(Fn);
  return Changed;
}

bool lir::devirtualize(LFunction &Fn, const dex::DexFile &File,
                       const TypeProfile &Profile, int MinPercent) {
  bool Changed = false;
  double MinFraction = static_cast<double>(MinPercent) / 100.0;

  size_t OriginalBlocks = Fn.Blocks.size();
  for (uint32_t Id = 0; Id != OriginalBlocks; ++Id) {
    for (size_t Pos = 0; Pos != Fn.Blocks[Id].Insns.size(); ++Pos) {
      const LInsn Call = Fn.Blocks[Id].Insns[Pos];
      if (Call.Op != MOpcode::MCallVirtual ||
          Call.SiteMethod == dex::InvalidId)
        continue;
      dex::ClassId Speculated = dex::InvalidId;
      if (!Profile.dominantType(Call.SiteMethod, Call.Site, MinFraction,
                                Speculated))
        continue;
      dex::MethodId Target = File.resolveVirtual(Speculated, Call.Idx);

      // Build the diamond: X ends in a class guard; F holds the direct
      // call, S the original dispatch, M merges and continues.
      uint32_t F = static_cast<uint32_t>(Fn.Blocks.size());
      Fn.Blocks.emplace_back();
      uint32_t S = static_cast<uint32_t>(Fn.Blocks.size());
      Fn.Blocks.emplace_back();
      uint32_t M = static_cast<uint32_t>(Fn.Blocks.size());
      Fn.Blocks.emplace_back();

      bool HasResult = Call.Dst != NoValue;
      ValueId FastVal = HasResult ? Fn.newValue() : NoValue;
      ValueId SlowVal = HasResult ? Fn.newValue() : NoValue;

      {
        LInsn Fast = Call;
        Fast.Op = MOpcode::MCallStatic;
        Fast.Idx = Target;
        Fast.Dst = FastVal;
        LBlock &FB = Fn.Blocks[F];
        FB.Insns.push_back(std::move(Fast));
        FB.Term.K = LTerminator::Kind::Goto;
        FB.Term.Taken = M;
        FB.Preds = {Id};
      }
      {
        LInsn Slow = Call;
        Slow.Dst = SlowVal;
        LBlock &SB = Fn.Blocks[S];
        SB.Insns.push_back(std::move(Slow));
        SB.Term.K = LTerminator::Kind::Goto;
        SB.Term.Taken = M;
        SB.Preds = {Id};
      }
      {
        LBlock &XB = Fn.Blocks[Id];
        LBlock &MB = Fn.Blocks[M];
        MB.Insns.assign(XB.Insns.begin() + Pos + 1, XB.Insns.end());
        MB.Term = XB.Term;
        MB.Preds = {F, S};
        if (HasResult) {
          LPhi P;
          P.Dst = Call.Dst;
          P.In = {FastVal, SlowVal};
          MB.Phis.push_back(std::move(P));
        }
        XB.Insns.resize(Pos);
        XB.Term = LTerminator();
        XB.Term.K = LTerminator::Kind::Guard;
        XB.Term.A = Call.Args.at(0);
        XB.Term.GuardClass = Speculated;
        XB.Term.Taken = S; // guard failure -> slow path
        XB.Term.Fall = F;
      }
      for (uint32_t Succ : Fn.Blocks[M].Term.successors())
        for (uint32_t &Pred : Fn.Blocks[Succ].Preds)
          if (Pred == Id)
            Pred = M;

      Changed = true;
      break; // remaining insns of this block moved to M
    }
  }
  return Changed;
}
