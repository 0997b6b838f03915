//===- lir/LoopPasses.cpp - Loop restructuring passes -----------------------===//
//
// Loop-invariant code motion, rotation (while -> guarded do-while),
// unrolling and peeling of rotated self-loops, and the paper's custom
// GC-safepoint elision (Section 3.5). Unrolling + gc-elide is the
// combination the genetic search discovers for FFT where plain -O3 loses
// to the Android compiler.
//
//===----------------------------------------------------------------------===//

#include "lir/Analysis.h"
#include "lir/Passes.h"

#include "vm/MachineUtil.h"

#include <algorithm>
#include <cassert>

using namespace ropt;
using namespace ropt::lir;
using vm::MOpcode;

namespace {

/// A value substitution whose keys are the values one block defines (its
/// phi and instruction results), the only values loop restructuring
/// remaps. Every other value maps to itself. Dense: one slot per def.
class DefMap {
public:
  /// Slots for the values \p Block defines, phis first.
  class Index {
  public:
    Index(const LFunction &Fn, uint32_t Block)
        : SlotOf(Fn.NumValues, NoSlot) {
      auto Add = [this](ValueId V) {
        if (V >= SlotOf.size())
          SlotOf.resize(size_t(V) + 1, NoSlot);
        SlotOf[V] = static_cast<uint32_t>(Defs.size());
        Defs.push_back(V);
      };
      for (const LPhi &P : Fn.Blocks[Block].Phis)
        Add(P.Dst);
      for (const LInsn &I : Fn.Blocks[Block].Insns)
        if (I.Dst != NoValue)
          Add(I.Dst);
    }

    const std::vector<ValueId> &defs() const { return Defs; }
    uint32_t slot(ValueId V) const {
      return V < SlotOf.size() ? SlotOf[V] : NoSlot;
    }

  private:
    static constexpr uint32_t NoSlot = ~0u;
    friend class DefMap;
    std::vector<ValueId> Defs;
    std::vector<uint32_t> SlotOf;
  };

  /// The identity over \p Defs.
  explicit DefMap(const Index &Defs) : Defs(&Defs), To(Defs.Defs) {}

  ValueId operator()(ValueId V) const {
    uint32_t Slot = Defs->slot(V);
    return Slot == Index::NoSlot ? V : To[Slot];
  }
  /// Maps \p Def, a value the block defines, to \p V.
  void set(ValueId Def, ValueId V) { To[Defs->slot(Def)] = V; }
  void remapOperands(LInsn &I) const {
    forEachOperand(I, [this](ValueId &V) { V = (*this)(V); });
  }

private:
  const Index *Defs;
  std::vector<ValueId> To;
};

/// Rewrites every use through \p Map, except inside the \p Skip blocks
/// and in the phis of block \p SkipPhisOf: one sweep for all of a block's
/// values, which get fresh, distinct replacements.
void remapUsesOutside(LFunction &Fn, const DefMap &Map,
                      const std::vector<bool> &Skip, uint32_t SkipPhisOf) {
  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    if (Id < Skip.size() && Skip[Id])
      continue;
    LBlock &B = Fn.Blocks[Id];
    if (Id != SkipPhisOf)
      for (LPhi &P : B.Phis)
        for (ValueId &V : P.In)
          V = Map(V);
    for (LInsn &I : B.Insns)
      Map.remapOperands(I);
    B.Term.A = Map(B.Term.A);
    B.Term.B = Map(B.Term.B);
  }
}

/// Finds the unique outside predecessor of a loop header with a Goto
/// terminator; returns ~0u when the shape does not match.
uint32_t findPreheader(const LFunction &Fn, const Loop &L) {
  uint32_t Preheader = ~0u;
  for (uint32_t Pred : Fn.Blocks[L.Header].Preds) {
    if (L.contains(Pred))
      continue;
    if (Preheader != ~0u)
      return ~0u; // multiple entries
    Preheader = Pred;
  }
  if (Preheader == ~0u)
    return ~0u;
  if (Fn.Blocks[Preheader].Term.K != LTerminator::Kind::Goto)
    return ~0u;
  return Preheader;
}

} // namespace

// --- LICM -------------------------------------------------------------------------

bool lir::licm(LFunction &Fn, bool SpeculateDiv, FunctionAnalyses &Analyses) {
  bool Changed = false;
  const LoopInfo &LI = Analyses.loopInfo(Fn);
  std::vector<uint32_t> DefBlock = computeDefBlocks(Fn);

  for (const Loop &L : LI.loops()) {
    uint32_t Preheader = findPreheader(Fn, L);
    if (Preheader == ~0u)
      continue;

    // Loop side effects determine whether loads are hoistable.
    bool HasStoresOrCalls = false;
    for (uint32_t Id : L.Blocks)
      for (const LInsn &I : Fn.Blocks[Id].Insns)
        if (vm::isStoreOp(I.Op) || vm::isCallOp(I.Op))
          HasStoresOrCalls = true;

    std::vector<bool> Hoisted(Fn.NumValues, false);
    auto IsInvariant = [&](ValueId V) {
      if (V == NoValue)
        return true;
      if (V < Hoisted.size() && Hoisted[V])
        return true;
      uint32_t Def = V < DefBlock.size() ? DefBlock[V] : ~0u;
      return Def != ~0u && !L.contains(Def);
    };

    bool Fixpoint = false;
    while (!Fixpoint) {
      Fixpoint = true;
      for (uint32_t Id : L.Blocks) {
        LBlock &B = Fn.Blocks[Id];
        for (size_t Pos = 0; Pos < B.Insns.size(); ++Pos) {
          LInsn &I = B.Insns[Pos];
          bool Hoistable = vm::isPureOp(I.Op) ||
                           I.Op == MOpcode::MIntrinsic;
          // Loads are invariant when nothing in the loop writes memory.
          if (!HasStoresOrCalls && vm::isLoadOp(I.Op))
            Hoistable = true;
          // UNSOUND with SpeculateDiv: a hoisted division executes even
          // when the loop body would have been skipped or the divisor
          // guarded — a genuine new trap (DESIGN.md §4).
          if (SpeculateDiv &&
              (I.Op == MOpcode::MDivI || I.Op == MOpcode::MRemI))
            Hoistable = true;
          if (!Hoistable || I.Dst == NoValue)
            continue;
          bool OperandsInvariant = true;
          forEachOperand(I, [&](ValueId &V) {
            if (!IsInvariant(V))
              OperandsInvariant = false;
          });
          if (!OperandsInvariant)
            continue;
          Fn.Blocks[Preheader].Insns.push_back(I);
          if (I.Dst < Hoisted.size())
            Hoisted[I.Dst] = true;
          B.Insns.erase(B.Insns.begin() + Pos);
          --Pos;
          Changed = true;
          Fixpoint = false;
        }
      }
    }
  }
  return Changed;
}

// --- Loop rotation -----------------------------------------------------------------

bool lir::loopRotate(LFunction &Fn, FunctionAnalyses &Analyses) {
  bool Changed = false;
  // Rotating invalidates the analyses; handle one loop per outer round.
  for (int Round = 0; Round != 8; ++Round) {
    if (Changed)
      Analyses.invalidate();
    const LoopInfo &LI = Analyses.loopInfo(Fn);
    bool Rotated = false;

    for (const Loop &L : LI.loops()) {
      LBlock &H = Fn.Blocks[L.Header];
      // Shape: header with phis only + conditional exit test; one latch
      // ending in goto; one outside pred ending in goto.
      if (!H.Insns.empty() || H.Term.K != LTerminator::Kind::Cond)
        continue;
      if (L.Latches.size() != 1 || H.Preds.size() != 2)
        continue;
      uint32_t Latch = L.Latches[0];
      if (Fn.Blocks[Latch].Term.K != LTerminator::Kind::Goto)
        continue;
      uint32_t Preheader = findPreheader(Fn, L);
      if (Preheader == ~0u)
        continue;

      uint32_t Succ0 = H.Term.Taken, Succ1 = H.Term.Fall;
      bool TakenInLoop = L.contains(Succ0);
      uint32_t Body = TakenInLoop ? Succ0 : Succ1;
      uint32_t Exit = TakenInLoop ? Succ1 : Succ0;
      if (L.contains(Exit) || !L.contains(Body) || Body == L.Header)
        continue;
      // The body entry must be private to this loop path.
      if (Fn.Blocks[Body].Preds.size() != 1 || !Fn.Blocks[Body].Phis.empty())
        continue;
      if (Exit == Body || Exit == Preheader)
        continue;
      // The exit must be reachable only through the header: a second exit
      // edge from inside the loop would keep using the header's phis on a
      // path the rotated guard bypasses.
      if (Fn.Blocks[Exit].Preds.size() != 1)
        continue;

      size_t IdxP = H.Preds[0] == Preheader ? 0 : 1;
      size_t IdxL = 1 - IdxP;
      assert(H.Preds[IdxP] == Preheader && H.Preds[IdxL] == Latch &&
             "unexpected header predecessors");

      DefMap::Index HeaderDefs(Fn, L.Header);
      DefMap EntryMap(HeaderDefs), LatchMap(HeaderDefs);
      for (const LPhi &P : H.Phis) {
        EntryMap.set(P.Dst, P.In[IdxP]);
        LatchMap.set(P.Dst, P.In[IdxL]);
      }

      // Guard in the preheader: the header test over entry values.
      LTerminator Guard = H.Term;
      Guard.A = EntryMap(Guard.A);
      Guard.B = EntryMap(Guard.B);
      Fn.Blocks[Preheader].Term = Guard;

      // Bottom test in the latch: the header test over next-iter values.
      LTerminator Bottom = H.Term;
      Bottom.A = LatchMap(Bottom.A);
      Bottom.B = LatchMap(Bottom.B);
      // Taken/Fall targets keep the same orientation but the in-loop side
      // now re-enters at Body.
      if (TakenInLoop)
        Bottom.Taken = Body;
      else
        Bottom.Fall = Body;
      Fn.Blocks[Latch].Term = Bottom;

      // Move phis into the body entry (now the rotated loop header).
      LBlock &BB = Fn.Blocks[Body];
      BB.Preds = {Preheader, Latch};
      for (LPhi P : H.Phis) {
        LPhi NewP;
        NewP.Dst = P.Dst; // keep ids: in-loop uses stay valid
        NewP.In = {P.In[IdxP], P.In[IdxL]};
        BB.Phis.push_back(std::move(NewP));
      }

      // Exit block surgery: the H edge becomes edges from Preheader (guard
      // false) and Latch (bottom test false).
      LBlock &EB = Fn.Blocks[Exit];
      bool ExitWasSinglePred =
          EB.Preds.size() == 1 && EB.Preds[0] == L.Header;
      size_t IdxE = ~size_t(0);
      for (size_t N = 0; N != EB.Preds.size(); ++N)
        if (EB.Preds[N] == L.Header)
          IdxE = N;
      assert(IdxE != ~size_t(0) && "exit lost its header edge");
      EB.Preds[IdxE] = Preheader;
      EB.Preds.push_back(Latch);
      for (LPhi &P : EB.Phis) {
        ValueId FromH = P.In[IdxE];
        P.In[IdxE] = EntryMap(FromH);
        P.In.push_back(LatchMap(FromH));
      }

      // Direct uses of the old header phis outside the loop (only possible
      // when the exit had the header as its single predecessor) read an
      // exit phi instead; the phis just moved into Body keep the in-loop
      // uses. The exit block's own phis were already fixed above.
      if (ExitWasSinglePred) {
        DefMap ToExit(HeaderDefs);
        for (const LPhi &P : H.Phis) {
          LPhi ExitPhi;
          ExitPhi.Dst = Fn.newValue();
          ExitPhi.In = {EntryMap(P.Dst), LatchMap(P.Dst)};
          ToExit.set(P.Dst, ExitPhi.Dst);
          EB.Phis.push_back(std::move(ExitPhi));
        }
        std::vector<bool> LoopBlocks(Fn.Blocks.size(), false);
        for (uint32_t Id : L.Blocks)
          LoopBlocks[Id] = true;
        remapUsesOutside(Fn, ToExit, LoopBlocks, Exit);
      }

      // The old header is gone.
      H.Phis.clear();
      H.Preds.clear();
      H.Term = LTerminator();
      H.Term.K = LTerminator::Kind::RetVoid;

      Changed = true;
      Rotated = true;
      break; // analyses are stale
    }
    if (!Rotated)
      break;
  }
  if (Changed)
    simplifyCfg(Fn);
  return Changed;
}

// --- Self-loop replication (shared by unroll and peel) --------------------------------

namespace {

/// A rotated self-loop: block B with a conditional terminator where one
/// successor is B itself.
struct SelfLoop {
  uint32_t Block;
  uint32_t Exit;
  bool TakenIsSelf;
  size_t SelfPredSlot;    ///< Index of B in B.Preds.
  size_t OutsidePredSlot; ///< Index of the entry pred in B.Preds.
};

bool matchSelfLoop(const LFunction &Fn, uint32_t Id, SelfLoop &Out) {
  const LBlock &B = Fn.Blocks[Id];
  if (B.Term.K != LTerminator::Kind::Cond)
    return false;
  bool TakenIsSelf = B.Term.Taken == Id;
  bool FallIsSelf = B.Term.Fall == Id;
  if (TakenIsSelf == FallIsSelf)
    return false; // not a self-loop (or a degenerate both-self)
  if (B.Preds.size() != 2)
    return false;
  size_t SelfSlot = B.Preds[0] == Id ? 0 : (B.Preds[1] == Id ? 1 : ~0u);
  if (SelfSlot == ~0u)
    return false;
  Out.Block = Id;
  Out.Exit = TakenIsSelf ? B.Term.Fall : B.Term.Taken;
  Out.TakenIsSelf = TakenIsSelf;
  Out.SelfPredSlot = SelfSlot;
  Out.OutsidePredSlot = 1 - SelfSlot;
  if (Out.Exit == Id)
    return false;
  return true;
}

/// Clones the body of self-loop block \p B applying \p Map to operands and
/// registering fresh destinations in \p Map. Returns the new block id. The
/// terminator is cloned with substituted operands; successors are left for
/// the caller to set.
uint32_t cloneBody(LFunction &Fn, uint32_t B, DefMap &Map) {
  uint32_t NewId = static_cast<uint32_t>(Fn.Blocks.size());
  Fn.Blocks.emplace_back();
  // Note: Fn.Blocks may have reallocated; index afresh.
  for (const LInsn &Orig : Fn.Blocks[B].Insns) {
    LInsn Clone = Orig;
    Map.remapOperands(Clone);
    if (Clone.Dst != NoValue) {
      ValueId Fresh = Fn.newValue();
      Map.set(Orig.Dst, Fresh);
      Clone.Dst = Fresh;
    }
    Fn.Blocks[NewId].Insns.push_back(std::move(Clone));
  }
  LTerminator Term = Fn.Blocks[B].Term;
  Term.A = Map(Term.A);
  Term.B = Map(Term.B);
  Fn.Blocks[NewId].Term = Term;
  return NewId;
}

} // namespace

bool lir::loopUnroll(LFunction &Fn, int Factor, bool AssumeDivisible,
                     FunctionAnalyses &Analyses) {
  if (Factor < 2)
    return false;
  bool Changed = false;

  // The aggressive mode "helpfully" rotates first so more loops qualify —
  // and then miscompiles them (see below).
  if (AssumeDivisible)
    Changed = loopRotate(Fn, Analyses);

  size_t OriginalBlocks = Fn.Blocks.size();
  for (uint32_t Id = 0; Id != OriginalBlocks; ++Id) {
    SelfLoop SL;
    if (!matchSelfLoop(Fn, Id, SL))
      continue;
    uint32_t B = SL.Block, E = SL.Exit;
    bool ExitWasSinglePred = Fn.Blocks[E].Preds.size() == 1;

    // Per-replica substitution maps; replica 1 is the original block.
    // Map_j sends original values to replica-j values.
    DefMap::Index Defs(Fn, B);
    DefMap PrevMap(Defs); // identity for replica 1
    std::vector<DefMap> Maps; // for replicas 2..k
    std::vector<uint32_t> Clones;

    for (int J = 2; J <= Factor; ++J) {
      // Seed: each phi value continues from the previous replica's image
      // of its latch input.
      DefMap Map(Defs);
      for (const LPhi &P : Fn.Blocks[B].Phis)
        Map.set(P.Dst, PrevMap(P.In[SL.SelfPredSlot]));
      uint32_t Clone = cloneBody(Fn, B, Map);
      Clones.push_back(Clone);
      Maps.push_back(Map);
      PrevMap = Map;
    }

    // Chain: B -> C2 -> C3 -> ... -> Ck -> B, exits to E everywhere.
    auto SetSuccs = [&](uint32_t Block, uint32_t Continue) {
      LTerminator &T = Fn.Blocks[Block].Term;
      if (SL.TakenIsSelf) {
        T.Taken = Continue;
        T.Fall = E;
      } else {
        T.Fall = Continue;
        T.Taken = E;
      }
    };
    SetSuccs(B, Clones.front());
    for (size_t N = 0; N != Clones.size(); ++N)
      SetSuccs(Clones[N], N + 1 < Clones.size() ? Clones[N + 1] : B);

    // Locate B's pred slot in the exit block before any edges are
    // rewritten; both branches below key off it.
    LBlock &EB = Fn.Blocks[E];
    size_t IdxE = ~size_t(0);
    for (size_t N = 0; N != EB.Preds.size(); ++N)
      if (EB.Preds[N] == B)
        IdxE = N;
    assert(IdxE != ~size_t(0) && "exit lost its loop edge");

    if (AssumeDivisible) {
      // UNSOUND (DESIGN.md §4): only the final replica keeps its exit
      // test. When the trip count is not a multiple of the factor, the
      // overshoot iterations run with out-of-range state — genuine
      // memory corruption or wild traps, like a real remainder bug.
      auto DropExit = [&](uint32_t Block, uint32_t Continue) {
        LTerminator &T = Fn.Blocks[Block].Term;
        T = LTerminator();
        T.K = LTerminator::Kind::Goto;
        T.Taken = Continue;
      };
      DropExit(B, Clones.front());
      for (size_t N = 0; N + 1 < Clones.size(); ++N)
        DropExit(Clones[N], Clones[N + 1]);
      // The exit edge now leaves from the last replica only: retarget
      // B's old pred slot in place (keeping Preds and phi inputs
      // aligned) instead of erasing and re-adding slots.
      EB.Preds[IdxE] = Clones.back();
      for (LPhi &P : EB.Phis)
        P.In[IdxE] = Maps.back()(P.In[IdxE]);
    } else {
      // Every replica keeps its exit test: one new pred slot per clone.
      for (size_t N = 0; N != Clones.size(); ++N) {
        EB.Preds.push_back(Clones[N]);
        for (LPhi &P : EB.Phis)
          P.In.push_back(Maps[N](P.In[IdxE]));
      }
    }

    // Clone pred lists: linear chain.
    Fn.Blocks[Clones[0]].Preds = {B};
    for (size_t N = 1; N != Clones.size(); ++N)
      Fn.Blocks[Clones[N]].Preds = {Clones[N - 1]};

    // B's self edge now comes from the last clone; remap the phi inputs
    // through the final map.
    uint32_t LastClone = Clones.back();
    Fn.Blocks[B].Preds[SL.SelfPredSlot] = LastClone;
    for (LPhi &P : Fn.Blocks[B].Phis)
      P.In[SL.SelfPredSlot] = Maps.back()(P.In[SL.SelfPredSlot]);

    // Values defined in B and used beyond the loop need merge phis in E
    // (only possible when E's one pred was B).
    if (ExitWasSinglePred) {
      DefMap ToExit(Defs);
      for (ValueId V : Defs.defs()) {
        LPhi ExitPhi;
        ExitPhi.Dst = Fn.newValue();
        if (AssumeDivisible) {
          // Only the last replica reaches E: one input.
          ExitPhi.In.push_back(Maps.back()(V));
        } else {
          ExitPhi.In.push_back(V); // from B
          for (const DefMap &Map : Maps)
            ExitPhi.In.push_back(Map(V));
        }
        ToExit.set(V, ExitPhi.Dst);
        EB.Phis.push_back(std::move(ExitPhi));
      }
      std::vector<bool> Skip(Fn.Blocks.size(), false);
      Skip[B] = true;
      for (uint32_t C : Clones)
        Skip[C] = true;
      remapUsesOutside(Fn, ToExit, Skip, E);
      // Dead exit phis are cheap; dce cleans them.
    }
    Changed = true;
  }
  return Changed;
}

bool lir::loopPeel(LFunction &Fn, int Count) {
  if (Count < 1)
    return false;
  bool Changed = false;

  size_t OriginalBlocks = Fn.Blocks.size();
  for (uint32_t Id = 0; Id != OriginalBlocks; ++Id) {
    SelfLoop SL;
    if (!matchSelfLoop(Fn, Id, SL))
      continue;
    uint32_t B = SL.Block, E = SL.Exit;
    uint32_t EntryPred = Fn.Blocks[B].Preds[SL.OutsidePredSlot];
    // The peeled chain hangs off a goto edge.
    if (Fn.Blocks[EntryPred].Term.K != LTerminator::Kind::Goto)
      continue;
    bool ExitWasSinglePred = Fn.Blocks[E].Preds.size() == 1;

    // Map_1: phi values take their entry inputs.
    DefMap::Index Defs(Fn, B);
    DefMap Map(Defs);
    for (const LPhi &P : Fn.Blocks[B].Phis)
      Map.set(P.Dst, P.In[SL.OutsidePredSlot]);

    std::vector<uint32_t> Peels;
    std::vector<DefMap> Maps;
    for (int J = 0; J != Count; ++J) {
      if (J != 0) {
        DefMap Next(Defs);
        for (const LPhi &P : Fn.Blocks[B].Phis)
          Next.set(P.Dst, Map(P.In[SL.SelfPredSlot]));
        Map = Next;
      }
      uint32_t Clone = cloneBody(Fn, B, Map);
      Peels.push_back(Clone);
      Maps.push_back(Map);
    }

    // Wire: EntryPred -> P1 -> P2 ... -> Pc -> B; exits to E.
    Fn.Blocks[EntryPred].Term.Taken = Peels.front();
    Fn.Blocks[Peels[0]].Preds = {EntryPred};
    for (size_t N = 0; N != Peels.size(); ++N) {
      LTerminator &T = Fn.Blocks[Peels[N]].Term;
      uint32_t Continue = N + 1 < Peels.size() ? Peels[N + 1] : B;
      if (SL.TakenIsSelf) {
        T.Taken = Continue;
        T.Fall = E;
      } else {
        T.Fall = Continue;
        T.Taken = E;
      }
      if (N + 1 < Peels.size())
        Fn.Blocks[Peels[N + 1]].Preds = {Peels[N]};
    }

    // B's entry edge now comes from the last peel, carrying its values.
    Fn.Blocks[B].Preds[SL.OutsidePredSlot] = Peels.back();
    for (LPhi &P : Fn.Blocks[B].Phis)
      P.In[SL.OutsidePredSlot] = Maps.back()(P.In[SL.SelfPredSlot]);

    // Exit gains one pred per peel iteration.
    LBlock &EB = Fn.Blocks[E];
    size_t IdxE = ~size_t(0);
    for (size_t N = 0; N != EB.Preds.size(); ++N)
      if (EB.Preds[N] == B)
        IdxE = N;
    assert(IdxE != ~size_t(0) && "exit lost its loop edge");
    for (size_t N = 0; N != Peels.size(); ++N) {
      EB.Preds.push_back(Peels[N]);
      for (LPhi &P : EB.Phis)
        P.In.push_back(Maps[N](P.In[IdxE]));
    }

    if (ExitWasSinglePred) {
      DefMap ToExit(Defs);
      for (ValueId V : Defs.defs()) {
        LPhi ExitPhi;
        ExitPhi.Dst = Fn.newValue();
        ExitPhi.In.push_back(V);
        for (const DefMap &M : Maps)
          ExitPhi.In.push_back(M(V));
        ToExit.set(V, ExitPhi.Dst);
        EB.Phis.push_back(std::move(ExitPhi));
      }
      std::vector<bool> Skip(Fn.Blocks.size(), false);
      Skip[B] = true;
      for (uint32_t C : Peels)
        Skip[C] = true;
      remapUsesOutside(Fn, ToExit, Skip, E);
    }
    Changed = true;
  }
  return Changed;
}

// --- GC-safepoint elision ----------------------------------------------------------------

bool lir::gcElide(LFunction &Fn, bool StripLoops,
                  FunctionAnalyses &Analyses) {
  bool Changed = false;
  const LoopInfo &LI = Analyses.loopInfo(Fn);

  std::vector<bool> Headers(Fn.Blocks.size(), false);
  std::vector<bool> InLoop(Fn.Blocks.size(), false);
  for (const Loop &L : LI.loops()) {
    Headers[L.Header] = true;
    for (uint32_t Id : L.Blocks)
      InLoop[Id] = true;
  }

  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    LBlock &B = Fn.Blocks[Id];
    bool KeepOne = !InLoop[Id] || (Headers[Id] && !StripLoops);
    bool KeptFirst = false;
    for (LInsn &I : B.Insns) {
      if (I.Op != MOpcode::MSafepoint)
        continue;
      if (KeepOne && !KeptFirst) {
        KeptFirst = true;
        continue;
      }
      I = LInsn(); // nop
    }
    // Nops left by earlier passes go too, and that is a change.
    size_t Before = B.Insns.size();
    B.Insns.erase(std::remove_if(B.Insns.begin(), B.Insns.end(),
                                 [](const LInsn &I) {
                                   return I.Op == MOpcode::MNop;
                                 }),
                  B.Insns.end());
    Changed |= B.Insns.size() != Before;
  }
  return Changed;
}
