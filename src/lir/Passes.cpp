//===- lir/Passes.cpp - Scalar passes and the pass registry ----------------===//

#include "lir/Passes.h"

#include "lir/Analysis.h"
#include "support/Format.h"
#include "vm/MachineUtil.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <set>

using namespace ropt;
using namespace ropt::lir;
using vm::MOpcode;

// --- Registry ----------------------------------------------------------------

const std::vector<PassDescriptor> &lir::passRegistry() {
  static const std::vector<PassDescriptor> Registry = {
      {PassId::SimplifyCfg, "simplifycfg", false, 0, 0, 0, false},
      {PassId::ConstProp, "constprop", false, 0, 0, 0, false},
      {PassId::InstCombine, "instcombine", false, 0, 0, 0, false},
      {PassId::Gvn, "gvn", false, 0, 0, 0, false},
      {PassId::Dce, "dce", false, 0, 0, 0, true},
      {PassId::Licm, "licm", false, 0, 0, 0, true},
      {PassId::Reassociate, "reassociate", false, 0, 0, 0, true},
      {PassId::LoopRotate, "loop-rotate", false, 0, 0, 0, false},
      {PassId::LoopUnroll, "loop-unroll", true, 2, 64, 4, true},
      {PassId::LoopPeel, "loop-peel", true, 1, 8, 1, false},
      {PassId::GcElide, "gc-elide", false, 0, 0, 0, true},
      {PassId::JniIntrinsics, "jni-intrinsics", false, 0, 0, 0, false},
      {PassId::Devirtualize, "devirtualize", true, 50, 100, 90, false},
      {PassId::Inline, "inline", true, 8, 400, 60, false},
      {PassId::JumpThreading, "jump-threading", false, 0, 0, 0, true},
      {PassId::BoundsCheckElim, "boundscheck-elim", false, 0, 0, 0, true},
      {PassId::Sink, "sink", false, 0, 0, 0, false},
  };
  return Registry;
}

const PassDescriptor &lir::passDescriptor(PassId Id) {
  const auto &Registry = passRegistry();
  assert(static_cast<size_t>(Id) < Registry.size());
  assert(Registry[static_cast<size_t>(Id)].Id == Id &&
         "registry out of order");
  return Registry[static_cast<size_t>(Id)];
}

bool lir::parsePassInstance(const std::string &Spec, PassInstance &Out) {
  std::string Name = Spec;
  Out = PassInstance();
  if (!Name.empty() && Name.back() == '!') {
    Out.Aggressive = true;
    Name.pop_back();
  }
  size_t Eq = Name.find('=');
  if (Eq != std::string::npos) {
    Out.IntParam = std::atoi(Name.c_str() + Eq + 1);
    Name = Name.substr(0, Eq);
  }
  for (const PassDescriptor &D : passRegistry()) {
    if (Name == D.Name) {
      Out.Id = D.Id;
      if (Eq == std::string::npos)
        Out.IntParam = D.DefaultInt;
      return true;
    }
  }
  return false;
}

std::string lir::passInstanceName(const PassInstance &P) {
  const PassDescriptor &D = passDescriptor(P.Id);
  std::string Out = D.Name;
  if (D.HasIntParam)
    Out += format("=%d", P.IntParam);
  if (P.Aggressive)
    Out += "!";
  return Out;
}

// --- Shared utilities -----------------------------------------------------------

void lir::replaceAllUses(LFunction &Fn, ValueId Old, ValueId New) {
  for (LBlock &B : Fn.Blocks) {
    for (LPhi &P : B.Phis)
      for (ValueId &V : P.In)
        if (V == Old)
          V = New;
    for (LInsn &I : B.Insns)
      forEachOperand(I, [Old, New](ValueId &V) {
        if (V == Old)
          V = New;
      });
    if (B.Term.A == Old)
      B.Term.A = New;
    if (B.Term.B == Old)
      B.Term.B = New;
  }
}

namespace {

/// Clears every block the entry cannot reach and removes their pred slots
/// (with phi inputs) from reachable blocks.
bool pruneUnreachable(LFunction &Fn) {
  std::vector<bool> Reachable(Fn.Blocks.size(), false);
  for (uint32_t Id : Fn.reversePostOrder())
    Reachable[Id] = true;

  bool Changed = false;
  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    LBlock &B = Fn.Blocks[Id];
    if (!Reachable[Id]) {
      if (!B.Insns.empty() || !B.Phis.empty() || !B.Preds.empty() ||
          B.Term.K != LTerminator::Kind::RetVoid) {
        B = LBlock();
        Changed = true;
      }
      continue;
    }
    for (size_t N = B.Preds.size(); N-- > 0;) {
      if (Reachable[B.Preds[N]])
        continue;
      B.Preds.erase(B.Preds.begin() + N);
      for (LPhi &P : B.Phis)
        P.In.erase(P.In.begin() + N);
      Changed = true;
    }
  }
  return Changed;
}

/// Removes the first pred slot of \p Block matching \p Pred, dropping the
/// corresponding phi inputs.
void removePredSlot(LFunction &Fn, uint32_t Block, uint32_t Pred) {
  LBlock &B = Fn.Blocks[Block];
  for (size_t N = 0; N != B.Preds.size(); ++N) {
    if (B.Preds[N] != Pred)
      continue;
    B.Preds.erase(B.Preds.begin() + N);
    for (LPhi &P : B.Phis)
      P.In.erase(P.In.begin() + N);
    return;
  }
  assert(false && "pred slot not found");
}

/// Rewrites a conditional terminator into a goto to \p Dest, detaching the
/// other edge's pred slot.
void foldCondTerminator(LFunction &Fn, uint32_t Block, uint32_t Dest,
                        uint32_t Dead) {
  if (Dead != Dest)
    removePredSlot(Fn, Dead, Block);
  else {
    // Both edges led to the same block: one slot goes away.
    removePredSlot(Fn, Dead, Block);
  }
  LTerminator &T = Fn.Blocks[Block].Term;
  T = LTerminator();
  T.K = LTerminator::Kind::Goto;
  T.Taken = Dest;
}

/// Integer constant map from MMovImmI defs.
std::map<ValueId, int64_t> collectIntConsts(const LFunction &Fn) {
  std::map<ValueId, int64_t> Consts;
  for (const LBlock &B : Fn.Blocks)
    for (const LInsn &I : B.Insns)
      if (I.Op == MOpcode::MMovImmI && I.Dst != NoValue)
        Consts[I.Dst] = I.ImmI;
  return Consts;
}

std::map<ValueId, double> collectFloatConsts(const LFunction &Fn) {
  std::map<ValueId, double> Consts;
  for (const LBlock &B : Fn.Blocks)
    for (const LInsn &I : B.Insns)
      if (I.Op == MOpcode::MMovImmF && I.Dst != NoValue)
        Consts[I.Dst] = I.ImmF;
  return Consts;
}

/// Defining instruction per value (nullptr for params/phis).
std::vector<const LInsn *> collectDefs(const LFunction &Fn) {
  std::vector<const LInsn *> Defs(Fn.NumValues, nullptr);
  for (const LBlock &B : Fn.Blocks)
    for (const LInsn &I : B.Insns)
      if (I.Dst != NoValue)
        Defs[I.Dst] = &I;
  return Defs;
}

std::optional<int64_t> foldInt(MOpcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case MOpcode::MAddI: return A + B;
  case MOpcode::MSubI: return A - B;
  case MOpcode::MMulI: return A * B;
  case MOpcode::MAndI: return A & B;
  case MOpcode::MOrI: return A | B;
  case MOpcode::MXorI: return A ^ B;
  case MOpcode::MShlI: return A << (B & 63);
  case MOpcode::MShrI: return A >> (B & 63);
  default: return std::nullopt;
  }
}

bool evalCond(MOpcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case MOpcode::MIfEq: case MOpcode::MIfEqz: return A == B;
  case MOpcode::MIfNe: case MOpcode::MIfNez: return A != B;
  case MOpcode::MIfLt: case MOpcode::MIfLtz: return A < B;
  case MOpcode::MIfLe: case MOpcode::MIfLez: return A <= B;
  case MOpcode::MIfGt: case MOpcode::MIfGtz: return A > B;
  default: return A >= B;
  }
}

void toNop(LInsn &I) { I = LInsn(); }

void toConstI(LInsn &I, int64_t V) {
  ValueId Dst = I.Dst;
  I = LInsn();
  I.Op = MOpcode::MMovImmI;
  I.Dst = Dst;
  I.ImmI = V;
}

void toConstF(LInsn &I, double V) {
  ValueId Dst = I.Dst;
  I = LInsn();
  I.Op = MOpcode::MMovImmF;
  I.Dst = Dst;
  I.ImmF = V;
}

} // namespace

// --- SimplifyCfg ------------------------------------------------------------------

bool lir::simplifyCfg(LFunction &Fn) {
  bool Changed = pruneUnreachable(Fn);

  // Trivial phi elimination: single input, all-same input, or self + one.
  bool Local = true;
  while (Local) {
    Local = false;
    for (LBlock &B : Fn.Blocks) {
      for (size_t N = B.Phis.size(); N-- > 0;) {
        LPhi &P = B.Phis[N];
        ValueId Unique = NoValue;
        bool Simple = true;
        for (ValueId In : P.In) {
          if (In == P.Dst || In == NoValue)
            continue;
          if (Unique == NoValue)
            Unique = In;
          else if (Unique != In)
            Simple = false;
        }
        if (!Simple || Unique == NoValue)
          continue;
        replaceAllUses(Fn, P.Dst, Unique);
        B.Phis.erase(B.Phis.begin() + N);
        Local = true;
        Changed = true;
      }
    }
  }

  // Goto threading through empty, phi-free blocks.
  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    LBlock &B = Fn.Blocks[Id];
    if (!B.Insns.empty() || !B.Phis.empty() ||
        B.Term.K != LTerminator::Kind::Goto || B.Term.Taken == Id ||
        B.Preds.empty())
      continue;
    uint32_t T = B.Term.Taken;
    if (!Fn.Blocks[T].Phis.empty())
      continue; // conservative: keep phi blocks intact
    std::vector<uint32_t> Preds = B.Preds;
    for (uint32_t P : Preds) {
      LTerminator &PT = Fn.Blocks[P].Term;
      if (PT.K == LTerminator::Kind::Goto || PT.K == LTerminator::Kind::Cond ||
          PT.K == LTerminator::Kind::Guard) {
        if (PT.Taken == Id)
          PT.Taken = T;
        if ((PT.K == LTerminator::Kind::Cond ||
             PT.K == LTerminator::Kind::Guard) &&
            PT.Fall == Id)
          PT.Fall = T;
      }
      Fn.Blocks[T].Preds.push_back(P);
    }
    removePredSlot(Fn, T, Id);
    B.Preds.clear();
    Changed = true;
  }

  // Merge single-pred/single-succ straight lines.
  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    LBlock &P = Fn.Blocks[Id];
    while (P.Term.K == LTerminator::Kind::Goto) {
      uint32_t S = P.Term.Taken;
      if (S == Id)
        break;
      LBlock &SB = Fn.Blocks[S];
      if (SB.Preds.size() != 1 || SB.Preds[0] != Id || !SB.Phis.empty() ||
          S == 0)
        break;
      // Splice S into P.
      P.Insns.insert(P.Insns.end(), SB.Insns.begin(), SB.Insns.end());
      P.Term = SB.Term;
      for (uint32_t Succ : P.Term.successors()) {
        LBlock &Next = Fn.Blocks[Succ];
        for (uint32_t &Pred : Next.Preds)
          if (Pred == S)
            Pred = Id;
      }
      SB = LBlock();
      Changed = true;
    }
  }

  Changed |= pruneUnreachable(Fn);
  return Changed;
}

// --- ConstProp -----------------------------------------------------------------------

bool lir::constProp(LFunction &Fn) {
  bool Changed = false;
  for (int Round = 0; Round != 8; ++Round) {
    bool RoundChanged = false;
    std::map<ValueId, int64_t> IConsts = collectIntConsts(Fn);
    std::map<ValueId, double> FConsts = collectFloatConsts(Fn);
    auto IC = [&IConsts](ValueId V) -> std::optional<int64_t> {
      auto It = IConsts.find(V);
      if (It == IConsts.end())
        return std::nullopt;
      return It->second;
    };
    auto FC = [&FConsts](ValueId V) -> std::optional<double> {
      auto It = FConsts.find(V);
      if (It == FConsts.end())
        return std::nullopt;
      return It->second;
    };

    for (LBlock &B : Fn.Blocks) {
      for (LInsn &I : B.Insns) {
        switch (I.Op) {
        case MOpcode::MMov:
          replaceAllUses(Fn, I.Dst, I.A);
          toNop(I);
          RoundChanged = true;
          break;
        case MOpcode::MAddI: case MOpcode::MSubI: case MOpcode::MMulI:
        case MOpcode::MAndI: case MOpcode::MOrI: case MOpcode::MXorI:
        case MOpcode::MShlI: case MOpcode::MShrI: {
          auto A = IC(I.A), Bc = IC(I.B);
          if (A && Bc) {
            if (auto R = foldInt(I.Op, *A, *Bc)) {
              toConstI(I, *R);
              RoundChanged = true;
            }
          }
          break;
        }
        case MOpcode::MNegI:
          if (auto A = IC(I.A)) {
            toConstI(I, -*A);
            RoundChanged = true;
          }
          break;
        case MOpcode::MAddF: case MOpcode::MSubF: case MOpcode::MMulF:
        case MOpcode::MDivF: {
          auto A = FC(I.A), Bc = FC(I.B);
          if (A && Bc) {
            double R = I.Op == MOpcode::MAddF   ? *A + *Bc
                       : I.Op == MOpcode::MSubF ? *A - *Bc
                       : I.Op == MOpcode::MMulF ? *A * *Bc
                                                : *A / *Bc;
            toConstF(I, R);
            RoundChanged = true;
          }
          break;
        }
        case MOpcode::MNegF:
          if (auto A = FC(I.A)) {
            toConstF(I, -*A);
            RoundChanged = true;
          }
          break;
        case MOpcode::MCmpF: {
          auto A = FC(I.A), Bc = FC(I.B);
          if (A && Bc) {
            toConstI(I, (*A < *Bc) ? -1 : (*A == *Bc ? 0 : 1));
            RoundChanged = true;
          }
          break;
        }
        case MOpcode::MI2F:
          if (auto A = IC(I.A)) {
            toConstF(I, static_cast<double>(*A));
            RoundChanged = true;
          }
          break;
        case MOpcode::MCheckDiv:
          if (auto A = IC(I.A); A && *A != 0) {
            toNop(I);
            RoundChanged = true;
          }
          break;
        default:
          break;
        }
      }

      LTerminator &T = B.Term;
      if (T.K == LTerminator::Kind::Cond) {
        auto A = IC(T.A);
        std::optional<int64_t> Bc(0);
        if (T.B != NoValue)
          Bc = IC(T.B);
        if (A && Bc) {
          uint32_t Id = static_cast<uint32_t>(&B - Fn.Blocks.data());
          bool Taken = evalCond(T.CondOp, *A, *Bc);
          uint32_t Dest = Taken ? T.Taken : T.Fall;
          uint32_t Dead = Taken ? T.Fall : T.Taken;
          foldCondTerminator(Fn, Id, Dest, Dead);
          RoundChanged = true;
        }
      }
    }
    if (RoundChanged)
      pruneUnreachable(Fn);
    Changed |= RoundChanged;
    if (!RoundChanged)
      break;
  }
  return Changed;
}

// --- InstCombine -------------------------------------------------------------------

bool lir::instCombine(LFunction &Fn) {
  bool Changed = false;
  std::map<ValueId, int64_t> IConsts = collectIntConsts(Fn);
  std::vector<const LInsn *> Defs = collectDefs(Fn);
  auto IC = [&IConsts](ValueId V) -> std::optional<int64_t> {
    auto It = IConsts.find(V);
    if (It == IConsts.end())
      return std::nullopt;
    return It->second;
  };

  for (LBlock &B : Fn.Blocks) {
    for (size_t Pos = 0; Pos < B.Insns.size(); ++Pos) {
      LInsn &I = B.Insns[Pos];
      auto Alias = [&](ValueId Src) {
        replaceAllUses(Fn, I.Dst, Src);
        toNop(B.Insns[Pos]);
        Changed = true;
      };

      std::optional<int64_t> CA, CB;
      if (I.A != NoValue)
        CA = IC(I.A);
      if (I.B != NoValue)
        CB = IC(I.B);

      switch (I.Op) {
      case MOpcode::MAddI:
        if (CB && *CB == 0)
          Alias(I.A);
        else if (CA && *CA == 0)
          Alias(I.B);
        break;
      case MOpcode::MSubI:
        if (CB && *CB == 0)
          Alias(I.A);
        else if (I.A == I.B) {
          toConstI(I, 0);
          Changed = true;
        }
        break;
      case MOpcode::MMulI:
        if (CB && *CB == 1)
          Alias(I.A);
        else if (CA && *CA == 1)
          Alias(I.B);
        else if ((CB && *CB == 0) || (CA && *CA == 0)) {
          toConstI(I, 0);
          Changed = true;
        } else if (CB && *CB > 1 && (*CB & (*CB - 1)) == 0) {
          // x * 2^k -> x << k with a fresh shift-amount constant.
          int64_t Shift = 0;
          for (int64_t V = *CB; V > 1; V >>= 1)
            ++Shift;
          LInsn K;
          K.Op = MOpcode::MMovImmI;
          K.ImmI = Shift;
          K.Dst = Fn.newValue();
          LInsn Shl;
          Shl.Op = MOpcode::MShlI;
          Shl.Dst = I.Dst;
          Shl.A = I.A;
          Shl.B = K.Dst;
          B.Insns[Pos] = Shl;
          B.Insns.insert(B.Insns.begin() + Pos, K);
          ++Pos;
          Changed = true;
        }
        break;
      case MOpcode::MDivI:
        if (CB && *CB == 1)
          Alias(I.A);
        break;
      case MOpcode::MXorI:
        if (I.A == I.B) {
          toConstI(I, 0);
          Changed = true;
        } else if (CB && *CB == 0)
          Alias(I.A);
        break;
      case MOpcode::MAndI:
      case MOpcode::MOrI:
        if (I.A == I.B)
          Alias(I.A);
        else if (CB && *CB == 0) {
          if (I.Op == MOpcode::MOrI)
            Alias(I.A);
          else {
            toConstI(I, 0);
            Changed = true;
          }
        }
        break;
      case MOpcode::MShlI:
      case MOpcode::MShrI:
        if (CB && *CB == 0)
          Alias(I.A);
        break;
      case MOpcode::MNegI:
        if (I.A < Defs.size() && Defs[I.A] &&
            Defs[I.A]->Op == MOpcode::MNegI)
          Alias(Defs[I.A]->A);
        break;
      case MOpcode::MNegF:
        if (I.A < Defs.size() && Defs[I.A] &&
            Defs[I.A]->Op == MOpcode::MNegF)
          Alias(Defs[I.A]->A);
        break;
      case MOpcode::MF2I:
        if (I.A < Defs.size() && Defs[I.A] &&
            Defs[I.A]->Op == MOpcode::MI2F)
          Alias(Defs[I.A]->A);
        break;
      case MOpcode::MCheckNull:
        if (I.A < Defs.size() && Defs[I.A] &&
            (Defs[I.A]->Op == MOpcode::MNewInstance ||
             Defs[I.A]->Op == MOpcode::MNewArray)) {
          toNop(B.Insns[Pos]);
          Changed = true;
        }
        break;
      case MOpcode::MMov:
        Alias(I.A);
        break;
      default:
        break;
      }
    }

    // Same-operand conditional terminators.
    LTerminator &T = B.Term;
    if (T.K == LTerminator::Kind::Cond && T.B != NoValue && T.A == T.B) {
      uint32_t Id = static_cast<uint32_t>(&B - Fn.Blocks.data());
      bool Taken = evalCond(T.CondOp, 0, 0); // A==B: evaluate reflexively
      uint32_t Dest = Taken ? T.Taken : T.Fall;
      uint32_t Dead = Taken ? T.Fall : T.Taken;
      foldCondTerminator(Fn, Id, Dest, Dead);
      Changed = true;
    }
  }
  return Changed;
}

// --- GVN --------------------------------------------------------------------------

bool lir::gvn(LFunction &Fn) {
  struct Key {
    MOpcode Op;
    ValueId A, B;
    int64_t ImmI;
    uint64_t ImmF;
    uint32_t Idx;
    bool operator<(const Key &O) const {
      return std::tie(Op, A, B, ImmI, ImmF, Idx) <
             std::tie(O.Op, O.A, O.B, O.ImmI, O.ImmF, O.Idx);
    }
  };

  bool Changed = false;
  DomTree DT = DomTree::compute(Fn);
  std::map<Key, ValueId> Available;

  // Recursive dominator-tree walk with scope rollback.
  std::function<void(uint32_t)> Walk = [&](uint32_t Block) {
    std::vector<Key> Inserted;
    for (LInsn &I : Fn.Blocks[Block].Insns) {
      if (!vm::isPureOp(I.Op) || I.Dst == NoValue)
        continue;
      uint64_t FBits;
      std::memcpy(&FBits, &I.ImmF, sizeof(FBits));
      Key K{I.Op, I.A, I.B, I.ImmI, FBits, I.Idx};
      auto It = Available.find(K);
      if (It != Available.end()) {
        replaceAllUses(Fn, I.Dst, It->second);
        toNop(I);
        Changed = true;
        continue;
      }
      Available.emplace(K, I.Dst);
      Inserted.push_back(K);
    }
    for (uint32_t Child : DT.children(Block))
      Walk(Child);
    for (const Key &K : Inserted)
      Available.erase(K);
  };
  Walk(0);
  return Changed;
}

// --- DCE --------------------------------------------------------------------------

bool lir::dce(LFunction &Fn, bool Aggressive) {
  bool Changed = false;

  // Phi liveness with cycle awareness: a phi is live only if its value
  // reaches a non-phi use, directly or through other live phis. Plain use
  // counting cannot remove mutually-referencing dead phi webs (the shape
  // SSA construction leaves at loop headers for iteration-local state).
  {
    std::vector<bool> Live(Fn.NumValues, false);
    std::vector<ValueId> Work;
    auto MarkLive = [&](ValueId V) {
      if (V != NoValue && !Live[V]) {
        Live[V] = true;
        Work.push_back(V);
      }
    };
    for (const LBlock &B : Fn.Blocks) {
      for (const LInsn &I : B.Insns)
        forEachOperand(I, MarkLive);
      MarkLive(B.Term.A);
      MarkLive(B.Term.B);
    }
    // Propagate through phis: a live phi makes its inputs live.
    std::map<ValueId, const LPhi *> PhiOf;
    for (const LBlock &B : Fn.Blocks)
      for (const LPhi &P : B.Phis)
        PhiOf[P.Dst] = &P;
    while (!Work.empty()) {
      ValueId V = Work.back();
      Work.pop_back();
      auto It = PhiOf.find(V);
      if (It == PhiOf.end())
        continue;
      for (ValueId In : It->second->In)
        MarkLive(In);
    }
    for (LBlock &B : Fn.Blocks) {
      size_t Before = B.Phis.size();
      B.Phis.erase(std::remove_if(B.Phis.begin(), B.Phis.end(),
                                  [&Live](const LPhi &P) {
                                    return !Live[P.Dst];
                                  }),
                   B.Phis.end());
      Changed |= B.Phis.size() != Before;
    }
  }

  bool Local = true;
  while (Local) {
    Local = false;
    std::vector<uint32_t> Uses = countUses(Fn);
    for (LBlock &B : Fn.Blocks) {
      for (size_t N = B.Phis.size(); N-- > 0;) {
        if (Uses[B.Phis[N].Dst] == 0) {
          B.Phis.erase(B.Phis.begin() + N);
          Local = true;
        }
      }
      for (LInsn &I : B.Insns) {
        if (I.Dst == NoValue || Uses[I.Dst] != 0)
          continue;
        bool Removable = vm::isPureOp(I.Op) ||
                         I.Op == MOpcode::MIntrinsic ||
                         I.Op == MOpcode::MLoadStatic;
        if (Aggressive)
          Removable |= vm::isLoadOp(I.Op) ||
                       I.Op == MOpcode::MNewInstance ||
                       I.Op == MOpcode::MNewArray;
        if (Removable) {
          toNop(I);
          Local = true;
        }
      }
      B.Insns.erase(std::remove_if(B.Insns.begin(), B.Insns.end(),
                                   [](const LInsn &I) {
                                     return I.Op == MOpcode::MNop;
                                   }),
                    B.Insns.end());
    }
    Changed |= Local;
  }
  return Changed;
}

// --- Reassociate ---------------------------------------------------------------------

bool lir::reassociate(LFunction &Fn, bool FastMath) {
  bool Changed = false;
  std::vector<const LInsn *> Defs = collectDefs(Fn);
  std::vector<uint32_t> Uses = countUses(Fn);

  auto Eligible = [FastMath](MOpcode Op) {
    if (Op == MOpcode::MAddI || Op == MOpcode::MMulI)
      return true;
    // Floating-point reassociation changes rounding; only "fast math"
    // allows it — and the verification map will catch the difference.
    if (FastMath && (Op == MOpcode::MAddF || Op == MOpcode::MMulF))
      return true;
    return false;
  };

  for (LBlock &B : Fn.Blocks) {
    for (size_t Pos = 0; Pos < B.Insns.size(); ++Pos) {
      LInsn &I2 = B.Insns[Pos];
      if (!Eligible(I2.Op) || I2.A == NoValue || I2.A >= Defs.size())
        continue;
      const LInsn *I1 = Defs[I2.A];
      if (!I1 || I1->Op != I2.Op || Uses[I2.A] != 1)
        continue;
      // t2 = (a op b) op c  ->  n = b op c; t2 = a op n.
      ValueId A = I1->A, Bv = I1->B, C = I2.B;
      LInsn N;
      N.Op = I2.Op;
      N.Dst = Fn.newValue();
      N.A = Bv;
      N.B = C;
      LInsn New2 = I2;
      New2.A = A;
      New2.B = N.Dst;
      B.Insns[Pos] = New2;
      B.Insns.insert(B.Insns.begin() + Pos, N);
      ++Pos;
      Changed = true;
      // Maps are stale now; one rewrite per pair per run is enough.
      Defs = collectDefs(Fn);
      Uses = countUses(Fn);
    }
  }
  return Changed;
}

// --- JNI intrinsics -------------------------------------------------------------------

bool lir::jniIntrinsics(LFunction &Fn, const dex::DexFile &File) {
  bool Changed = false;
  for (LBlock &B : Fn.Blocks) {
    for (LInsn &I : B.Insns) {
      if (I.Op != MOpcode::MCallNative)
        continue;
      const dex::NativeDecl &Decl = File.native(I.Idx);
      if (Decl.IntrinsicKind.empty())
        continue;
      vm::IntrinsicKind Kind;
      if (!vm::intrinsicFromName(Decl.IntrinsicKind, Kind))
        continue;
      I.Op = MOpcode::MIntrinsic;
      I.Idx = static_cast<uint32_t>(Kind);
      Changed = true;
    }
  }
  return Changed;
}

// --- Jump threading -------------------------------------------------------------------

bool lir::jumpThreading(LFunction &Fn, bool Aggressive) {
  bool Changed = false;
  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    LBlock &B = Fn.Blocks[Id];
    if (!B.Insns.empty() || B.Term.K != LTerminator::Kind::Goto ||
        B.Term.Taken == Id || B.Preds.empty())
      continue;
    uint32_t T = B.Term.Taken;
    if (!Fn.Blocks[T].Phis.empty()) {
      if (!Aggressive || !B.Phis.empty())
        continue;
      // BUG (modelled, DESIGN.md §4): threads into a phi-bearing target
      // without extending the target's phi inputs for the rerouted
      // predecessors — the arity mismatch is exactly what the verifier
      // exists to catch ("compiler crash").
      std::vector<uint32_t> Preds = B.Preds;
      for (uint32_t P : Preds) {
        LTerminator &PT = Fn.Blocks[P].Term;
        if (PT.Taken == Id)
          PT.Taken = T;
        if ((PT.K == LTerminator::Kind::Cond ||
             PT.K == LTerminator::Kind::Guard) &&
            PT.Fall == Id)
          PT.Fall = T;
        Fn.Blocks[T].Preds.push_back(P); // inputs "forgotten"
      }
      removePredSlot(Fn, T, Id);
      B.Preds.clear();
      Changed = true;
      continue;
    }

    if (B.Phis.empty()) {
      // Safe: forward every predecessor straight to T.
      std::vector<uint32_t> Preds = B.Preds;
      for (uint32_t P : Preds) {
        LTerminator &PT = Fn.Blocks[P].Term;
        if (PT.Taken == Id)
          PT.Taken = T;
        if ((PT.K == LTerminator::Kind::Cond ||
             PT.K == LTerminator::Kind::Guard) &&
            PT.Fall == Id)
          PT.Fall = T;
        Fn.Blocks[T].Preds.push_back(P);
      }
      removePredSlot(Fn, T, Id);
      B.Preds.clear();
      Changed = true;
      continue;
    }

    if (Aggressive) {
      // BUG (modelled, see DESIGN.md §4): threads a phi-bearing block
      // without reconstructing the phi values along the new edges. Any
      // surviving use of the dropped phis leaves the IR invalid, which the
      // verifier reports as a compiler error.
      std::vector<uint32_t> Preds = B.Preds;
      for (uint32_t P : Preds) {
        LTerminator &PT = Fn.Blocks[P].Term;
        if (PT.Taken == Id)
          PT.Taken = T;
        if ((PT.K == LTerminator::Kind::Cond ||
             PT.K == LTerminator::Kind::Guard) &&
            PT.Fall == Id)
          PT.Fall = T;
        Fn.Blocks[T].Preds.push_back(P);
      }
      removePredSlot(Fn, T, Id);
      B.Preds.clear();
      B.Phis.clear(); // definitions vanish; uses (if any) dangle
      Changed = true;
    }
  }
  if (Changed)
    pruneUnreachable(Fn);
  return Changed;
}

// --- Bounds check elimination ------------------------------------------------------------

namespace {

/// Sound induction-range elimination (the paper's §7 "not all array bounds
/// checking is necessary" future work): inside a counted loop
///
///   i = phi(init, i + step),  init >= 0 const, step > 0 const,
///   guarded by i < limit,
///
/// a check `bounds(A, i)` is redundant when `limit` is provably at most
/// `length(A)` — either `limit` *is* `arraylen(A)` of the same SSA array
/// value, or both are constants. Handles the two loop shapes the pipeline
/// produces: top-test headers (`if i >= limit -> exit`) and rotated
/// self-loops (`... if i' < limit -> self`).
struct InductionRange {
  ValueId Phi = NoValue;     ///< The induction variable.
  ValueId Limit = NoValue;   ///< Exclusive upper bound inside the body.
  std::set<uint32_t> Blocks; ///< Blocks where Phi < Limit holds.
};

std::vector<InductionRange>
findInductionRanges(const LFunction &Fn, const DomTree &DT,
                    const LoopInfo &LI,
                    const std::vector<const LInsn *> &Defs,
                    const std::map<ValueId, int64_t> &IConsts) {
  std::vector<InductionRange> Ranges;
  for (const Loop &L : LI.loops()) {
    const LBlock &H = Fn.Blocks[L.Header];
    for (const LPhi &P : H.Phis) {
      if (P.In.size() != 2)
        continue;
      int LatchIdx = -1;
      for (int N = 0; N != 2; ++N)
        if (L.contains(H.Preds[static_cast<size_t>(N)]))
          LatchIdx = N;
      if (LatchIdx < 0)
        continue;
      ValueId Init = P.In[static_cast<size_t>(1 - LatchIdx)];
      ValueId Next = P.In[static_cast<size_t>(LatchIdx)];
      auto InitC = IConsts.find(Init);
      if (InitC == IConsts.end() || InitC->second < 0)
        continue;
      if (Next >= Defs.size() || !Defs[Next] ||
          Defs[Next]->Op != MOpcode::MAddI)
        continue;
      const LInsn &Add = *Defs[Next];
      ValueId StepVal = Add.A == P.Dst   ? Add.B
                        : Add.B == P.Dst ? Add.A
                                         : NoValue;
      auto StepC = StepVal == NoValue ? IConsts.end()
                                      : IConsts.find(StepVal);
      if (StepC == IConsts.end() || StepC->second <= 0)
        continue;

      InductionRange R;
      R.Phi = P.Dst;
      const LTerminator &T = H.Term;
      // Shape (a): top-test header.
      if (T.K == LTerminator::Kind::Cond && T.A == P.Dst &&
          T.B != NoValue) {
        uint32_t BodySide = ~0u;
        if (T.CondOp == MOpcode::MIfGe && !L.contains(T.Taken))
          BodySide = T.Fall; // `if i >= limit -> exit`
        else if (T.CondOp == MOpcode::MIfLt && L.contains(T.Taken))
          BodySide = T.Taken; // `if i < limit -> body`
        if (BodySide != ~0u) {
          R.Limit = T.B;
          for (uint32_t Blk : L.Blocks)
            if (DT.dominates(BodySide, Blk))
              R.Blocks.insert(Blk);
          if (!R.Blocks.empty()) {
            Ranges.push_back(R);
            continue;
          }
        }
      }
      // Shape (b): rotated self-loop with the bottom test on `next`; the
      // preheader guard established `phi < limit` for the first entry.
      if (L.Blocks.size() == 1 && T.K == LTerminator::Kind::Cond &&
          T.A == Next && T.B != NoValue &&
          ((T.CondOp == MOpcode::MIfLt && T.Taken == L.Header) ||
           (T.CondOp == MOpcode::MIfGe && T.Fall == L.Header))) {
        R.Limit = T.B;
        R.Blocks = {L.Header};
        Ranges.push_back(R);
      }
    }
  }
  return Ranges;
}

} // namespace

bool lir::boundsCheckElim(LFunction &Fn, bool Aggressive) {
  bool Changed = false;
  DomTree DT = DomTree::compute(Fn);
  std::vector<const LInsn *> Defs = collectDefs(Fn);
  std::map<ValueId, int64_t> IConsts = collectIntConsts(Fn);
  LoopInfo LI = LoopInfo::compute(Fn, DT);
  std::vector<InductionRange> Ranges =
      findInductionRanges(Fn, DT, LI, Defs, IConsts);

  // Sound removal: `bounds(Array, Index)` in \p Block when the induction
  // range proves Index < length(Array).
  auto ProvablyInRange = [&](uint32_t Block, ValueId Array,
                             ValueId Index) {
    for (const InductionRange &R : Ranges) {
      if (R.Phi != Index || !R.Blocks.count(Block))
        continue;
      if (R.Limit < Defs.size() && Defs[R.Limit] &&
          Defs[R.Limit]->Op == MOpcode::MArrayLen &&
          Defs[R.Limit]->A == Array)
        return true;
      // The array was constructed with exactly `limit` elements.
      if (Array < Defs.size() && Defs[Array] &&
          Defs[Array]->Op == MOpcode::MNewArray &&
          Defs[Array]->A == R.Limit)
        return true;
      auto LimitC = IConsts.find(R.Limit);
      if (LimitC == IConsts.end())
        continue;
      if (Array < Defs.size() && Defs[Array] &&
          Defs[Array]->Op == MOpcode::MNewArray) {
        auto LenC = IConsts.find(Defs[Array]->A);
        if (LenC != IConsts.end() && LimitC->second <= LenC->second)
          return true;
      }
    }
    return false;
  };

  // Values whose def is a phi, or an add/sub one step from a phi: the naive
  // "induction variable" approximation the aggressive mode trusts. It is
  // exactly wrong for multiplicative updates (j = j * 2), matching the
  // motivating bug class.
  std::set<ValueId> PhiDefined;
  for (const LBlock &B : Fn.Blocks)
    for (const LPhi &P : B.Phis)
      PhiDefined.insert(P.Dst);
  auto LooksInductive = [&](ValueId V) {
    if (PhiDefined.count(V))
      return true;
    if (V < Defs.size() && Defs[V] &&
        (Defs[V]->Op == MOpcode::MAddI || Defs[V]->Op == MOpcode::MSubI))
      return PhiDefined.count(Defs[V]->A) || PhiDefined.count(Defs[V]->B);
    return false;
  };

  std::set<std::pair<ValueId, ValueId>> Seen;
  std::set<ValueId> NonNull;
  std::function<void(uint32_t)> Walk = [&](uint32_t Block) {
    std::vector<std::pair<ValueId, ValueId>> Inserted;
    std::vector<ValueId> InsertedNull;
    for (LInsn &I : Fn.Blocks[Block].Insns) {
      // Null checks dominated by an identical check (or an allocation) are
      // redundant; SSA values never change, so dominance is sufficient.
      if (I.Op == MOpcode::MCheckNull) {
        if (NonNull.count(I.A)) {
          toNop(I);
          Changed = true;
        } else {
          NonNull.insert(I.A);
          InsertedNull.push_back(I.A);
        }
        continue;
      }
      if ((I.Op == MOpcode::MNewInstance || I.Op == MOpcode::MNewArray) &&
          I.Dst != NoValue && !NonNull.count(I.Dst)) {
        NonNull.insert(I.Dst);
        InsertedNull.push_back(I.Dst);
        continue;
      }
      if (I.Op != MOpcode::MCheckBounds)
        continue;
      std::pair<ValueId, ValueId> K{I.A, I.B};
      if (Seen.count(K)) {
        toNop(I);
        Changed = true;
        continue;
      }
      // Constant index against a constant-length fresh array.
      auto IdxC = IConsts.find(I.B);
      if (IdxC != IConsts.end() && I.A < Defs.size() && Defs[I.A] &&
          Defs[I.A]->Op == MOpcode::MNewArray) {
        auto LenC = IConsts.find(Defs[I.A]->A);
        if (LenC != IConsts.end() && IdxC->second >= 0 &&
            IdxC->second < LenC->second) {
          toNop(I);
          Changed = true;
          continue;
        }
      }
      // Counted-loop induction range (sound; see findInductionRanges).
      if (ProvablyInRange(Block, I.A, I.B)) {
        toNop(I);
        Changed = true;
        continue;
      }
      if (Aggressive && LooksInductive(I.B)) {
        toNop(I);
        Changed = true;
        continue;
      }
      Seen.insert(K);
      Inserted.push_back(K);
    }
    for (uint32_t Child : DT.children(Block))
      Walk(Child);
    for (const auto &K : Inserted)
      Seen.erase(K);
    for (ValueId V : InsertedNull)
      NonNull.erase(V);
  };
  Walk(0);
  return Changed;
}

// --- Sink ------------------------------------------------------------------------------

bool lir::sinkCode(LFunction &Fn) {
  bool Changed = false;
  std::vector<uint32_t> DefBlock = computeDefBlocks(Fn);

  // Use blocks per value (NoValue-safe).
  std::vector<std::set<uint32_t>> UseBlocks(Fn.NumValues);
  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    const LBlock &B = Fn.Blocks[Id];
    for (const LPhi &P : B.Phis)
      for (size_t N = 0; N != P.In.size(); ++N)
        if (P.In[N] != NoValue)
          UseBlocks[P.In[N]].insert(B.Preds[N]); // used on the edge
    for (const LInsn &I : B.Insns)
      forEachOperand(I, [&](ValueId V) { UseBlocks[V].insert(Id); });
    for (ValueId V : {B.Term.A, B.Term.B})
      if (V != NoValue)
        UseBlocks[V].insert(Id);
  }

  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    LBlock &B = Fn.Blocks[Id];
    if (B.Term.K != LTerminator::Kind::Cond)
      continue;
    for (size_t Pos = B.Insns.size(); Pos-- > 0;) {
      LInsn &I = B.Insns[Pos];
      if (!vm::isPureOp(I.Op) || I.Dst == NoValue)
        continue;
      const std::set<uint32_t> &UB = UseBlocks[I.Dst];
      if (UB.size() != 1)
        continue;
      uint32_t Target = *UB.begin();
      if (Target == Id)
        continue;
      const LBlock &TB = Fn.Blocks[Target];
      bool IsSoleSucc = (B.Term.Taken == Target) != (B.Term.Fall == Target);
      if (!IsSoleSucc || TB.Preds.size() != 1 || TB.Preds[0] != Id)
        continue;
      // Operand defined later in this block? Sinking the def is fine: the
      // operands were defined before it already.
      Fn.Blocks[Target].Insns.insert(Fn.Blocks[Target].Insns.begin(), I);
      B.Insns.erase(B.Insns.begin() + Pos);
      Changed = true;
    }
  }
  return Changed;
}

// --- Driver --------------------------------------------------------------------------

bool lir::applyPass(LFunction &Fn, const PassInstance &Pass,
                    const PassContext &Ctx) {
  switch (Pass.Id) {
  case PassId::SimplifyCfg:
    return simplifyCfg(Fn);
  case PassId::ConstProp:
    return constProp(Fn);
  case PassId::InstCombine:
    return instCombine(Fn);
  case PassId::Gvn:
    return gvn(Fn);
  case PassId::Dce:
    return dce(Fn, Pass.Aggressive);
  case PassId::Licm:
    return licm(Fn, Pass.Aggressive);
  case PassId::Reassociate:
    return reassociate(Fn, Pass.Aggressive);
  case PassId::LoopRotate:
    return loopRotate(Fn);
  case PassId::LoopUnroll:
    return loopUnroll(Fn, Pass.IntParam, Pass.Aggressive);
  case PassId::LoopPeel:
    return loopPeel(Fn, Pass.IntParam);
  case PassId::GcElide:
    return gcElide(Fn, Pass.Aggressive);
  case PassId::JniIntrinsics:
    assert(Ctx.File && "jni-intrinsics needs the dex file");
    return jniIntrinsics(Fn, *Ctx.File);
  case PassId::Devirtualize:
    if (!Ctx.Profile || !Ctx.File)
      return false;
    return devirtualize(Fn, *Ctx.File, *Ctx.Profile, Pass.IntParam);
  case PassId::Inline:
    assert(Ctx.File && "inline needs the dex file");
    return inlineCalls(Fn, *Ctx.File, Pass.IntParam);
  case PassId::JumpThreading:
    return jumpThreading(Fn, Pass.Aggressive);
  case PassId::BoundsCheckElim:
    return boundsCheckElim(Fn, Pass.Aggressive);
  case PassId::Sink:
    return sinkCode(Fn);
  case PassId::PassIdCount:
    break;
  }
  return false;
}

bool lir::runPipeline(LFunction &Fn,
                      const std::vector<PassInstance> &Pipeline,
                      const PassContext &Ctx, size_t SizeBudget) {
  for (const PassInstance &Pass : Pipeline) {
    applyPass(Fn, Pass, Ctx);
    if (Fn.instructionCount() > SizeBudget)
      return false;
  }
  return true;
}
