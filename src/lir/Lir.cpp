//===- lir/Lir.cpp - LLVM-like SSA intermediate representation -------------===//

#include "lir/Lir.h"

#include "lir/Analysis.h"
#include "support/Format.h"

#include <cassert>

using namespace ropt;
using namespace ropt::lir;

void LFunction::computePreds() {
  for (LBlock &B : Blocks)
    B.Preds.clear();
  for (uint32_t Id = 0; Id != Blocks.size(); ++Id)
    for (uint32_t Succ : Blocks[Id].Term.successors())
      Blocks[Succ].Preds.push_back(Id);
}

std::vector<uint32_t> LFunction::reversePostOrder() const {
  std::vector<uint8_t> State(Blocks.size(), 0);
  std::vector<uint32_t> PostOrder;
  std::vector<std::pair<uint32_t, size_t>> Stack;
  Stack.emplace_back(0, 0);
  State[0] = 1;
  while (!Stack.empty()) {
    auto &[Block, NextSucc] = Stack.back();
    SuccessorList Succs = Blocks[Block].Term.successors();
    if (NextSucc < Succs.size()) {
      uint32_t S = Succs[NextSucc++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.emplace_back(S, 0);
      }
      continue;
    }
    State[Block] = 2;
    PostOrder.push_back(Block);
    Stack.pop_back();
  }
  return std::vector<uint32_t>(PostOrder.rbegin(), PostOrder.rend());
}

size_t LFunction::instructionCount() const {
  size_t Count = 0;
  for (const LBlock &B : Blocks)
    Count += B.Insns.size();
  return Count;
}

bool LFunction::verify(std::string &Error) const {
  Error.clear();
  if (Blocks.empty()) {
    Error = "function has no blocks";
    return false;
  }

  // Successor range and phi arity.
  for (uint32_t Id = 0; Id != Blocks.size(); ++Id) {
    const LBlock &B = Blocks[Id];
    for (uint32_t Succ : B.Term.successors())
      if (Succ >= Blocks.size()) {
        Error = format("block %u: successor %u out of range", Id, Succ);
        return false;
      }
    for (const LPhi &P : B.Phis)
      if (P.In.size() != B.Preds.size()) {
        Error = format("block %u: phi v%u has %zu inputs for %zu preds",
                       Id, P.Dst, P.In.size(), B.Preds.size());
        return false;
      }
  }

  // Single assignment; collect def block per value.
  std::vector<uint32_t> DefBlock(NumValues, ~0u);
  for (uint32_t P = 0; P != ParamCount; ++P)
    DefBlock[P] = 0;
  for (uint32_t Id = 0; Id != Blocks.size(); ++Id) {
    const LBlock &B = Blocks[Id];
    auto Define = [&](ValueId V) -> bool {
      if (V >= NumValues) {
        Error = format("block %u: defines out-of-range value v%u", Id, V);
        return false;
      }
      if (DefBlock[V] != ~0u) {
        Error = format("block %u: value v%u defined twice", Id, V);
        return false;
      }
      DefBlock[V] = Id;
      return true;
    };
    for (const LPhi &P : B.Phis)
      if (!Define(P.Dst))
        return false;
    for (const LInsn &I : B.Insns)
      if (I.Dst != NoValue && !Define(I.Dst))
        return false;
  }

  DomTree DT = DomTree::compute(*this);
  // VisibleIn[V] == Id once V is defined at the current point of block Id.
  std::vector<uint32_t> VisibleIn(NumValues, ~0u);

  // Uses: defined, and defs dominate uses. Phi uses must be defined in (or
  // dominate) the corresponding predecessor.
  for (uint32_t Id = 0; Id != Blocks.size(); ++Id) {
    if (!DT.isReachable(Id))
      continue;
    const LBlock &B = Blocks[Id];
    auto CheckUse = [&](ValueId V) -> bool {
      if (V == NoValue)
        return true;
      if (V >= NumValues || DefBlock[V] == ~0u) {
        Error = format("block %u: use of undefined value v%u", Id, V);
        return false;
      }
      if (!DT.isReachable(DefBlock[V]) || !DT.dominates(DefBlock[V], Id)) {
        Error = format("block %u: use of v%u not dominated by its def "
                       "(block %u)",
                       Id, V, DefBlock[V]);
        return false;
      }
      return true;
    };

    // In-block ordering: a value defined later in the same block must not
    // be used earlier. Track what is already visible.
    auto MakeVisible = [&](ValueId V) {
      if (V < NumValues)
        VisibleIn[V] = Id;
    };
    auto Visible = [&](ValueId V) {
      return V < NumValues && VisibleIn[V] == Id;
    };
    if (Id == 0)
      for (uint32_t P = 0; P != ParamCount; ++P)
        MakeVisible(P);
    for (const LPhi &P : B.Phis)
      MakeVisible(P.Dst);
    for (const LPhi &P : B.Phis)
      for (size_t N = 0; N != P.In.size(); ++N) {
        ValueId V = P.In[N];
        if (V == NoValue)
          continue;
        if (V >= NumValues || DefBlock[V] == ~0u) {
          Error = format("block %u: phi input v%u undefined", Id, V);
          return false;
        }
        uint32_t Pred = B.Preds[N];
        if (DT.isReachable(Pred) && DT.isReachable(DefBlock[V]) &&
            !DT.dominates(DefBlock[V], Pred)) {
          Error = format("block %u: phi input v%u (from pred %u) not "
                         "dominated by def",
                         Id, V, Pred);
          return false;
        }
      }
    for (const LInsn &I : B.Insns) {
      bool Ok = true;
      forEachOperand(I, [&](ValueId V) {
        if (!Ok || V == NoValue)
          return;
        if (DefBlock[V] == Id && !Visible(V)) {
          Error = format("block %u: use of v%u before its definition", Id,
                         V);
          Ok = false;
          return;
        }
        if (DefBlock[V] != Id && !CheckUse(V))
          Ok = false;
      });
      if (!Ok)
        return false;
      if (I.Dst != NoValue)
        MakeVisible(I.Dst);
    }
    for (ValueId V : {B.Term.A, B.Term.B}) {
      if (V == NoValue)
        continue;
      if (DefBlock[V] == Id) {
        if (!Visible(V)) {
          Error = format("block %u: terminator uses v%u before def", Id, V);
          return false;
        }
      } else if (!CheckUse(V)) {
        return false;
      }
    }
  }
  return true;
}

std::string LFunction::dump() const {
  std::string Out = format("lfunc %s (params=%u values=%u)\n", Name.c_str(),
                           unsigned(ParamCount), NumValues);
  for (uint32_t Id = 0; Id != Blocks.size(); ++Id) {
    const LBlock &B = Blocks[Id];
    Out += format("bb%u:", Id);
    if (!B.Preds.empty()) {
      Out += " ; preds:";
      for (uint32_t P : B.Preds)
        Out += format(" bb%u", P);
    }
    Out += "\n";
    for (const LPhi &P : B.Phis) {
      Out += format("  v%u = phi", P.Dst);
      for (size_t N = 0; N != P.In.size(); ++N)
        Out += format("%s v%u", N ? "," : "", P.In[N]);
      Out += "\n";
    }
    for (const LInsn &I : B.Insns) {
      Out += "  ";
      if (I.Dst != NoValue)
        Out += format("v%u = ", I.Dst);
      Out += vm::mopcodeName(I.Op);
      if (I.A != NoValue)
        Out += format(" v%u", I.A);
      if (I.B != NoValue)
        Out += format(", v%u", I.B);
      if (I.Op == vm::MOpcode::MMovImmI)
        Out += format(" #%lld", static_cast<long long>(I.ImmI));
      if (I.Op == vm::MOpcode::MMovImmF)
        Out += format(" #%g", I.ImmF);
      if (!I.Args.empty()) {
        Out += " (";
        for (size_t N = 0; N != I.Args.size(); ++N)
          Out += format("%sv%u", N ? ", " : "", I.Args[N]);
        Out += ")";
      }
      Out += "\n";
    }
    const LTerminator &T = B.Term;
    switch (T.K) {
    case LTerminator::Kind::Goto:
      Out += format("  goto bb%u\n", T.Taken);
      break;
    case LTerminator::Kind::Cond:
      Out += format("  %s v%u%s -> bb%u else bb%u\n",
                    vm::mopcodeName(T.CondOp), T.A,
                    T.B == NoValue ? "" : format(", v%u", T.B).c_str(),
                    T.Taken, T.Fall);
      break;
    case LTerminator::Kind::Guard:
      Out += format("  guard v%u class%u ? bb%u : bb%u\n", T.A,
                    T.GuardClass, T.Fall, T.Taken);
      break;
    case LTerminator::Kind::Ret:
      Out += format("  ret v%u\n", T.A);
      break;
    case LTerminator::Kind::RetVoid:
      Out += "  ret-void\n";
      break;
    }
  }
  return Out;
}
