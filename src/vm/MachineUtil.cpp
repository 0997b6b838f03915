//===- vm/MachineUtil.cpp - MInsn classification helpers -------------------===//

#include "vm/MachineUtil.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace ropt;
using namespace ropt::vm;

bool vm::definesA(const MInsn &I) {
  switch (I.Op) {
  case MOpcode::MMovImmI:
  case MOpcode::MMovImmF:
  case MOpcode::MMov:
  case MOpcode::MAddI:
  case MOpcode::MSubI:
  case MOpcode::MMulI:
  case MOpcode::MDivI:
  case MOpcode::MRemI:
  case MOpcode::MAndI:
  case MOpcode::MOrI:
  case MOpcode::MXorI:
  case MOpcode::MShlI:
  case MOpcode::MShrI:
  case MOpcode::MNegI:
  case MOpcode::MAddF:
  case MOpcode::MSubF:
  case MOpcode::MMulF:
  case MOpcode::MDivF:
  case MOpcode::MNegF:
  case MOpcode::MCmpF:
  case MOpcode::MSqrtF:
  case MOpcode::MI2F:
  case MOpcode::MF2I:
  case MOpcode::MLoadSlot:
  case MOpcode::MLoadStatic:
  case MOpcode::MALoad:
  case MOpcode::MArrayLen:
  case MOpcode::MNewInstance:
  case MOpcode::MNewArray:
  case MOpcode::MIntrinsic:
    return I.A != MNoReg;
  case MOpcode::MCallStatic:
  case MOpcode::MCallVirtual:
  case MOpcode::MCallNative:
    return I.A != MNoReg;
  default:
    return false;
  }
}

bool vm::isPureOp(MOpcode Op) {
  switch (Op) {
  case MOpcode::MMovImmI:
  case MOpcode::MMovImmF:
  case MOpcode::MMov:
  case MOpcode::MAddI:
  case MOpcode::MSubI:
  case MOpcode::MMulI:
  case MOpcode::MAndI:
  case MOpcode::MOrI:
  case MOpcode::MXorI:
  case MOpcode::MShlI:
  case MOpcode::MShrI:
  case MOpcode::MNegI:
  case MOpcode::MAddF:
  case MOpcode::MSubF:
  case MOpcode::MMulF:
  case MOpcode::MDivF:
  case MOpcode::MNegF:
  case MOpcode::MCmpF:
  case MOpcode::MSqrtF:
  case MOpcode::MI2F:
  case MOpcode::MF2I:
    return true;
  default:
    return false;
  }
}

bool vm::isLoadOp(MOpcode Op) {
  return Op == MOpcode::MLoadSlot || Op == MOpcode::MLoadStatic ||
         Op == MOpcode::MALoad || Op == MOpcode::MArrayLen;
}

bool vm::isStoreOp(MOpcode Op) {
  return Op == MOpcode::MStoreSlot || Op == MOpcode::MStoreStatic ||
         Op == MOpcode::MAStore;
}

bool vm::isCallOp(MOpcode Op) {
  return Op == MOpcode::MCallStatic || Op == MOpcode::MCallVirtual ||
         Op == MOpcode::MCallNative;
}

bool vm::isCheckOp(MOpcode Op) {
  return Op == MOpcode::MCheckNull || Op == MOpcode::MCheckBounds ||
         Op == MOpcode::MCheckDiv;
}

bool vm::hasSideEffects(const MInsn &I) {
  if (isPureOp(I.Op) || isLoadOp(I.Op) || I.Op == MOpcode::MNop ||
      I.Op == MOpcode::MIntrinsic)
    return false;
  // Everything else: stores, calls, checks (trap), safepoints (GC),
  // allocations (heap state + OOM), div/rem (trap), control flow.
  return true;
}

namespace {

/// Applies a register renumbering \p Map (old -> new) over the function.
void applyRenumbering(MachineFunction &Fn,
                      const std::vector<MRegIdx> &Map) {
  for (MInsn &I : Fn.Code) {
    if (definesA(I) && I.A != MNoReg)
      I.A = Map[I.A];
    forEachUseMut(I, [&Map](MRegIdx &R) { R = Map[R]; });
    // Stores use A as a value operand; forEachUseMut already rewrote it.
  }
}

uint16_t compactWith(MachineFunction &Fn,
                     const std::vector<MRegIdx> &Order) {
  std::vector<MRegIdx> Map(Fn.NumRegs, MNoReg);
  for (MRegIdx P = 0; P != Fn.ParamCount; ++P)
    Map[P] = P;
  MRegIdx Next = Fn.ParamCount;
  for (MRegIdx Old : Order)
    if (Map[Old] == MNoReg)
      Map[Old] = Next++;
  // Registers never touched map onto themselves compactly at the end (they
  // are dead; position is irrelevant but the map must be total).
  for (MRegIdx Old = 0; Old != Fn.NumRegs; ++Old)
    if (Map[Old] == MNoReg)
      Map[Old] = Next++;
  applyRenumbering(Fn, Map);
  Fn.NumRegs = Next;
  return Next;
}

} // namespace

uint16_t vm::compactRegistersByFrequency(MachineFunction &Fn) {
  std::vector<uint64_t> Counts(Fn.NumRegs, 0);
  for (const MInsn &I : Fn.Code) {
    if (definesA(I) && I.A != MNoReg)
      ++Counts[I.A];
    forEachUse(I, [&Counts](MRegIdx R) { ++Counts[R]; });
  }
  std::vector<MRegIdx> Order;
  for (MRegIdx R = Fn.ParamCount; R < Fn.NumRegs; ++R)
    if (Counts[R] > 0)
      Order.push_back(R);
  std::stable_sort(Order.begin(), Order.end(),
                   [&Counts](MRegIdx A, MRegIdx B) {
                     return Counts[A] > Counts[B];
                   });
  return compactWith(Fn, Order);
}

uint16_t vm::compactRegistersByFirstUse(MachineFunction &Fn) {
  std::vector<bool> Seen(Fn.NumRegs, false);
  std::vector<MRegIdx> Order;
  auto Note = [&](MRegIdx R) {
    if (R >= Fn.ParamCount && !Seen[R]) {
      Seen[R] = true;
      Order.push_back(R);
    }
  };
  for (const MInsn &I : Fn.Code) {
    forEachUse(I, Note);
    if (definesA(I) && I.A != MNoReg)
      Note(I.A);
  }
  return compactWith(Fn, Order);
}

uint16_t vm::allocateRegistersLinearScan(MachineFunction &Fn) {
  size_t N = Fn.Code.size();
  if (Fn.NumRegs == 0)
    return 0;

  // Instruction-level liveness over the linear code (each instruction is a
  // one-node CFG block; branches add their target as a successor). A
  // loop-carried value is genuinely live across the back edge and its
  // live positions span the loop; an iteration-local value is not.
  size_t Words = (static_cast<size_t>(Fn.NumRegs) + 63) / 64;
  std::vector<uint64_t> LiveIn((N + 1) * Words, 0);
  std::vector<uint64_t> Tmp(Words);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t Pc = N; Pc-- > 0;) {
      const MInsn &I = Fn.Code[Pc];
      // out = union of successors' live-in.
      std::fill(Tmp.begin(), Tmp.end(), 0);
      bool FallsThrough = I.Op != MOpcode::MGoto &&
                          I.Op != MOpcode::MRet &&
                          I.Op != MOpcode::MRetVoid;
      if (FallsThrough)
        for (size_t W = 0; W != Words; ++W)
          Tmp[W] |= LiveIn[(Pc + 1) * Words + W];
      if ((isMBranch(I.Op) || I.Op == MOpcode::MGuardClass) &&
          I.Target >= 0)
        for (size_t W = 0; W != Words; ++W)
          Tmp[W] |= LiveIn[static_cast<size_t>(I.Target) * Words + W];
      // in = (out - def) | use.
      if (definesA(I) && I.A != MNoReg)
        Tmp[I.A / 64] &= ~(1ULL << (I.A % 64));
      forEachUse(I, [&](MRegIdx R) { Tmp[R / 64] |= 1ULL << (R % 64); });
      for (size_t W = 0; W != Words; ++W) {
        if (LiveIn[Pc * Words + W] != Tmp[W]) {
          LiveIn[Pc * Words + W] = Tmp[W];
          Changed = true;
        }
      }
    }
  }

  // Live intervals [Start, End] from liveness plus def positions.
  constexpr int64_t NoPos = -1;
  std::vector<int64_t> Start(Fn.NumRegs, NoPos), End(Fn.NumRegs, NoPos);
  auto Touch = [&](MRegIdx R, int64_t Pos) {
    if (Start[R] == NoPos || Pos < Start[R])
      Start[R] = Pos;
    if (Pos > End[R])
      End[R] = Pos;
  };
  for (MRegIdx P = 0; P != Fn.ParamCount; ++P)
    Touch(P, 0);
  // Only a register's first and last live pc can move its interval: scan
  // the live words once forwards and once backwards and touch just the set
  // bits not seen before, O(N * Words + NumRegs) instead of testing every
  // register at every pc.
  std::vector<uint64_t> Seen(Words);
  auto TouchFirstSeen = [&](size_t Pc) {
    for (size_t W = 0; W != Words; ++W) {
      uint64_t New = LiveIn[Pc * Words + W] & ~Seen[W];
      Seen[W] |= New;
      for (; New; New &= New - 1)
        Touch(static_cast<MRegIdx>(W * 64 + __builtin_ctzll(New)),
              static_cast<int64_t>(Pc));
    }
  };
  for (size_t Pc = 0; Pc != N; ++Pc)
    TouchFirstSeen(Pc);
  std::fill(Seen.begin(), Seen.end(), 0);
  for (size_t Pc = N; Pc-- > 0;)
    TouchFirstSeen(Pc);
  for (size_t Pc = 0; Pc != N; ++Pc) {
    const MInsn &I = Fn.Code[Pc];
    if (definesA(I) && I.A != MNoReg)
      Touch(I.A, static_cast<int64_t>(Pc));
    forEachUse(I, [&](MRegIdx R) { Touch(R, static_cast<int64_t>(Pc)); });
  }

  // Linear scan, lowest-free-register policy. Parameters are pre-colored
  // to their slots (the calling convention) and release them when dead.
  std::vector<MRegIdx> Assign(Fn.NumRegs, MNoReg);
  std::vector<MRegIdx> Order;
  for (MRegIdx R = 0; R != Fn.NumRegs; ++R)
    if (Start[R] != NoPos)
      Order.push_back(R);
  std::stable_sort(Order.begin(), Order.end(),
                   [&](MRegIdx A, MRegIdx B) {
                     return Start[A] < Start[B];
                   });

  std::vector<int64_t> FreeAt; // per physical register: end of last tenant
  FreeAt.assign(Fn.ParamCount, -2); // param slots reserved from pos 0
  MRegIdx MaxUsed = 0;
  for (MRegIdx P = 0; P != Fn.ParamCount; ++P) {
    Assign[P] = P;
    FreeAt[P] = End[P] == NoPos ? -1 : End[P];
  }
  for (MRegIdx V : Order) {
    if (V < Fn.ParamCount) {
      MaxUsed = std::max<MRegIdx>(MaxUsed, V);
      continue; // pre-colored
    }
    MRegIdx Chosen = MNoReg;
    for (MRegIdx Phys = 0; Phys != FreeAt.size(); ++Phys) {
      if (FreeAt[Phys] < Start[V]) {
        Chosen = Phys;
        break;
      }
    }
    if (Chosen == MNoReg) {
      Chosen = static_cast<MRegIdx>(FreeAt.size());
      FreeAt.push_back(-2);
    }
    FreeAt[Chosen] = End[V];
    Assign[V] = Chosen;
    MaxUsed = std::max(MaxUsed, Chosen);
  }

  // Rewrite the code.
  for (MInsn &I : Fn.Code) {
    if (definesA(I) && I.A != MNoReg)
      I.A = Assign[I.A];
    forEachUseMut(I, [&](MRegIdx &R) { R = Assign[R]; });
  }
  Fn.NumRegs = std::max<uint16_t>(
      Fn.ParamCount, static_cast<uint16_t>(MaxUsed + 1));

  // When demand exceeds the physical file, permute register names by touch
  // frequency (a bijection, so interference is untouched) to keep the hot
  // values inside it: lowest-free-by-start would otherwise hand the spill
  // slots to the innermost loop's temporaries.
  if (Fn.NumRegs > PhysRegCount)
    compactRegistersByFrequency(Fn);
  return Fn.NumRegs;
}

std::string vm::formatMInsn(const MInsn &I) {
  std::string Out = mopcodeName(I.Op);
  auto Reg = [](MRegIdx R) {
    return R == MNoReg ? std::string("_") : format("r%u", unsigned(R));
  };
  Out += " " + Reg(I.A) + ", " + Reg(I.B) + ", " + Reg(I.C);
  if (I.Op == MOpcode::MMovImmI)
    Out += format(" #%lld", static_cast<long long>(I.ImmI));
  if (I.Op == MOpcode::MMovImmF)
    Out += format(" #%g", I.ImmF);
  if (I.Target >= 0)
    Out += format(" ->%d", I.Target);
  if (I.ArgCount) {
    Out += " (";
    for (unsigned N = 0; N != I.ArgCount; ++N)
      Out += (N ? ", " : "") + Reg(I.Args[N]);
    Out += ")";
  }
  return Out;
}
