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

  // Liveness over the linear code's basic blocks. An instruction's
  // successors are the next pc unless it is a goto or a return, and its
  // target when it is a branch or a class guard; a successor at or past
  // the end is the exit, where nothing is live. A loop-carried value is
  // genuinely live across the back edge and its live positions span the
  // loop; an iteration-local value is not.
  auto FallsThrough = [](const MInsn &I) {
    return I.Op != MOpcode::MGoto && I.Op != MOpcode::MRet &&
           I.Op != MOpcode::MRetVoid;
  };
  auto TargetOf = [](const MInsn &I) -> int64_t {
    return (isMBranch(I.Op) || I.Op == MOpcode::MGuardClass) && I.Target >= 0
               ? I.Target
               : -1;
  };
  std::vector<bool> Leader(N + 1, false);
  Leader[0] = true;
  for (size_t Pc = 0; Pc != N; ++Pc) {
    int64_t T = TargetOf(Fn.Code[Pc]);
    if (T >= 0 && static_cast<size_t>(T) < N)
      Leader[static_cast<size_t>(T)] = true;
    if (T >= 0 || !FallsThrough(Fn.Code[Pc]))
      Leader[Pc + 1] = true;
  }
  constexpr uint32_t Exit = ~0u;
  std::vector<uint32_t> BlockStart, BlockAt(N + 1, Exit);
  for (size_t Pc = 0; Pc != N; ++Pc)
    if (Leader[Pc]) {
      BlockAt[Pc] = static_cast<uint32_t>(BlockStart.size());
      BlockStart.push_back(static_cast<uint32_t>(Pc));
    }
  size_t Blocks = BlockStart.size();
  BlockStart.push_back(static_cast<uint32_t>(N));

  // Live intervals [Start, End] span a register's def and use positions
  // and every pc where it is live.
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

  // Per block: upward-exposed uses (Gen) and definitions (Kill), touching
  // every def and use; then the live-in/live-out fixpoint,
  // in = Gen | (out - Kill).
  size_t Words = (static_cast<size_t>(Fn.NumRegs) + 63) / 64;
  auto Row = [Words](std::vector<uint64_t> &Sets, size_t Block) {
    return Sets.data() + Block * Words;
  };
  auto Test = [](const uint64_t *Set, MRegIdx R) {
    return (Set[R / 64] >> (R % 64)) & 1;
  };
  auto Add = [](uint64_t *Set, MRegIdx R) { Set[R / 64] |= 1ULL << (R % 64); };
  std::vector<uint64_t> Gen(Blocks * Words, 0), Kill(Blocks * Words, 0);
  std::vector<uint32_t> Succ(2 * Blocks, Exit);
  for (size_t B = 0; B != Blocks; ++B) {
    uint64_t *G = Row(Gen, B), *K = Row(Kill, B);
    for (size_t Pc = BlockStart[B]; Pc != BlockStart[B + 1]; ++Pc) {
      const MInsn &I = Fn.Code[Pc];
      forEachUse(I, [&](MRegIdx R) {
        if (!Test(K, R))
          Add(G, R);
        Touch(R, static_cast<int64_t>(Pc));
      });
      if (definesA(I) && I.A != MNoReg) {
        Add(K, I.A);
        Touch(I.A, static_cast<int64_t>(Pc));
      }
    }
    const MInsn &Last = Fn.Code[BlockStart[B + 1] - 1];
    if (FallsThrough(Last))
      Succ[2 * B] = BlockAt[BlockStart[B + 1]];
    if (int64_t T = TargetOf(Last); T >= 0 && static_cast<size_t>(T) < N)
      Succ[2 * B + 1] = BlockAt[static_cast<size_t>(T)];
  }
  std::vector<uint64_t> LiveIn(Blocks * Words, 0), LiveOut(Blocks * Words, 0);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t B = Blocks; B-- > 0;) {
      uint64_t *Out = Row(LiveOut, B), *In = Row(LiveIn, B);
      const uint64_t *G = Row(Gen, B), *K = Row(Kill, B);
      for (uint32_t S : {Succ[2 * B], Succ[2 * B + 1]})
        if (S != Exit)
          for (size_t W = 0; W != Words; ++W)
            Out[W] |= Row(LiveIn, S)[W];
      for (size_t W = 0; W != Words; ++W) {
        uint64_t New = G[W] | (Out[W] & ~K[W]);
        if (New != In[W]) {
          In[W] = New;
          Changed = true;
        }
      }
    }
  }

  // Within a block, a register is live at some pc only between a def (or
  // the block start, if live in) and a use (or the block end, if live
  // out). So beyond its defs and uses, an interval needs only the block
  // boundaries where the register is live.
  auto TouchAll = [&](const uint64_t *Set, int64_t Pos) {
    for (size_t W = 0; W != Words; ++W)
      for (uint64_t Bits = Set[W]; Bits; Bits &= Bits - 1)
        Touch(static_cast<MRegIdx>(W * 64 + __builtin_ctzll(Bits)), Pos);
  };
  for (size_t B = 0; B != Blocks; ++B) {
    TouchAll(Row(LiveIn, B), BlockStart[B]);
    TouchAll(Row(LiveOut, B), int64_t(BlockStart[B + 1]) - 1);
  }

  // Linear scan, lowest-free-register policy. Parameters are pre-colored
  // to their slots (the calling convention) and release them when dead.
  // Intervals go in start order, ties in register order: a counting sort
  // over the positions.
  size_t Positions = std::max<size_t>(N, 1);
  std::vector<uint32_t> StartsBefore(Positions + 1, 0);
  for (MRegIdx R = 0; R != Fn.NumRegs; ++R)
    if (Start[R] != NoPos)
      ++StartsBefore[static_cast<size_t>(Start[R]) + 1];
  for (size_t Pos = 0; Pos != Positions; ++Pos)
    StartsBefore[Pos + 1] += StartsBefore[Pos];
  std::vector<MRegIdx> Order(StartsBefore[Positions]);
  for (MRegIdx R = 0; R != Fn.NumRegs; ++R)
    if (Start[R] != NoPos)
      Order[StartsBefore[static_cast<size_t>(Start[R])]++] = R;

  // A physical register is free for an interval once its tenant's
  // interval ends before the new one starts. Tenants wait in a list per
  // end position; intervals arrive in start order, so each list is
  // released once, and the lowest free register is the first set bit.
  std::vector<MRegIdx> Assign(Fn.NumRegs, MNoReg);
  std::vector<MRegIdx> EndingAt(Positions, MNoReg), NextEnding;
  std::vector<uint64_t> Free;
  auto Occupy = [&](MRegIdx Phys, int64_t EndPos) {
    if (Phys >= NextEnding.size())
      NextEnding.resize(size_t(Phys) + 1, MNoReg);
    NextEnding[Phys] = EndingAt[static_cast<size_t>(EndPos)];
    EndingAt[static_cast<size_t>(EndPos)] = Phys;
  };
  size_t Released = 0; // Tenants ending before this position are free.
  MRegIdx PhysCount = Fn.ParamCount; // param slots reserved from pos 0
  MRegIdx MaxUsed = 0;
  for (MRegIdx P = 0; P != Fn.ParamCount; ++P) {
    Assign[P] = P;
    Occupy(P, End[P]);
  }
  for (MRegIdx V : Order) {
    if (V < Fn.ParamCount) {
      MaxUsed = std::max<MRegIdx>(MaxUsed, V);
      continue; // pre-colored
    }
    for (; Released < static_cast<size_t>(Start[V]); ++Released)
      for (MRegIdx Phys = EndingAt[Released]; Phys != MNoReg;
           Phys = NextEnding[Phys]) {
        if (Phys / 64 >= Free.size())
          Free.resize(Phys / 64 + 1, 0);
        Free[Phys / 64] |= 1ULL << (Phys % 64);
      }
    MRegIdx Chosen = PhysCount;
    for (size_t W = 0; W != Free.size(); ++W)
      if (Free[W]) {
        Chosen = static_cast<MRegIdx>(W * 64 + __builtin_ctzll(Free[W]));
        Free[W] &= Free[W] - 1;
        break;
      }
    if (Chosen == PhysCount)
      ++PhysCount;
    Occupy(Chosen, End[V]);
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
