//===- vm/MachineUtil.h - MInsn classification helpers ----------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operand and effect classification for machine instructions, shared by
/// every optimization pass in both compiler backends, plus register
/// renumbering utilities used at code generation time.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_VM_MACHINE_UTIL_H
#define ROPT_VM_MACHINE_UTIL_H

#include "vm/Machine.h"

#include <cassert>
#include <string>

namespace ropt {
namespace vm {

/// True when \p I defines register I.A.
bool definesA(const MInsn &I);

namespace detail {

/// The use-operand walk behind forEachUse/forEachUseMut; \p InsnT is MInsn
/// or const MInsn.
template <typename InsnT, typename Callback>
void visitUses(InsnT &I, Callback &Fn) {
  auto Visit = [&Fn](auto &R) {
    if (R != MNoReg)
      Fn(R);
  };
  switch (I.Op) {
  case MOpcode::MNop:
  case MOpcode::MMovImmI:
  case MOpcode::MMovImmF:
  case MOpcode::MGoto:
  case MOpcode::MSafepoint:
  case MOpcode::MLoadStatic:
  case MOpcode::MNewInstance:
  case MOpcode::MRetVoid:
    break;

  case MOpcode::MMov:
  case MOpcode::MNegI:
  case MOpcode::MNegF:
  case MOpcode::MSqrtF:
  case MOpcode::MI2F:
  case MOpcode::MF2I:
  case MOpcode::MLoadSlot:
  case MOpcode::MArrayLen:
  case MOpcode::MNewArray:
  case MOpcode::MCheckNull:
  case MOpcode::MCheckDiv:
  case MOpcode::MGuardClass:
  case MOpcode::MRet:
    Visit(I.B);
    break;

  case MOpcode::MAddI: case MOpcode::MSubI: case MOpcode::MMulI:
  case MOpcode::MDivI: case MOpcode::MRemI: case MOpcode::MAndI:
  case MOpcode::MOrI: case MOpcode::MXorI: case MOpcode::MShlI:
  case MOpcode::MShrI:
  case MOpcode::MAddF: case MOpcode::MSubF: case MOpcode::MMulF:
  case MOpcode::MDivF: case MOpcode::MCmpF:
  case MOpcode::MCheckBounds:
  case MOpcode::MALoad:
  case MOpcode::MIfEq: case MOpcode::MIfNe: case MOpcode::MIfLt:
  case MOpcode::MIfLe: case MOpcode::MIfGt: case MOpcode::MIfGe:
  case MOpcode::MIfEqz: case MOpcode::MIfNez: case MOpcode::MIfLtz:
  case MOpcode::MIfLez: case MOpcode::MIfGtz: case MOpcode::MIfGez:
    Visit(I.B);
    Visit(I.C);
    break;

  case MOpcode::MStoreSlot: // A is the stored value, B the object
    Visit(I.A);
    Visit(I.B);
    break;
  case MOpcode::MStoreStatic:
    Visit(I.A);
    break;
  case MOpcode::MAStore:
    Visit(I.A);
    Visit(I.B);
    Visit(I.C);
    break;

  case MOpcode::MCallStatic:
  case MOpcode::MCallVirtual:
  case MOpcode::MCallNative:
  case MOpcode::MIntrinsic:
    for (unsigned N = 0; N != I.ArgCount; ++N)
      Fn(I.Args[N]);
    break;

  case MOpcode::MOpcodeCount:
    assert(false && "invalid opcode");
    break;
  }
}

} // namespace detail

/// Invokes \p Fn for every register the instruction reads (B/C/Args and,
/// for stores, the stored value in A).
template <typename Callback> void forEachUse(const MInsn &I, Callback &&Fn) {
  auto ByValue = [&Fn](MRegIdx R) { Fn(R); };
  detail::visitUses(I, ByValue);
}

/// Invokes \p Fn for a *mutable reference* to every use operand, allowing
/// passes to rewrite them in place.
template <typename Callback> void forEachUseMut(MInsn &I, Callback &&Fn) {
  detail::visitUses(I, Fn);
}

/// True for instructions with no effect beyond writing I.A and that cannot
/// trap: immediates, moves, non-div ALU, FP arithmetic, compares,
/// conversions. Safe to remove when dead and to value-number.
bool isPureOp(MOpcode Op);

/// True for memory reads (slot/static/array loads, array length).
bool isLoadOp(MOpcode Op);

/// True for memory writes (slot/static/array stores).
bool isStoreOp(MOpcode Op);

/// True for the three call opcodes (not intrinsics).
bool isCallOp(MOpcode Op);

/// True for runtime checks (null/bounds/div).
bool isCheckOp(MOpcode Op);

/// True when the instruction may trap, perform I/O, allocate, or otherwise
/// must not be removed even if its result is unused.
bool hasSideEffects(const MInsn &I);

/// Renumbers virtual registers above the parameter window so the most
/// frequently used ones land in the physical register file (indexes below
/// PhysRegCount). Parameters keep their positions — they are the calling
/// convention. Returns the new register count.
uint16_t compactRegistersByFrequency(MachineFunction &Fn);

/// Same, but in first-use order — a deliberately weaker allocation the
/// search space exposes as an alternative.
uint16_t compactRegistersByFirstUse(MachineFunction &Fn);

/// Linear-scan register allocation over occurrence intervals: computes a
/// conservative live interval per virtual register (extended across
/// backward branches so loop-carried values never share a register with
/// loop-local ones), then assigns the lowest free register to each
/// interval in start order. Parameters keep their calling-convention slots
/// while live. This is the strong allocator; the compact-by-frequency and
/// first-use heuristics remain in the search space as weaker choices.
/// Returns the new register count (the maximum live overlap).
uint16_t allocateRegistersLinearScan(MachineFunction &Fn);

} // namespace vm
} // namespace ropt

#endif // ROPT_VM_MACHINE_UTIL_H
