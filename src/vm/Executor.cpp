//===- vm/Executor.cpp - Machine-code executor tier -------------------------===//
//
// Runs compiled MachineFunctions under the cycle cost model. Unlike the
// interpreter, nothing here re-checks what the compiler chose not to check:
// an unsound optimization produces genuine memory corruption, wild traps,
// or silently wrong results — exactly the failure classes Figure 1 counts.
//
// A function is decoded once, when a CodeCache installs it: each MInsn
// becomes a DecodedInsn naming its handler, with its operands, a checked
// branch target and the static cycles of its straight-line block inline.
// Execution is direct-threaded: every handler ends by jumping through a
// label table to the next instruction's handler (computed goto). A block
// that fits the instruction budget is counted and charged its static
// cycles once, on entry; only a block that does not fit is counted
// instruction by instruction. The frame's cycle count, instruction count
// and budget remainder stay in locals between the flush points of
// DESIGN.md §20. Branches out of the code and running off its end land
// on a fall-off slot after the last instruction, so there is no
// per-instruction range test either. DESIGN.md §21 gives the format and
// why every charged cycle, trap and instruction count is unchanged.
//
//===----------------------------------------------------------------------===//

#include "vm/MachineUtil.h"
#include "vm/Runtime.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#if !defined(__GNUC__) && !defined(__clang__)
#error "the executor dispatches by computed goto (GCC or Clang)"
#endif

using namespace ropt;
using namespace ropt::vm;

namespace {

int64_t safeDiv(int64_t A, int64_t B) {
  if (B == -1 && A == std::numeric_limits<int64_t>::min())
    return A;
  return A / B;
}

int64_t safeRem(int64_t A, int64_t B) {
  if (B == -1 && A == std::numeric_limits<int64_t>::min())
    return 0;
  return A % B;
}

int64_t doubleToInt(double D) {
  if (std::isnan(D))
    return 0;
  if (D >= 9.2233720368547758e18)
    return std::numeric_limits<int64_t>::max();
  if (D <= -9.2233720368547758e18)
    return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(D);
}

double runIntrinsic(IntrinsicKind Kind, const Value *Args) {
  switch (Kind) {
  case IntrinsicKind::Sin: return std::sin(Args[0].asF64());
  case IntrinsicKind::Cos: return std::cos(Args[0].asF64());
  case IntrinsicKind::Tan: return std::tan(Args[0].asF64());
  case IntrinsicKind::Exp: return std::exp(Args[0].asF64());
  case IntrinsicKind::Log: return std::log(Args[0].asF64());
  case IntrinsicKind::Floor: return std::floor(Args[0].asF64());
  case IntrinsicKind::AbsF: return std::fabs(Args[0].asF64());
  case IntrinsicKind::Pow:
    return std::pow(Args[0].asF64(), Args[1].asF64());
  case IntrinsicKind::Atan2:
    return std::atan2(Args[0].asF64(), Args[1].asF64());
  case IntrinsicKind::MinF: {
    double A = Args[0].asF64(), B = Args[1].asF64();
    return A < B ? A : B;
  }
  case IntrinsicKind::MaxF: {
    double A = Args[0].asF64(), B = Args[1].asF64();
    return A > B ? A : B;
  }
  case IntrinsicKind::IntrinsicCount:
    break;
  }
  return 0.0;
}


// --- Decoding -------------------------------------------------------------------

/// Every opcode in MOpcode order: one handler each, then MOpcodeCount's,
/// which is the counted MemoryFault of an invalid instruction.
#define ROPT_MOPCODES(X)                                                     \
  X(MNop) X(MMovImmI) X(MMovImmF) X(MMov)                                    \
  X(MAddI) X(MSubI) X(MMulI) X(MDivI) X(MRemI)                               \
  X(MAndI) X(MOrI) X(MXorI) X(MShlI) X(MShrI) X(MNegI)                       \
  X(MAddF) X(MSubF) X(MMulF) X(MDivF) X(MNegF) X(MCmpF) X(MSqrtF)            \
  X(MI2F) X(MF2I)                                                            \
  X(MGoto)                                                                   \
  X(MIfEq) X(MIfNe) X(MIfLt) X(MIfLe) X(MIfGt) X(MIfGe)                      \
  X(MIfEqz) X(MIfNez) X(MIfLtz) X(MIfLez) X(MIfGtz) X(MIfGez)                \
  X(MCheckNull) X(MCheckBounds) X(MCheckDiv) X(MSafepoint) X(MGuardClass)    \
  X(MLoadSlot) X(MStoreSlot) X(MLoadStatic) X(MStoreStatic)                  \
  X(MALoad) X(MAStore) X(MArrayLen)                                          \
  X(MNewInstance) X(MNewArray)                                               \
  X(MCallStatic) X(MCallVirtual) X(MCallNative) X(MIntrinsic)                \
  X(MRet) X(MRetVoid)                                                        \
  X(MOpcodeCount)

#define ROPT_OPCODE_ENTRY(Op) MOpcode::Op,
constexpr MOpcode HandlerOrder[] = {ROPT_MOPCODES(ROPT_OPCODE_ENTRY)};
#undef ROPT_OPCODE_ENTRY

constexpr bool handlersInOpcodeOrder() {
  for (size_t I = 0; I != std::size(HandlerOrder); ++I)
    if (static_cast<size_t>(HandlerOrder[I]) != I)
      return false;
  return std::size(HandlerOrder) ==
         static_cast<size_t>(MOpcode::MOpcodeCount) + 1;
}
static_assert(handlersInOpcodeOrder(),
              "ROPT_MOPCODES must list every MOpcode in order");

/// Handler indexes: an opcode's own value; MOpcodeCount's slot for an
/// invalid instruction; then the fall-off slot's handler. BlockStart
/// flags the first instruction of a straight-line block.
constexpr uint8_t InvalidHandler =
    static_cast<uint8_t>(MOpcode::MOpcodeCount);
constexpr uint8_t FallOffHandler = InvalidHandler + 1;
constexpr uint8_t BlockStart = 0x40;
constexpr uint8_t HandlerMask = BlockStart - 1;
static_assert(FallOffHandler <= HandlerMask, "handler indexes fit the mask");

/// True when control may leave \p Op other than to the next instruction,
/// or the frame flushes at it: the next instruction starts a block.
bool endsBlock(MOpcode Op) {
  switch (Op) {
  case MOpcode::MGoto: case MOpcode::MGuardClass:
  case MOpcode::MCallStatic: case MOpcode::MCallVirtual:
  case MOpcode::MCallNative:
  case MOpcode::MRet: case MOpcode::MRetVoid:
    return true;
  default:
    return isMCondBranch(Op);
  }
}

/// The opcode's fixed cost, where no trap inside the instruction can skip
/// it. Division (charged only past its zero test), memory and allocation
/// costs, mispredicts, GC pauses and the JNI transition stay in the
/// handlers.
uint32_t fixedCycles(const MInsn &I, const CycleCostModel &CM) {
  switch (I.Op) {
  case MOpcode::MMovImmI: case MOpcode::MMovImmF: case MOpcode::MMov:
    return CM.MoveCycles;
  case MOpcode::MAddI: case MOpcode::MSubI: case MOpcode::MAndI:
  case MOpcode::MOrI: case MOpcode::MXorI: case MOpcode::MShlI:
  case MOpcode::MShrI: case MOpcode::MNegI:
    return CM.AluCycles;
  case MOpcode::MMulI:
    return CM.MulCycles;
  case MOpcode::MAddF: case MOpcode::MSubF: case MOpcode::MNegF:
  case MOpcode::MCmpF:
    return CM.FAddCycles;
  case MOpcode::MMulF:
    return CM.FMulCycles;
  case MOpcode::MDivF:
    return CM.FDivCycles;
  case MOpcode::MSqrtF:
    return CM.FSqrtCycles;
  case MOpcode::MI2F: case MOpcode::MF2I:
    return CM.ConvCycles;
  case MOpcode::MGoto:
    return CM.BranchCycles;
  case MOpcode::MCheckNull: case MOpcode::MCheckBounds:
  case MOpcode::MCheckDiv: case MOpcode::MGuardClass:
    return CM.CheckCycles;
  case MOpcode::MSafepoint:
    return CM.SafepointCycles;
  case MOpcode::MCallVirtual:
    return CM.VirtualDispatchCycles;
  case MOpcode::MIntrinsic:
    return intrinsicWorkCycles(static_cast<IntrinsicKind>(I.Idx));
  case MOpcode::MRet: case MOpcode::MRetVoid:
    return CM.ReturnCycles;
  default:
    return isMCondBranch(I.Op) ? CM.BranchCycles : 0;
  }
}

/// Extra cycles per touch of a register that did not fit the physical
/// register file: the regalloc quality dimension. A function whose frame
/// fits the register file cannot touch a spilled register at all. Every
/// non-empty A/B/C field and argument counts, whatever the opcode.
uint32_t spillCycles(const MInsn &I, uint16_t NumRegs,
                     const CycleCostModel &CM) {
  if (NumRegs <= PhysRegCount)
    return 0;
  uint32_t Touches = 0;
  for (MRegIdx R : {I.A, I.B, I.C})
    if (R != MNoReg && R >= PhysRegCount)
      ++Touches;
  for (unsigned N = 0; N != std::min<unsigned>(I.ArgCount, MMaxArgs); ++N)
    if (I.Args[N] >= PhysRegCount)
      ++Touches;
  return Touches * CM.SpillTouchCycles;
}

/// True when every register \p I's handler reads or writes lies inside a
/// frame of \p NumRegs registers. These are the operands forEachUse and
/// definesA report, but a field counts even when empty (MNoReg): the
/// handlers read B and C and write A regardless. Only a compare-branch's
/// C (empty: compare with zero) and a call's A (empty: drop the result)
/// may be empty.
bool operandsInFrame(const MInsn &I, uint16_t NumRegs) {
  if (I.ArgCount > MMaxArgs)
    return false;
  bool In = true;
  auto Check = [&In, NumRegs](MRegIdx R) { In = In && R < NumRegs; };
  switch (I.Op) {
  case MOpcode::MNop: case MOpcode::MGoto: case MOpcode::MSafepoint:
  case MOpcode::MRetVoid:
    break;
  case MOpcode::MMovImmI: case MOpcode::MMovImmF:
  case MOpcode::MLoadStatic: case MOpcode::MStoreStatic:
  case MOpcode::MNewInstance:
    Check(I.A);
    break;
  case MOpcode::MCheckNull: case MOpcode::MCheckDiv:
  case MOpcode::MGuardClass: case MOpcode::MRet:
    Check(I.B);
    break;
  case MOpcode::MCheckBounds:
    Check(I.B);
    Check(I.C);
    break;
  case MOpcode::MMov: case MOpcode::MNegI: case MOpcode::MNegF:
  case MOpcode::MSqrtF: case MOpcode::MI2F: case MOpcode::MF2I:
  case MOpcode::MLoadSlot: case MOpcode::MStoreSlot:
  case MOpcode::MArrayLen: case MOpcode::MNewArray:
    Check(I.A);
    Check(I.B);
    break;
  case MOpcode::MCallStatic: case MOpcode::MCallVirtual:
  case MOpcode::MCallNative: case MOpcode::MIntrinsic:
    forEachUse(I, Check); // the arguments
    if (I.A != MNoReg || I.Op == MOpcode::MIntrinsic)
      Check(I.A);
    break;
  default:
    if (isMCondBranch(I.Op)) {
      Check(I.B);
      if (I.C != MNoReg)
        Check(I.C);
    } else { // binary arithmetic, MALoad, MAStore
      Check(I.A);
      Check(I.B);
      Check(I.C);
    }
    break;
  }
  return In;
}

} // namespace

std::shared_ptr<const DecodedFunction>
vm::decodeMachineFunction(std::shared_ptr<const MachineFunction> Fn) {
  ROPT_METRIC_INC("vm.decodes");
  // Runtimes charge the default cost model (Runtime::Costs is never
  // reconfigured), so static cycles are fixed at decode time.
  const CycleCostModel CM;
  auto Out = std::make_shared<DecodedFunction>();
  const std::vector<MInsn> &Code = Fn->Code;
  const uint32_t FallOff = static_cast<uint32_t>(Code.size());
  Out->Code.resize(Code.size() + 1);
  // The fall-off slot is a block of no instructions.
  Out->Code[FallOff].Handler = FallOffHandler | BlockStart;
  std::vector<uint32_t> Static(Code.size());
  std::vector<bool> StartsBlock(Code.size() + 1, false);
  StartsBlock[0] = true;
  for (uint32_t Pc = 0; Pc != FallOff; ++Pc) {
    const MInsn &I = Code[Pc];
    DecodedInsn &D = Out->Code[Pc];
    D.Hint = I.Hint;
    D.A = I.A;
    D.B = I.B;
    D.C = I.C;
    D.Idx = I.Idx;
    D.Target = I.Target >= 0 && static_cast<uint32_t>(I.Target) < FallOff
                   ? static_cast<uint32_t>(I.Target)
                   : FallOff;
    if (isMBranch(I.Op) || I.Op == MOpcode::MGuardClass)
      StartsBlock[D.Target] = true;
    if (endsBlock(I.Op))
      StartsBlock[Pc + 1] = true;
    Static[Pc] = spillCycles(I, Fn->NumRegs, CM);
    if (I.Op > MOpcode::MOpcodeCount) {
      // Not an opcode at all: a counted no-op.
      D.Handler = static_cast<uint8_t>(MOpcode::MNop);
      continue;
    }
    if (I.Op == MOpcode::MOpcodeCount || !operandsInFrame(I, Fn->NumRegs)) {
      D.Handler = InvalidHandler;
      continue;
    }
    D.Handler = static_cast<uint8_t>(I.Op);
    Static[Pc] += fixedCycles(I, CM);
    if (I.Op == MOpcode::MMovImmI)
      D.setImm(Value::fromI64(I.ImmI).Raw);
    else if (I.Op == MOpcode::MMovImmF)
      D.setImm(Value::fromF64(I.ImmF).Raw);
    else if (isMCondBranch(I.Op)) {
      // The comparison kind comes from the opcode, the right-hand side
      // from C: register C when present, zero when empty.
      unsigned Kind = (static_cast<unsigned>(I.Op) -
                       static_cast<unsigned>(MOpcode::MIfEq)) % 6;
      MOpcode Base = I.C == MNoReg ? MOpcode::MIfEqz : MOpcode::MIfEq;
      D.Handler = static_cast<uint8_t>(static_cast<unsigned>(Base) + Kind);
    }
  }
  // Suffix sums over each block, back to front.
  for (uint32_t Pc = FallOff; Pc-- != 0;) {
    DecodedInsn &D = Out->Code[Pc];
    D.BlockInsns = 1;
    D.BlockCycles = Static[Pc];
    if (!StartsBlock[Pc + 1]) {
      D.BlockInsns += Out->Code[Pc + 1].BlockInsns;
      D.BlockCycles += Out->Code[Pc + 1].BlockCycles;
    }
    if (StartsBlock[Pc])
      D.Handler |= BlockStart;
  }
  Out->Source = std::move(Fn);
  return Out;
}

// --- Execution ------------------------------------------------------------------

Value Runtime::execMachine(const DecodedFunction &Fn,
                           const std::vector<Value> &Args) {
  const MachineFunction &Src = *Fn.Source;
  assert(Args.size() == Src.ParamCount && "argument count mismatch");

  // Frames overwhelmingly fit the inline buffer, so a call costs no
  // allocation; only pathological register counts spill to the heap.
  const size_t FrameRegs = std::max<size_t>(Src.NumRegs, Args.size());
  Value StackRegs[48];
  std::vector<Value> HeapRegs;
  Value *R;
  if (FrameRegs <= 48) {
    std::fill_n(StackRegs, FrameRegs, Value());
    R = StackRegs;
  } else {
    HeapRegs.resize(FrameRegs);
    R = HeapRegs.data(); // never resized below
  }
  for (size_t I = 0; I != Args.size(); ++I)
    R[I] = Args[I];

  // Scratch argument buffer: one allocation per frame, not per call insn.
  std::vector<Value> CallArgs;
  Value CallRet;

  // Locals, not Runtime members: the VM's simulated stores cannot alias
  // them. The frame's counts live in Cycles/Insns/Left and move through
  // Frame only at the flush points (invoke, native call, return, trap).
  const CycleCostModel CM = Costs;
  FrameCost Frame = openFrame();
  uint64_t Cycles = CM.CallCycles;
  uint64_t Insns = 0;
  uint64_t Left = Frame.InsnsLeft;

  const DecodedInsn *const Code = Fn.Code.data();
  const DecodedInsn *D = Code;
  const uint64_t SiteBase = static_cast<uint64_t>(Src.Method) << 20;

  // Straight-line blocks (DESIGN.md §21). Entering a block that fits the
  // budget counts all its instructions and charges all their static
  // cycles at once, then runs it through Batched, whose entries are the
  // handlers themselves. A block that does not fit runs through Stepped,
  // which counts and charges one instruction at a time, so Timeout still
  // fires on instruction InsnBudget + 1. Both tables send a block's first
  // instruction to BlockEntry. At a flush point inside a batched block,
  // SETTLE() takes back what was charged for the instructions after it.
#define ROPT_HANDLER_LABEL(Op) &&H_##Op,
#define ROPT_X4(L) L, L, L, L
#define ROPT_X16(L) ROPT_X4(L), ROPT_X4(L), ROPT_X4(L), ROPT_X4(L)
#define ROPT_X64(L) ROPT_X16(L), ROPT_X16(L), ROPT_X16(L), ROPT_X16(L)
  static const void *const Batched[] = {
      ROPT_MOPCODES(ROPT_HANDLER_LABEL) &&H_FallOff,
      // Unused handler indexes up to the mask.
      &&H_MOpcodeCount, &&H_MOpcodeCount, &&H_MOpcodeCount,
      &&H_MOpcodeCount, &&H_MOpcodeCount,
      ROPT_X64(&&BlockEntry)};
  static const void *const Stepped[] = {ROPT_X64(&&StepOne),
                                        ROPT_X64(&&BlockEntry)};
#undef ROPT_X64
#undef ROPT_X16
#undef ROPT_X4
#undef ROPT_HANDLER_LABEL
  static_assert(std::size(Batched) == 2 * BlockStart &&
                    std::size(Stepped) == 2 * BlockStart,
                "one entry per handler index, with and without BlockStart");
  const void *const *Mode = Batched;

  // Un-counts the instructions of D's block after D, and their static
  // cycles, when D's block was entered batched.
#define SETTLE()                                                             \
  do {                                                                       \
    if (Mode == Batched && D->BlockInsns > 1) {                              \
      Insns -= D[1].BlockInsns;                                              \
      Cycles -= D[1].BlockCycles;                                            \
    }                                                                        \
  } while (false)

#define NEXT()                                                               \
  do {                                                                       \
    ++D;                                                                     \
    goto *Mode[D->Handler];                                                  \
  } while (false)
  // D starts a block: batch it if it fits the budget.
#define ENTER_BLOCK()                                                        \
  do {                                                                       \
    if (__builtin_expect(Insns + D->BlockInsns <= Left, 1)) {                \
      Mode = Batched;                                                        \
      Insns += D->BlockInsns;                                                \
      Cycles += D->BlockCycles;                                              \
      goto *Batched[D->Handler & HandlerMask];                               \
    }                                                                        \
    goto StepIn;                                                             \
  } while (false)
#define NEXT_BLOCK()                                                         \
  do {                                                                       \
    ++D;                                                                     \
    ENTER_BLOCK();                                                           \
  } while (false)
#define JUMP(Target)                                                         \
  do {                                                                       \
    D = Code + (Target);                                                     \
    ENTER_BLOCK();                                                           \
  } while (false)
#define TRAP(Kind)                                                           \
  do {                                                                       \
    Trap = TrapKind::Kind;                                                   \
    goto TrapExit;                                                           \
  } while (false)
  // Hand the counts to Frame before a flush point; take back what the
  // flush left (zero counts and a refreshed budget).
#define SAVE_FRAME()                                                         \
  do {                                                                       \
    SETTLE();                                                                \
    Frame.Cycles = Cycles;                                                   \
    Frame.Insns = Insns;                                                     \
  } while (false)
#define LOAD_FRAME()                                                         \
  (Cycles = Frame.Cycles, Insns = Frame.Insns, Left = Frame.InsnsLeft)

  // Mispredict cost of a conditional branch at D that went Taken. Hinted
  // branches are statically predicted; the rest consult the predictor.
  auto BranchPenalty = [&](const DecodedInsn *At, bool Taken) -> uint64_t {
    uint64_t Site = SiteBase ^ static_cast<uint64_t>(At - Code);
    bool PredictedRight;
    if (At->Hint == BranchHint::Likely)
      PredictedRight = Taken;
    else if (At->Hint == BranchHint::Unlikely)
      PredictedRight = !Taken;
    else
      PredictedRight = Predictor.predictAndUpdate(Site, Taken);
    noteBranch(Site, Taken);
    return PredictedRight ? 0 : CM.BranchMispredictPenalty;
  };
#define BRANCH_IF(Cond)                                                      \
  do {                                                                       \
    bool Taken = (Cond);                                                     \
    Cycles += BranchPenalty(D, Taken);                                       \
    if (Taken)                                                               \
      JUMP(D->Target);                                                       \
    NEXT_BLOCK();                                                            \
  } while (false)

  // Arguments of the call or intrinsic at D, from its source MInsn.
  auto CallSource = [&](const DecodedInsn *At) -> const MInsn & {
    return Src.Code[static_cast<size_t>(At - Code)];
  };
  auto LoadCallArgs = [&](const MInsn &I) {
    CallArgs.resize(I.ArgCount);
    for (unsigned N = 0; N != I.ArgCount; ++N)
      CallArgs[N] = R[I.Args[N]];
  };

BlockEntry:
  ENTER_BLOCK();
StepIn:
  Mode = Stepped;
StepOne:
  if (++Insns > Left)
    TRAP(Timeout);
  // D's own static cycles: its block suffix minus the next one's.
  Cycles += D->BlockCycles - (D->BlockInsns > 1 ? D[1].BlockCycles : 0);
  goto *Batched[D->Handler & HandlerMask];

H_MNop:
  NEXT();
H_MMovImmI:
H_MMovImmF:
  R[D->A].Raw = D->imm();
  NEXT();
H_MMov:
  R[D->A] = R[D->B];
  NEXT();

  // Java longs wrap: compute on the raw two's-complement bits.
H_MAddI:
  R[D->A].Raw = R[D->B].Raw + R[D->C].Raw;
  NEXT();
H_MSubI:
  R[D->A].Raw = R[D->B].Raw - R[D->C].Raw;
  NEXT();
H_MMulI:
  R[D->A].Raw = R[D->B].Raw * R[D->C].Raw;
  NEXT();
H_MDivI: {
  // Unchecked: the compiler must have emitted MCheckDiv if the divisor
  // can be zero. Hardware still faults on zero.
  int64_t Divisor = R[D->C].asI64();
  if (Divisor == 0)
    TRAP(DivByZero);
  R[D->A] = Value::fromI64(safeDiv(R[D->B].asI64(), Divisor));
  Cycles += CM.DivCycles;
  NEXT();
}
H_MRemI: {
  int64_t Divisor = R[D->C].asI64();
  if (Divisor == 0)
    TRAP(DivByZero);
  R[D->A] = Value::fromI64(safeRem(R[D->B].asI64(), Divisor));
  Cycles += CM.DivCycles;
  NEXT();
}
H_MAndI:
  R[D->A] = Value::fromI64(R[D->B].asI64() & R[D->C].asI64());
  NEXT();
H_MOrI:
  R[D->A] = Value::fromI64(R[D->B].asI64() | R[D->C].asI64());
  NEXT();
H_MXorI:
  R[D->A] = Value::fromI64(R[D->B].asI64() ^ R[D->C].asI64());
  NEXT();
H_MShlI:
  R[D->A] = Value::fromI64(R[D->B].asI64() << (R[D->C].asI64() & 63));
  NEXT();
H_MShrI:
  R[D->A] = Value::fromI64(R[D->B].asI64() >> (R[D->C].asI64() & 63));
  NEXT();
H_MNegI:
  R[D->A].Raw = 0 - R[D->B].Raw;
  NEXT();

H_MAddF:
  R[D->A] = Value::fromF64(R[D->B].asF64() + R[D->C].asF64());
  NEXT();
H_MSubF:
  R[D->A] = Value::fromF64(R[D->B].asF64() - R[D->C].asF64());
  NEXT();
H_MMulF:
  R[D->A] = Value::fromF64(R[D->B].asF64() * R[D->C].asF64());
  NEXT();
H_MDivF:
  R[D->A] = Value::fromF64(R[D->B].asF64() / R[D->C].asF64());
  NEXT();
H_MNegF:
  R[D->A] = Value::fromF64(-R[D->B].asF64());
  NEXT();
H_MCmpF: {
  double A = R[D->B].asF64(), B = R[D->C].asF64();
  R[D->A] = Value::fromI64((A < B) ? -1 : (A == B ? 0 : 1));
  NEXT();
}
H_MSqrtF:
  R[D->A] = Value::fromF64(std::sqrt(R[D->B].asF64()));
  NEXT();
H_MI2F:
  R[D->A] = Value::fromF64(static_cast<double>(R[D->B].asI64()));
  NEXT();
H_MF2I:
  R[D->A] = Value::fromI64(doubleToInt(R[D->B].asF64()));
  NEXT();

H_MGoto:
  JUMP(D->Target);
  // Two-register compares; the decoder sends an empty C to the zero forms.
H_MIfEq:
  BRANCH_IF(R[D->B].asI64() == R[D->C].asI64());
H_MIfNe:
  BRANCH_IF(R[D->B].asI64() != R[D->C].asI64());
H_MIfLt:
  BRANCH_IF(R[D->B].asI64() < R[D->C].asI64());
H_MIfLe:
  BRANCH_IF(R[D->B].asI64() <= R[D->C].asI64());
H_MIfGt:
  BRANCH_IF(R[D->B].asI64() > R[D->C].asI64());
H_MIfGe:
  BRANCH_IF(R[D->B].asI64() >= R[D->C].asI64());
H_MIfEqz:
  BRANCH_IF(R[D->B].asI64() == 0);
H_MIfNez:
  BRANCH_IF(R[D->B].asI64() != 0);
H_MIfLtz:
  BRANCH_IF(R[D->B].asI64() < 0);
H_MIfLez:
  BRANCH_IF(R[D->B].asI64() <= 0);
H_MIfGtz:
  BRANCH_IF(R[D->B].asI64() > 0);
H_MIfGez:
  BRANCH_IF(R[D->B].asI64() >= 0);

H_MCheckNull:
  if (R[D->B].isNullRef())
    TRAP(NullPointer);
  NEXT();
H_MCheckBounds: {
  uint64_t Arr = R[D->B].asRef();
  ObjectHeader Header;
  chargeMemRead(Cycles, Arr);
  if (!TheHeap.readHeader(Arr, Header))
    TRAP(MemoryFault);
  int64_t Index = R[D->C].asI64();
  if (Index < 0 || static_cast<uint64_t>(Index) >= Header.Count)
    TRAP(OutOfBounds);
  NEXT();
}
H_MCheckDiv:
  if (R[D->B].asI64() == 0)
    TRAP(DivByZero);
  NEXT();
H_MSafepoint:
  Cycles += TheHeap.pollSafepoint(CM.GcPauseCycles);
  NEXT();
H_MGuardClass: {
  uint64_t Obj = R[D->B].asRef();
  ObjectHeader Header;
  chargeMemRead(Cycles, Obj);
  if (Obj == 0 || !TheHeap.readHeader(Obj, Header))
    TRAP(MemoryFault);
  if (Header.ClassOrElem != D->Idx) {
    // Speculation failed: branch to the slow path.
    Cycles += CM.BranchMispredictPenalty;
    JUMP(D->Target);
  }
  NEXT_BLOCK();
}

H_MLoadSlot: {
  uint64_t Bits = 0;
  if (!memLoad(Cycles, Heap::slotAddr(R[D->B].asRef(), D->Idx), Bits))
    goto TrapExit;
  R[D->A].Raw = Bits;
  NEXT();
}
H_MStoreSlot:
  if (!memStore(Cycles, Heap::slotAddr(R[D->B].asRef(), D->Idx),
                R[D->A].Raw))
    goto TrapExit;
  NEXT();
H_MLoadStatic: {
  uint64_t Bits = 0;
  if (!memLoad(Cycles, staticSlotAddr(D->Idx), Bits))
    goto TrapExit;
  R[D->A].Raw = Bits;
  NEXT();
}
H_MStoreStatic:
  if (!memStore(Cycles, staticSlotAddr(D->Idx), R[D->A].Raw))
    goto TrapExit;
  NEXT();
H_MALoad: {
  // Unchecked by design: a wrong index after an unsound bounds-check
  // elimination reads whatever lives there.
  uint64_t Addr = Heap::elemAddr(R[D->B].asRef(),
                                 static_cast<uint64_t>(R[D->C].asI64()));
  uint64_t Bits = 0;
  if (!memLoad(Cycles, Addr, Bits))
    goto TrapExit;
  R[D->A].Raw = Bits;
  NEXT();
}
H_MAStore: {
  uint64_t Addr = Heap::elemAddr(R[D->B].asRef(),
                                 static_cast<uint64_t>(R[D->C].asI64()));
  if (!memStore(Cycles, Addr, R[D->A].Raw))
    goto TrapExit;
  NEXT();
}
H_MArrayLen: {
  uint64_t Arr = R[D->B].asRef();
  ObjectHeader Header;
  chargeMemRead(Cycles, Arr);
  if (!TheHeap.readHeader(Arr, Header))
    TRAP(MemoryFault);
  R[D->A] = Value::fromI64(static_cast<int64_t>(Header.Count));
  NEXT();
}

H_MNewInstance: {
  const dex::ClassInfo &Cls = Dex.classAt(D->Idx);
  Cycles += CM.AllocBaseCycles + CM.AllocPerSlotCycles * Cls.InstanceSlots;
  noteAlloc(Cls.InstanceSlots);
  R[D->A] = Value::fromRef(TheHeap.allocate(ObjKind::Object, Cls.Id,
                                            Cls.InstanceSlots, Trap));
  if (Trap != TrapKind::None)
    goto TrapExit;
  NEXT();
}
H_MNewArray: {
  int64_t Len = R[D->B].asI64();
  if (Len < 0)
    TRAP(OutOfBounds);
  Cycles += CM.AllocBaseCycles +
            CM.AllocPerSlotCycles * static_cast<uint64_t>(Len);
  noteAlloc(static_cast<uint64_t>(Len));
  R[D->A] = Value::fromRef(TheHeap.allocate(static_cast<ObjKind>(D->Idx), 0,
                                            static_cast<uint64_t>(Len),
                                            Trap));
  if (Trap != TrapKind::None)
    goto TrapExit;
  NEXT();
}

H_MCallStatic:
  LoadCallArgs(CallSource(D));
  SAVE_FRAME();
  CallRet = invokeFrom(Frame, D->Idx, CallArgs);
  goto AfterCall;
H_MCallNative:
  LoadCallArgs(CallSource(D));
  SAVE_FRAME();
  CallRet = callNativeFrom(Frame, D->Idx, CallArgs);
  goto AfterCall;
H_MCallVirtual: {
  LoadCallArgs(CallSource(D));
  uint64_t Receiver = CallArgs[0].asRef();
  ObjectHeader Header;
  chargeMemRead(Cycles, Receiver);
  if (Receiver == 0 || !TheHeap.readHeader(Receiver, Header))
    TRAP(MemoryFault);
  dex::ClassId Cls = Header.ClassOrElem;
  // A corrupted header (e.g. after an out-of-bounds store) yields a
  // garbage class id: crash like a wild indirect jump would.
  if (Cls >= Dex.classes().size())
    TRAP(MemoryFault);
  const dex::Method &Declared = Dex.method(D->Idx);
  const dex::ClassInfo &ClsInfo = Dex.classAt(Cls);
  if (Declared.VTableSlot < 0 ||
      static_cast<size_t>(Declared.VTableSlot) >= ClsInfo.VTable.size())
    TRAP(MemoryFault);
  SAVE_FRAME();
  CallRet = invokeFrom(
      Frame, ClsInfo.VTable[static_cast<size_t>(Declared.VTableSlot)],
      CallArgs);
  goto AfterCall;
}
AfterCall:
  LOAD_FRAME();
  if (Trap != TrapKind::None)
    goto TrapExit;
  if (D->A != MNoReg)
    R[D->A] = CallRet;
  NEXT_BLOCK();

H_MIntrinsic: {
  const MInsn &I = CallSource(D);
  Value ArgVals[MMaxArgs];
  for (unsigned N = 0; N != I.ArgCount; ++N)
    ArgVals[N] = R[I.Args[N]];
  R[D->A] = Value::fromF64(
      runIntrinsic(static_cast<IntrinsicKind>(D->Idx), ArgVals));
  NEXT();
}

H_MRet:
  SAVE_FRAME();
  flush(Frame);
  return R[D->B];
H_MRetVoid:
  SAVE_FRAME();
  flush(Frame);
  return Value();

H_MOpcodeCount:
  // An invalid instruction, or one whose registers lie outside the frame:
  // counted, then a crash.
  TRAP(MemoryFault);

H_FallOff:
  // Malformed code (e.g. produced by a broken pass pipeline that slipped
  // past the IR verifier) ran off its end or branched outside it: a crash,
  // and not an instruction (the slot's block has none).
  TRAP(MemoryFault);

TrapExit:
  SAVE_FRAME();
  flush(Frame);
  return Value();

#undef NEXT
#undef ENTER_BLOCK
#undef NEXT_BLOCK
#undef JUMP
#undef TRAP
#undef SETTLE
#undef SAVE_FRAME
#undef LOAD_FRAME
#undef BRANCH_IF
}
