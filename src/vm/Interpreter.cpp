//===- vm/Interpreter.cpp - Bytecode interpreter tier -----------------------===//
//
// The slow, always-correct tier: used online for cold methods and offline
// for the interpreted verification/profiling replay (Section 3.4).
//
// The dispatch loop is the single hottest path of the whole system — every
// offline replay of every genome runs through it at least for the cold
// methods — so it is shaped for the compiler: the cycle cost model is
// copied into a local and cycles and instructions accumulate in a
// frame-local Runtime::FrameCost (neither can alias the memory the VM
// writes, but the compiler cannot prove that for Runtime members through
// Space stores), the register file is accessed through a raw pointer, and
// the trap exits are annotated cold so the fall-through path stays
// straight-line. Memory accesses take the address space's inline path
// over its 64-entry direct-mapped translation cache. The frame flushes its
// counts before every invoke, native call, return and trap exit, so none
// of this changes a single charged cycle, the instruction a Timeout fires
// on, or the order of observer callbacks: replay digests are
// byte-identical to the naive loop (DESIGN.md §20).
//
//===----------------------------------------------------------------------===//

#include "vm/Runtime.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#if defined(__GNUC__) || defined(__clang__)
#define ROPT_UNLIKELY(x) __builtin_expect(!!(x), 0)
#else
#define ROPT_UNLIKELY(x) (x)
#endif

using namespace ropt;
using namespace ropt::vm;

namespace {

int64_t safeDiv(int64_t A, int64_t B) {
  if (B == -1 && A == std::numeric_limits<int64_t>::min())
    return A; // wraps, as AArch64 sdiv does
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

} // namespace

Value Runtime::interpret(const dex::Method &M,
                         const std::vector<Value> &Args) {
  assert(!M.IsNative && "cannot interpret a native method");

  // Frames overwhelmingly fit the inline buffer, so a call costs no
  // allocation; only pathological register counts spill to the heap.
  Value StackRegs[48];
  std::vector<Value> HeapRegs;
  Value *R;
  if (M.RegCount <= 48) {
    std::fill_n(StackRegs, M.RegCount, Value());
    R = StackRegs;
  } else {
    HeapRegs.resize(M.RegCount);
    R = HeapRegs.data(); // never resized below
  }
  for (size_t I = 0; I != Args.size(); ++I)
    R[I] = Args[I];

  // Scratch argument buffer: one allocation per frame, not per call insn.
  std::vector<Value> CallArgs;

  // Locals, not Runtime members: the VM's simulated stores cannot alias
  // them, so per-instruction charges need no reloads or write-backs.
  const CycleCostModel CM = Costs;
  FrameCost Frame = openFrame();

  Frame.charge(CM.CallCycles);
  safepoint(Frame.Cycles); // method-entry poll

  size_t Pc = 0;
  const dex::Insn *Code = M.Code.data();
  const size_t CodeSize = M.Code.size();
  (void)CodeSize;

  while (Trap == TrapKind::None) {
    assert(Pc < CodeSize && "fell off the end of verified bytecode");
    const dex::Insn &I = Code[Pc];
    if (ROPT_UNLIKELY(!consumeInsn(Frame)))
      break;
    Frame.charge(CM.InterpreterDispatchCycles);

    // Default control flow: fall through. Branches overwrite NextPc.
    size_t NextPc = Pc + 1;

    using dex::Opcode;
    switch (I.Op) {
    case Opcode::Nop:
      break;
    case Opcode::ConstI:
      R[I.A] = Value::fromI64(I.ImmI);
      Frame.charge(CM.MoveCycles);
      break;
    case Opcode::ConstF:
      R[I.A] = Value::fromF64(I.ImmF);
      Frame.charge(CM.MoveCycles);
      break;
    case Opcode::ConstNull:
      R[I.A] = Value::fromRef(0);
      Frame.charge(CM.MoveCycles);
      break;
    case Opcode::Move:
      R[I.A] = R[I.B];
      Frame.charge(CM.MoveCycles);
      break;

    case Opcode::AddI:
      // Java longs wrap: compute on the raw two's-complement bits.
      R[I.A].Raw = R[I.B].Raw + R[I.C].Raw;
      Frame.charge(CM.AluCycles);
      break;
    case Opcode::SubI:
      R[I.A].Raw = R[I.B].Raw - R[I.C].Raw;
      Frame.charge(CM.AluCycles);
      break;
    case Opcode::MulI:
      R[I.A].Raw = R[I.B].Raw * R[I.C].Raw;
      Frame.charge(CM.MulCycles);
      break;
    case Opcode::DivI:
    case Opcode::RemI: {
      int64_t Divisor = R[I.C].asI64();
      Frame.charge(CM.CheckCycles);
      if (ROPT_UNLIKELY(Divisor == 0)) {
        Trap = TrapKind::DivByZero;
        break;
      }
      int64_t Dividend = R[I.B].asI64();
      R[I.A] = Value::fromI64(I.Op == Opcode::DivI
                                  ? safeDiv(Dividend, Divisor)
                                  : safeRem(Dividend, Divisor));
      Frame.charge(CM.DivCycles);
      break;
    }
    case Opcode::AndI:
      R[I.A] = Value::fromI64(R[I.B].asI64() & R[I.C].asI64());
      Frame.charge(CM.AluCycles);
      break;
    case Opcode::OrI:
      R[I.A] = Value::fromI64(R[I.B].asI64() | R[I.C].asI64());
      Frame.charge(CM.AluCycles);
      break;
    case Opcode::XorI:
      R[I.A] = Value::fromI64(R[I.B].asI64() ^ R[I.C].asI64());
      Frame.charge(CM.AluCycles);
      break;
    case Opcode::ShlI:
      R[I.A] = Value::fromI64(R[I.B].asI64() << (R[I.C].asI64() & 63));
      Frame.charge(CM.AluCycles);
      break;
    case Opcode::ShrI:
      R[I.A] = Value::fromI64(R[I.B].asI64() >> (R[I.C].asI64() & 63));
      Frame.charge(CM.AluCycles);
      break;
    case Opcode::NegI:
      R[I.A].Raw = 0 - R[I.B].Raw;
      Frame.charge(CM.AluCycles);
      break;

    case Opcode::AddF:
      R[I.A] = Value::fromF64(R[I.B].asF64() + R[I.C].asF64());
      Frame.charge(CM.FAddCycles);
      break;
    case Opcode::SubF:
      R[I.A] = Value::fromF64(R[I.B].asF64() - R[I.C].asF64());
      Frame.charge(CM.FAddCycles);
      break;
    case Opcode::MulF:
      R[I.A] = Value::fromF64(R[I.B].asF64() * R[I.C].asF64());
      Frame.charge(CM.FMulCycles);
      break;
    case Opcode::DivF:
      R[I.A] = Value::fromF64(R[I.B].asF64() / R[I.C].asF64());
      Frame.charge(CM.FDivCycles);
      break;
    case Opcode::NegF:
      R[I.A] = Value::fromF64(-R[I.B].asF64());
      Frame.charge(CM.FAddCycles);
      break;
    case Opcode::CmpF: {
      double A = R[I.B].asF64(), B = R[I.C].asF64();
      int64_t Res = (A < B) ? -1 : (A == B ? 0 : 1); // NaN orders as +1
      R[I.A] = Value::fromI64(Res);
      Frame.charge(CM.FAddCycles);
      break;
    }
    case Opcode::SqrtF:
      R[I.A] = Value::fromF64(std::sqrt(R[I.B].asF64()));
      Frame.charge(CM.FSqrtCycles);
      break;
    case Opcode::I2F:
      R[I.A] = Value::fromF64(static_cast<double>(R[I.B].asI64()));
      Frame.charge(CM.ConvCycles);
      break;
    case Opcode::F2I:
      R[I.A] = Value::fromI64(doubleToInt(R[I.B].asF64()));
      Frame.charge(CM.ConvCycles);
      break;

    case Opcode::Goto:
      NextPc = static_cast<size_t>(I.Target);
      Frame.charge(CM.BranchCycles);
      // Loop back-edge: poll for GC, as ART's interpreter does.
      if (NextPc <= Pc)
        safepoint(Frame.Cycles);
      break;
    case Opcode::IfEq:
    case Opcode::IfNe:
    case Opcode::IfLt:
    case Opcode::IfLe:
    case Opcode::IfGt:
    case Opcode::IfGe:
    case Opcode::IfEqz:
    case Opcode::IfNez:
    case Opcode::IfLtz:
    case Opcode::IfLez:
    case Opcode::IfGtz:
    case Opcode::IfGez: {
      int64_t A = R[I.B].asI64();
      int64_t B = I.C == dex::NoReg ? 0 : R[I.C].asI64();
      bool Taken = false;
      switch (I.Op) {
      case Opcode::IfEq: case Opcode::IfEqz: Taken = A == B; break;
      case Opcode::IfNe: case Opcode::IfNez: Taken = A != B; break;
      case Opcode::IfLt: case Opcode::IfLtz: Taken = A < B; break;
      case Opcode::IfLe: case Opcode::IfLez: Taken = A <= B; break;
      case Opcode::IfGt: case Opcode::IfGtz: Taken = A > B; break;
      default: Taken = A >= B; break;
      }
      Frame.charge(CM.BranchCycles);
      // Same site key the executor feeds its predictor, so the profiled
      // mispredict features line up with the cost model's behavior.
      noteBranch((static_cast<uint64_t>(M.Id) << 20) ^ Pc, Taken);
      if (Taken) {
        NextPc = static_cast<size_t>(I.Target);
        // Loop back-edge: poll for GC, as ART's interpreter does.
        if (NextPc <= Pc)
          safepoint(Frame.Cycles);
      }
      break;
    }

    case Opcode::InvokeStatic:
    case Opcode::InvokeVirtual:
    case Opcode::InvokeNative: {
      CallArgs.resize(I.ArgCount);
      for (unsigned N = 0; N != I.ArgCount; ++N)
        CallArgs[N] = R[I.Args[N]];
      Value Ret;
      if (I.Op == Opcode::InvokeNative) {
        Ret = callNativeFrom(Frame, I.Idx, CallArgs);
      } else if (I.Op == Opcode::InvokeStatic) {
        Frame.charge(CM.CallCycles);
        Ret = invokeFrom(Frame, I.Idx, CallArgs);
      } else {
        // Virtual dispatch: read the receiver header for its class.
        uint64_t Receiver = CallArgs[0].asRef();
        Frame.charge(CM.VirtualDispatchCycles);
        if (ROPT_UNLIKELY(Receiver == 0)) {
          Trap = TrapKind::NullPointer;
          break;
        }
        ObjectHeader Header;
        if (ROPT_UNLIKELY(!TheHeap.readHeader(Receiver, Header))) {
          Trap = TrapKind::MemoryFault;
          break;
        }
        dex::ClassId Cls = Header.ClassOrElem;
        if (Observer)
          Observer->onVirtualDispatch(M.Id, static_cast<uint32_t>(Pc),
                                      Cls);
        Ret = invokeFrom(Frame, Dex.resolveVirtual(Cls, I.Idx),
                         CallArgs);
      }
      if (Trap != TrapKind::None)
        break;
      if (I.A != dex::NoReg)
        R[I.A] = Ret;
      break;
    }

    case Opcode::Ret:
      Frame.charge(CM.ReturnCycles);
      flush(Frame);
      return R[I.B];
    case Opcode::RetVoid:
      Frame.charge(CM.ReturnCycles);
      flush(Frame);
      return Value();

    case Opcode::NewInstance: {
      const dex::ClassInfo &Cls = Dex.classAt(I.Idx);
      Frame.charge(CM.AllocBaseCycles +
                   CM.AllocPerSlotCycles * Cls.InstanceSlots);
      noteAlloc(Cls.InstanceSlots);
      R[I.A] = Value::fromRef(TheHeap.allocate(
          ObjKind::Object, Cls.Id, Cls.InstanceSlots, Trap));
      break;
    }
    case Opcode::NewArrayI:
    case Opcode::NewArrayF:
    case Opcode::NewArrayR: {
      int64_t Len = R[I.B].asI64();
      if (ROPT_UNLIKELY(Len < 0)) {
        Trap = TrapKind::OutOfBounds;
        break;
      }
      ObjKind Kind = I.Op == Opcode::NewArrayI   ? ObjKind::ArrayI
                     : I.Op == Opcode::NewArrayF ? ObjKind::ArrayF
                                                 : ObjKind::ArrayR;
      Frame.charge(CM.AllocBaseCycles +
                   CM.AllocPerSlotCycles * static_cast<uint64_t>(Len));
      noteAlloc(static_cast<uint64_t>(Len));
      R[I.A] = Value::fromRef(
          TheHeap.allocate(Kind, 0, static_cast<uint64_t>(Len), Trap));
      break;
    }

    case Opcode::ALoadI:
    case Opcode::ALoadF:
    case Opcode::ALoadR:
    case Opcode::AStoreI:
    case Opcode::AStoreF:
    case Opcode::AStoreR: {
      bool IsStore = I.Op == Opcode::AStoreI || I.Op == Opcode::AStoreF ||
                     I.Op == Opcode::AStoreR;
      uint64_t Arr = R[I.B].asRef();
      Frame.charge(CM.CheckCycles * 2);
      if (ROPT_UNLIKELY(Arr == 0)) {
        Trap = TrapKind::NullPointer;
        break;
      }
      ObjectHeader Header;
      if (ROPT_UNLIKELY(!TheHeap.readHeader(Arr, Header))) {
        Trap = TrapKind::MemoryFault;
        break;
      }
      int64_t Index = R[I.C].asI64();
      if (ROPT_UNLIKELY(Index < 0 ||
                        static_cast<uint64_t>(Index) >= Header.Count)) {
        Trap = TrapKind::OutOfBounds;
        break;
      }
      uint64_t Addr = Heap::elemAddr(Arr, static_cast<uint64_t>(Index));
      if (IsStore) {
        memStore(Frame.Cycles, Addr, R[I.A].Raw);
      } else {
        uint64_t Bits = 0;
        if (memLoad(Frame.Cycles, Addr, Bits))
          R[I.A].Raw = Bits;
      }
      break;
    }
    case Opcode::ArrayLen: {
      uint64_t Arr = R[I.B].asRef();
      Frame.charge(CM.CheckCycles);
      if (ROPT_UNLIKELY(Arr == 0)) {
        Trap = TrapKind::NullPointer;
        break;
      }
      ObjectHeader Header;
      if (ROPT_UNLIKELY(!TheHeap.readHeader(Arr, Header))) {
        Trap = TrapKind::MemoryFault;
        break;
      }
      Frame.charge(CM.LoadCycles);
      R[I.A] = Value::fromI64(static_cast<int64_t>(Header.Count));
      break;
    }

    case Opcode::GetFieldI:
    case Opcode::GetFieldF:
    case Opcode::GetFieldR:
    case Opcode::PutFieldI:
    case Opcode::PutFieldF:
    case Opcode::PutFieldR: {
      bool IsPut = I.Op == Opcode::PutFieldI ||
                   I.Op == Opcode::PutFieldF || I.Op == Opcode::PutFieldR;
      uint64_t Obj = R[I.B].asRef();
      Frame.charge(CM.CheckCycles);
      if (ROPT_UNLIKELY(Obj == 0)) {
        Trap = TrapKind::NullPointer;
        break;
      }
      uint64_t Addr =
          Heap::slotAddr(Obj, Dex.field(I.Idx).SlotIndex);
      if (IsPut) {
        memStore(Frame.Cycles, Addr, R[I.A].Raw);
      } else {
        uint64_t Bits = 0;
        if (memLoad(Frame.Cycles, Addr, Bits))
          R[I.A].Raw = Bits;
      }
      break;
    }

    case Opcode::GetStaticI:
    case Opcode::GetStaticF:
    case Opcode::GetStaticR: {
      uint64_t Bits = 0;
      if (memLoad(Frame.Cycles, staticSlotAddr(I.Idx), Bits))
        R[I.A].Raw = Bits;
      break;
    }
    case Opcode::PutStaticI:
    case Opcode::PutStaticF:
    case Opcode::PutStaticR:
      memStore(Frame.Cycles, staticSlotAddr(I.Idx), R[I.A].Raw);
      break;

    case Opcode::OpcodeCount:
      assert(false && "invalid opcode reached the interpreter");
      break;
    }

    Pc = NextPc;
  }
  flush(Frame); // trap exit
  return Value();
}
