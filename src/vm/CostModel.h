//===- vm/CostModel.h - Cycle cost model for simulated execution -*- C++ -*-=//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-operation cycle costs that make the optimization landscape. The
/// executor charges these per dynamic instruction; the interpreter adds a
/// dispatch overhead per bytecode. The relative weights are what matters:
/// JNI transitions are two orders of magnitude above ALU ops, virtual
/// dispatch costs dependent loads plus an indirect branch, safepoint polls
/// and bounds/null checks are cheap-but-not-free (which is why the paper's
/// post-unroll GC-check elision pays off), and spilled registers tax every
/// touch.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_VM_COST_MODEL_H
#define ROPT_VM_COST_MODEL_H

#include <cstdint>

namespace ropt {
namespace vm {

/// Cycle costs for the simulated core (roughly a big out-of-order mobile
/// core normalized to 1 cycle per simple ALU op).
struct CycleCostModel {
  uint32_t AluCycles = 1;
  uint32_t MulCycles = 3;
  uint32_t DivCycles = 12;
  uint32_t FAddCycles = 2;
  uint32_t FMulCycles = 3;
  uint32_t FDivCycles = 15;
  uint32_t FSqrtCycles = 18;
  uint32_t ConvCycles = 2;
  uint32_t MoveCycles = 1;

  uint32_t LoadCycles = 3;  ///< L1-hit load-to-use.
  uint32_t StoreCycles = 1; ///< Store-buffer absorbed.
  uint32_t CacheMissPenalty = 28;

  uint32_t BranchCycles = 1;
  uint32_t BranchMispredictPenalty = 13;

  uint32_t CallCycles = 5;          ///< Direct call + frame setup.
  uint32_t ReturnCycles = 2;
  uint32_t VirtualDispatchCycles = 9; ///< vtable load chain + indirect jump.
  uint32_t NativeCallCycles = 180;    ///< JNI transition (in + out).
  uint32_t IntrinsicBaseCycles = 14;  ///< Inlined math-intrinsic body.

  uint32_t CheckCycles = 1;     ///< Null/bounds/div guard (predicted).
  uint32_t SafepointCycles = 3; ///< GC poll: load flag + test + branch.
  uint32_t AllocBaseCycles = 30;
  uint32_t AllocPerSlotCycles = 1;

  uint32_t SpillTouchCycles = 2; ///< Extra cost per spilled-register access.

  /// Interpreter dispatch overhead per bytecode on top of the op cost.
  uint32_t InterpreterDispatchCycles = 14;

  /// Cycles one GC pause costs when the poll triggers collection.
  uint64_t GcPauseCycles = 150000;
};

/// A tiny direct-mapped L1D model: 512 lines x 64 B = 32 KiB. Determinism
/// matters more than fidelity; it exists so locality-changing
/// transformations (unroll-and-jam, layout) have measurable effect.
class CacheSim {
public:
  static constexpr uint32_t LineBits = 6;
  static constexpr uint32_t NumLines = 512;

  /// Returns true on hit; installs the line otherwise.
  bool access(uint64_t Addr) {
    uint64_t Line = Addr >> LineBits;
    uint32_t Index = static_cast<uint32_t>(Line) & (NumLines - 1);
    if (Tags[Index] == Line)
      return true;
    Tags[Index] = Line;
    return false;
  }

  void reset() {
    for (uint64_t &T : Tags)
      T = ~0ULL;
  }

  CacheSim() { reset(); }

  bool operator==(const CacheSim &) const = default;

private:
  uint64_t Tags[NumLines];
};

/// Two-bit saturating-counter branch predictor keyed by a site id, used for
/// branches without a static hint.
class BranchPredictor {
public:
  static constexpr uint32_t TableSize = 1024;

  /// Predicts and updates for the branch at \p Site; returns true when the
  /// prediction matched \p Taken.
  bool predictAndUpdate(uint64_t Site, bool Taken) {
    uint8_t &Counter = Table[Site & (TableSize - 1)];
    bool Predicted = Counter >= 2;
    if (Taken && Counter < 3)
      ++Counter;
    else if (!Taken && Counter > 0)
      --Counter;
    return Predicted == Taken;
  }

  void reset() {
    for (uint8_t &C : Table)
      C = 1;
  }

  BranchPredictor() { reset(); }

  bool operator==(const BranchPredictor &) const = default;

private:
  uint8_t Table[TableSize];
};

} // namespace vm
} // namespace ropt

#endif // ROPT_VM_COST_MODEL_H
