//===- lir/Lir.h - LLVM-like SSA intermediate representation ----*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SSA IR of the LLVM-like backend (the paper's "LLVM bitcode" stage,
/// Section 3.5). Produced from HGraph by the FromHGraph translation;
/// optimized by the pass pipeline the genetic search assembles; lowered to
/// vm::MachineFunction by the out-of-SSA code generator.
///
/// Values are dense ids. Every value has exactly one definition: a function
/// parameter, a block phi, or an instruction destination. Instruction
/// semantics reuse the vm::MOpcode vocabulary (only the non-control-flow
/// subset appears inside blocks; control flow lives in terminators).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_LIR_LIR_H
#define ROPT_LIR_LIR_H

#include "dex/DexFile.h"
#include "vm/Machine.h"

#include <string>
#include <vector>

namespace ropt {
namespace lir {

using ValueId = uint32_t;
constexpr ValueId NoValue = 0xffffffff;

/// One SSA instruction. Dst is NoValue for pure-effect instructions
/// (stores, checks, safepoints).
struct LInsn {
  vm::MOpcode Op = vm::MOpcode::MNop;
  ValueId Dst = NoValue;
  ValueId A = NoValue; ///< First operand (B-role in vm::MInsn).
  ValueId B = NoValue; ///< Second operand (C-role in vm::MInsn).
  int64_t ImmI = 0;
  double ImmF = 0.0;
  uint32_t Idx = 0;          ///< class/field-slot/static/method/native id.
  uint32_t Site = 0xffffffff; ///< Bytecode pc provenance (profiling key).
  /// Method the Site pc belongs to; survives inlining so profile lookups
  /// stay valid (profiles are recorded against the original bytecode).
  dex::MethodId SiteMethod = dex::InvalidId;
  std::vector<ValueId> Args; ///< Call/intrinsic arguments.
};

/// A phi node. Inputs are parallel to the owning block's Preds list.
struct LPhi {
  ValueId Dst = NoValue;
  std::vector<ValueId> In;
};

/// A terminator's successor block ids: at most two, held inline so that
/// walking a CFG allocates nothing.
class SuccessorList {
public:
  SuccessorList() = default;
  explicit SuccessorList(uint32_t Only) : Ids{Only, 0}, Count(1) {}
  SuccessorList(uint32_t First, uint32_t Second)
      : Ids{First, Second}, Count(2) {}

  const uint32_t *begin() const { return Ids; }
  const uint32_t *end() const { return Ids + Count; }
  size_t size() const { return Count; }
  uint32_t operator[](size_t N) const { return Ids[N]; }

private:
  uint32_t Ids[2] = {0, 0};
  uint8_t Count = 0;
};

/// Block terminator; successor ids are block ids.
struct LTerminator {
  enum class Kind { Goto, Cond, Guard, Ret, RetVoid };
  Kind K = Kind::RetVoid;
  vm::MOpcode CondOp = vm::MOpcode::MNop;
  ValueId A = NoValue; ///< Condition lhs / returned value / guarded ref.
  ValueId B = NoValue; ///< Condition rhs (NoValue for the *z forms).
  vm::BranchHint Hint = vm::BranchHint::None;
  uint32_t Taken = 0;
  uint32_t Fall = 0;
  uint32_t GuardClass = 0;

  SuccessorList successors() const {
    switch (K) {
    case Kind::Goto:
      return SuccessorList(Taken);
    case Kind::Cond:
    case Kind::Guard:
      return SuccessorList(Taken, Fall);
    case Kind::Ret:
    case Kind::RetVoid:
      break;
    }
    return SuccessorList();
  }
};

struct LBlock {
  std::vector<LPhi> Phis;
  std::vector<LInsn> Insns;
  LTerminator Term;
  std::vector<uint32_t> Preds; ///< Maintained by LFunction::computePreds().
};

/// A function in SSA form. Values [0, ParamCount) are the parameters.
class LFunction {
public:
  dex::MethodId Method = dex::InvalidId;
  std::string Name;
  uint16_t ParamCount = 0;
  bool ReturnsValue = false;
  uint32_t NumValues = 0;
  std::vector<LBlock> Blocks; ///< Block 0 is the entry.

  ValueId newValue() { return NumValues++; }

  /// Recomputes predecessor lists in deterministic (block id, successor
  /// position) order. Callers that mutate the CFG must realign phi inputs
  /// with the fresh order — see remapPhisForPredChange().
  void computePreds();

  /// Reverse post order over reachable blocks.
  std::vector<uint32_t> reversePostOrder() const;

  /// Total non-phi instruction count.
  size_t instructionCount() const;

  /// Full SSA verification: single assignment, phi arity matches preds,
  /// operands defined, defs dominate uses (via a fresh dominator tree),
  /// successors in range. Returns false and fills \p Error on violation —
  /// this is the "compiler crash" detector for unsound pass interactions.
  bool verify(std::string &Error) const;

  /// Renders a debug listing.
  std::string dump() const;
};

} // namespace lir
} // namespace ropt

#endif // ROPT_LIR_LIR_H
