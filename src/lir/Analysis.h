//===- lir/Analysis.h - Dominators and loop analysis ------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree (Cooper-Harvey-Kennedy), dominance frontiers, and natural
/// loop detection over LFunction CFGs. These power SSA construction, GVN
/// scoping, LICM, and the loop-restructuring passes.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_LIR_ANALYSIS_H
#define ROPT_LIR_ANALYSIS_H

#include "lir/Lir.h"

#include <map>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

namespace ropt {
namespace lir {

/// Immediate-dominator tree over the reachable blocks of a function.
class DomTree {
public:
  static DomTree compute(const LFunction &Fn);

  /// Immediate dominator of \p Block; the entry's idom is itself.
  /// Unreachable blocks report the entry.
  uint32_t idom(uint32_t Block) const { return IDom[Block]; }

  /// True when \p A dominates \p B (reflexive).
  bool dominates(uint32_t A, uint32_t B) const;

  /// Children in the dominator tree.
  const std::vector<uint32_t> &children(uint32_t Block) const {
    return Children[Block];
  }

  /// Dominator-tree preorder over reachable blocks.
  std::vector<uint32_t> preorder() const;

  /// Dominance frontier of every block.
  std::vector<std::set<uint32_t>>
  dominanceFrontiers(const LFunction &Fn) const;

  bool isReachable(uint32_t Block) const { return Reachable[Block]; }

private:
  std::vector<uint32_t> IDom;
  std::vector<std::vector<uint32_t>> Children;
  std::vector<uint32_t> DfsNumber; ///< Preorder number for dominates().
  std::vector<uint32_t> DfsLast;   ///< Max preorder number in subtree.
  std::vector<bool> Reachable;
};

/// One natural loop.
struct Loop {
  uint32_t Header = 0;
  std::vector<uint32_t> Latches; ///< Blocks with a back edge to Header.
  std::vector<uint32_t> Blocks;  ///< Ascending; includes Header.
  std::vector<uint32_t> Exits;   ///< Blocks outside reached from inside.
  std::vector<bool> Member;      ///< Per function block: in Blocks.

  bool contains(uint32_t Block) const {
    return Block < Member.size() && Member[Block];
  }
};

/// All natural loops (one per header; back edges to the same header merge).
class LoopInfo {
public:
  static LoopInfo compute(const LFunction &Fn, const DomTree &DT);

  const std::vector<Loop> &loops() const { return Loops; }

private:
  std::vector<Loop> Loops;
};

/// The dominator tree and loop info of one function, computed on first
/// request and kept until invalidate(). applyPass invalidates them after
/// every pass that reports a change, so a run of passes that change
/// nothing computes them once: LLVM's preserved analyses, all or nothing.
/// A pass that edits the function and then asks again must invalidate
/// first; a holder that swaps in another function must drop them.
class FunctionAnalyses {
public:
  const DomTree &domTree(const LFunction &Fn) {
    if (!DT)
      DT = DomTree::compute(Fn);
    return *DT;
  }
  const LoopInfo &loopInfo(const LFunction &Fn) {
    if (!LI)
      LI = LoopInfo::compute(Fn, domTree(Fn));
    return *LI;
  }
  void invalidate() {
    DT.reset();
    LI.reset();
  }

private:
  std::optional<DomTree> DT;
  std::optional<LoopInfo> LI;
};

/// Maps every value to its defining block (params -> entry). NoValue-sized
/// entries are ~0u for never-defined ids.
std::vector<uint32_t> computeDefBlocks(const LFunction &Fn);

/// Counts uses of every value across instructions, phis, and terminators.
std::vector<uint32_t> countUses(const LFunction &Fn);

/// Invokes \p Fn over every value operand of an instruction: A and B when
/// the opcode reads them and they are set, then every call argument. A
/// mutable \p I hands out `ValueId &`, a const one `const ValueId &`.
template <typename InsnT, typename Callback>
void forEachOperand(InsnT &I, Callback &&Fn) {
  static_assert(std::is_same_v<std::remove_const_t<InsnT>, LInsn>,
                "forEachOperand visits LInsn operands");
  switch (I.Op) {
  case vm::MOpcode::MMovImmI:
  case vm::MOpcode::MMovImmF:
  case vm::MOpcode::MLoadStatic:
  case vm::MOpcode::MNewInstance:
  case vm::MOpcode::MSafepoint:
  case vm::MOpcode::MNop:
    break;
  default:
    if (I.A != NoValue)
      Fn(I.A);
    if (I.B != NoValue)
      Fn(I.B);
    break;
  }
  for (auto &V : I.Args)
    Fn(V);
}

} // namespace lir
} // namespace ropt

#endif // ROPT_LIR_ANALYSIS_H
