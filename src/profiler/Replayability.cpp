//===- profiler/Replayability.cpp - Static replayability analysis ----------===//

#include "profiler/Replayability.h"

#include <set>

using namespace ropt;
using namespace ropt::dex;
using namespace ropt::profiler;

namespace {

/// Every implementation an invoke-virtual on \p Declared may dispatch to:
/// the declared slot of every class that is a subclass of the declaring
/// class (conservative closure).
std::vector<MethodId> possibleTargets(const DexFile &File,
                                      MethodId Declared) {
  const Method &M = File.method(Declared);
  std::vector<MethodId> Targets;
  if (!M.IsVirtual || M.VTableSlot < 0) {
    Targets.push_back(Declared);
    return Targets;
  }
  std::set<MethodId> Unique;
  for (const ClassInfo &C : File.classes()) {
    if (!File.isSubclassOf(C.Id, M.Owner))
      continue;
    if (static_cast<size_t>(M.VTableSlot) < C.VTable.size())
      Unique.insert(C.VTable[static_cast<size_t>(M.VTableSlot)]);
  }
  Targets.assign(Unique.begin(), Unique.end());
  return Targets;
}

} // namespace

ReplayabilityAnalysis
ReplayabilityAnalysis::analyze(const DexFile &File) {
  ReplayabilityAnalysis R;
  size_t N = File.methods().size();
  R.Replayable.assign(N, true);
  R.Compilable.assign(N, true);

  // Direct facts.
  for (const Method &M : File.methods()) {
    if (M.IsNative || M.isUncompilable())
      R.Compilable[M.Id] = false;
    bool Blocked = M.doesIO() || M.isNonDeterministic() || M.hasTryCatch();
    if (M.IsNative) {
      // JNI blocklist: only intrinsic-replaceable math is allowed.
      const NativeDecl &Decl = File.native(M.Native);
      if (Decl.IntrinsicKind.empty())
        Blocked = true;
    }
    // Direct native invocations from bytecode.
    for (const Insn &I : M.Code) {
      if (I.Op != Opcode::InvokeNative)
        continue;
      const NativeDecl &Decl = File.native(I.Idx);
      if (Decl.DoesIO || Decl.NonDeterministic ||
          Decl.IntrinsicKind.empty())
        Blocked = true;
    }
    if (Blocked)
      R.Replayable[M.Id] = false;
  }

  // Propagate over the call graph to a fixpoint.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const Method &M : File.methods()) {
      if (!R.Replayable[M.Id])
        continue;
      for (const Insn &I : M.Code) {
        if (I.Op == Opcode::InvokeStatic) {
          if (!R.Replayable[I.Idx]) {
            R.Replayable[M.Id] = false;
            Changed = true;
            break;
          }
        } else if (I.Op == Opcode::InvokeVirtual) {
          for (MethodId T : possibleTargets(File, I.Idx)) {
            if (!R.Replayable[T]) {
              R.Replayable[M.Id] = false;
              Changed = true;
              break;
            }
          }
          if (!R.Replayable[M.Id])
            break;
        }
      }
    }
  }
  return R;
}
