//===- lir/CompileMemo.h - Memoized pass transitions and codegen -*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-side fork server (DESIGN.md §18). One memo serves one
/// optimized region: the DexFile, the merged TypeProfile and the size
/// budget are fixed at construction, so every pass is
/// a pure function of the IR it is applied to and its PassInstance. The
/// memo therefore
///
///  - runs the genome-independent front end (bytecode -> HGraph -> SSA)
///    once per method;
///  - interns every post-pass IR state (64-bit hash plus a full structural
///    equality check) and records (state, PassInstance) -> state
///    transitions, each state carrying its size-budget outcome;
///  - keeps the verifier verdict per final state and the emitted machine
///    code per (final state, RegAllocKind).
///
/// Binary hits, crossover children that share a pipeline head, and
/// pipelines that converge to the same IR skip the passes and the codegen
/// they share. Results are bitwise identical to lir::compileAllLlvm, which
/// stays the reference path.
///
/// Resident IR and machine code count against one process-wide byte
/// budget: each memo evicts its own least-recently-used entries, and an
/// evicted state is recomputed from the nearest resident state on the
/// genome's own walk, so the transition table is never wrong. Safe to
/// share between threads.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_LIR_COMPILE_MEMO_H
#define ROPT_LIR_COMPILE_MEMO_H

#include "lir/Backend.h"

#include <memory>
#include <mutex>

namespace ropt {
namespace lir {

/// Lookup and eviction counts of one memo. With several threads sharing a
/// memo they depend on which thread computes a state first, so they are
/// diagnostics only (metrics.json), never part of a deterministic artifact.
struct CompileMemoStats {
  uint64_t TransitionHits = 0;   ///< Pass applications skipped.
  uint64_t TransitionMisses = 0; ///< Pass applications run.
  uint64_t CodegenHits = 0;      ///< Verified states whose code was reused.
  uint64_t CodegenMisses = 0;    ///< Verified states sent to emitMachine.
  uint64_t Evictions = 0;        ///< IR states and functions dropped.
  uint64_t Recomputes = 0;       ///< Evicted states rebuilt from a walk.
  uint64_t ResidentBytes = 0;    ///< This memo's resident IR + code.
};

class CompileMemo {
public:
  /// \p File must outlive the memo; \p Profile is copied. The front end
  /// runs with default TranslateOptions, as lir::compileAllLlvm's callers
  /// do.
  CompileMemo(const dex::DexFile &File, TypeProfile Profile,
              size_t SizeBudget);
  ~CompileMemo();

  CompileMemo(const CompileMemo &) = delete;
  CompileMemo &operator=(const CompileMemo &) = delete;

  /// lir::compileAllLlvm through the memo: installs every method that
  /// compiles into \p Cache and returns the first non-Ok, non-Unsupported
  /// status in \p Methods order (Ok if all succeeded).
  CompileStatus compileAll(const std::vector<dex::MethodId> &Methods,
                           const std::vector<PassInstance> &Pipeline,
                           hgraph::RegAllocKind RegAlloc,
                           vm::CodeCache &Cache);

  const dex::DexFile &file() const { return File; }
  size_t sizeBudget() const { return SizeBudget; }
  CompileMemoStats stats() const;

  /// Resident IR + code bytes summed over every live memo in the process.
  static uint64_t processResidentBytes();

private:
  struct Impl;

  const dex::DexFile &File;
  const TypeProfile Profile;
  const size_t SizeBudget;
  mutable std::mutex Mutex;
  std::unique_ptr<Impl> State; ///< Guarded by Mutex.
};

} // namespace lir
} // namespace ropt

#endif // ROPT_LIR_COMPILE_MEMO_H
