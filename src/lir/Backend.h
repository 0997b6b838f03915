//===- lir/Backend.h - The LLVM-like compiler driver ------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end compilation through the LLVM-like backend: bytecode ->
/// HGraph -> SSA -> pass pipeline -> verification -> machine code. The
/// verifier and the size budget turn unsound or explosive pipelines into
/// *compiler errors/timeouts* rather than silent garbage — the offline
/// search discards those outright (Figure 1's manageable 15%).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_LIR_BACKEND_H
#define ROPT_LIR_BACKEND_H

#include "hgraph/Codegen.h"
#include "lir/FromHGraph.h"
#include "lir/Passes.h"

#include <memory>

namespace ropt {
namespace lir {

/// Compilation outcome classes.
enum class CompileStatus {
  Ok,
  VerifierError, ///< A pass pipeline produced invalid IR ("compiler crash").
  SizeBudget,    ///< Code growth exploded ("compiler timeout").
  Unsupported,   ///< Native or Android-uncompilable method.
};

/// Everything that configures one compilation.
struct CompileOptions {
  std::vector<PassInstance> Pipeline;
  hgraph::RegAllocKind RegAlloc = hgraph::RegAllocKind::LinearScan;
  TranslateOptions Translate;
  size_t SizeBudget = 50000;
};

/// Result of one compilation.
struct CompileResult {
  CompileStatus Status = CompileStatus::Unsupported;
  std::shared_ptr<vm::MachineFunction> Fn;
  std::string Error; ///< Verifier message when Status == VerifierError.

  bool ok() const { return Status == CompileStatus::Ok; }
};

/// Compiles \p Method through the backend.
CompileResult compileMethodLlvm(const dex::DexFile &File,
                                dex::MethodId Method,
                                const CompileOptions &Options,
                                const TypeProfile *Profile = nullptr);

/// Compiles every method of \p Methods into \p Cache; methods that fail
/// keep their previous tier (interpreter or whatever was installed).
/// Returns the first non-Ok status encountered (Ok if all succeeded).
CompileStatus compileAllLlvm(const dex::DexFile &File,
                             const std::vector<dex::MethodId> &Methods,
                             const CompileOptions &Options,
                             vm::CodeCache &Cache,
                             const TypeProfile *Profile = nullptr);

/// Stock preset pipelines (the "-O0/-O1/-O2/-O3" baselines). Note that the
/// presets deliberately exclude the backend's custom passes (gc-elide) —
/// they model *stock LLVM* heuristics, which is why -O3 can lose to the
/// Android compiler on safepoint-heavy loops (Section 5.1).
std::vector<PassInstance> o0Pipeline();
std::vector<PassInstance> o1Pipeline();
std::vector<PassInstance> o2Pipeline();
std::vector<PassInstance> o3Pipeline();

} // namespace lir
} // namespace ropt

#endif // ROPT_LIR_BACKEND_H
