//===- perfbench/Check.h - Result digests and correctness checks ---------===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark checks after each timed section. Every winning
/// binary is rebuilt from its genome, must hash to the binary the search
/// measured, and is installed into a freshly booted app whose sessions
/// must return exactly what an interpreter-only boot returns. The
/// interpreter is the independent reference; the compiler under test
/// never checks itself.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_PERFBENCH_CHECK_H
#define ROPT_PERFBENCH_CHECK_H

#include "core/IterativeCompiler.h"
#include "fleet/Coordinator.h"

#include <string>
#include <vector>

namespace ropt {
namespace perfbench {

/// One line per app: name, best genome, binary hash, and the Android, O3
/// and best region cycles (virtual time, deterministic at a fixed seed).
std::string gaDigestText(const std::vector<core::OptimizationReport> &Reports);

/// FNV-1a over \p Text, as 16 hex digits.
std::string hashHex(const std::string &Text);

/// Runs \p Sessions sessions of a boot with \p Code installed over
/// \p Methods against an interpreter-only boot with the same seed.
/// Returns "" when every session's trap and return value agree.
std::string checkAgainstInterpreter(const workloads::Application &App,
                                    const std::vector<dex::MethodId> &Methods,
                                    const vm::CodeCache &Code, uint64_t Seed,
                                    int Sessions);

/// Checks one pipeline report: the winner rebuilds to the measured binary
/// hash and matches the interpreter on the final measurement's sessions.
/// Returns "" on success, else what failed.
std::string checkGaReport(const workloads::Application &App,
                          const core::OptimizationReport &R,
                          const core::PipelineConfig &Config);

/// Checks a fleet cell: it succeeded, and the server's top \p TopK live
/// leaderboard genomes, compiled on a reference device profiled at the
/// fleet seed, match the interpreter. Returns "" on success.
std::string checkFleetResult(const workloads::Application &App,
                             const fleet::FleetResult &R,
                             const fleet::Server &Srv,
                             const core::PipelineConfig &Config, int TopK);

} // namespace perfbench
} // namespace ropt

#endif // ROPT_PERFBENCH_CHECK_H
