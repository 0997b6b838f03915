//===- perfbench/Check.cpp - Result digests and correctness checks --------===//

#include "Check.h"

#include "support/Format.h"

#include <algorithm>

using namespace ropt;
using namespace ropt::perfbench;

std::string
perfbench::gaDigestText(const std::vector<core::OptimizationReport> &Reports) {
  std::string Out;
  for (const core::OptimizationReport &R : Reports) {
    if (!R.Succeeded) {
      Out += format("%s|FAILED|%s\n", R.AppName.c_str(),
                    R.FailureReason.c_str());
      continue;
    }
    Out += format("%s|%s|%016llx|%.17g|%.17g|%.17g\n", R.AppName.c_str(),
                  R.Best.G.name().c_str(),
                  static_cast<unsigned long long>(R.Best.E.BinaryHash),
                  R.RegionAndroid, R.RegionO3, R.RegionBest);
  }
  return Out;
}

std::string perfbench::hashHex(const std::string &Text) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return format("%016llx", static_cast<unsigned long long>(H));
}

std::string perfbench::checkAgainstInterpreter(
    const workloads::Application &App,
    const std::vector<dex::MethodId> &Methods, const vm::CodeCache &Code,
    uint64_t Seed, int Sessions) {
  core::AppInstance Installed(App, Seed);
  Installed.overrideRegionCode(Methods, Code);
  core::AppInstance Reference(App, Seed, /*AttributeCycles=*/false,
                              core::AppInstance::BootCode::InterpretOnly);
  for (int I = 0; I != Sessions; ++I) {
    vm::CallResult Got = Installed.runSession(App.DefaultParam + I);
    vm::CallResult Want = Reference.runSession(App.DefaultParam + I);
    if (Got.Trap != Want.Trap)
      return format("session %d: trap %s, interpreter %s", I,
                    vm::trapKindName(Got.Trap), vm::trapKindName(Want.Trap));
    if (Got.Ret.Raw != Want.Ret.Raw)
      return format("session %d: returned %#llx, interpreter %#llx", I,
                    static_cast<unsigned long long>(Got.Ret.Raw),
                    static_cast<unsigned long long>(Want.Ret.Raw));
  }
  return "";
}

std::string perfbench::checkGaReport(const workloads::Application &App,
                                     const core::OptimizationReport &R,
                                     const core::PipelineConfig &Config) {
  if (!R.Succeeded)
    return "pipeline failed: " + R.FailureReason;

  // Rebuild the capture's interpreted-replay artifacts exactly as
  // IterativeCompiler::captureRegion does (one capture per region, the
  // paper default), so the winner compiles against the same type profile.
  vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
  replay::Replayer Rep(*App.File, Natives, App.RtConfig,
                       Config.Seed ^ 0x1e91a);
  support::Result<replay::InterpretedReplayResult> IR =
      Rep.interpretedReplay(R.Cap);
  if (!IR)
    return "interpreted replay of the capture failed";
  std::vector<core::CapturedRegion> Captures(1);
  Captures[0].Cap = R.Cap;
  Captures[0].Map = std::move(IR.value().Map);
  Captures[0].Profile = std::move(IR.value().Profile);

  core::RegionEvaluator Ev(App, R.Region, Captures, Config);
  search::CompiledBinary B = Ev.compileGenome(R.Best.G);
  if (!B.Ok)
    return "winning genome no longer compiles";
  if (B.BinaryHash != R.Best.E.BinaryHash)
    return format("winner rebuilt to binary %016llx, search measured %016llx",
                  static_cast<unsigned long long>(B.BinaryHash),
                  static_cast<unsigned long long>(R.Best.E.BinaryHash));
  return checkAgainstInterpreter(
      App, R.Region.Methods,
      *static_cast<const vm::CodeCache *>(B.Artifact.get()), Config.Seed + 7,
      Config.Measure.FinalSessionBlock);
}

std::string perfbench::checkFleetResult(const workloads::Application &App,
                                        const fleet::FleetResult &R,
                                        const fleet::Server &Srv,
                                        const core::PipelineConfig &Config,
                                        int TopK) {
  if (!R.Succeeded)
    return "fleet failed: " + R.FailureReason;
  const std::vector<fleet::Server::LeaderEntry> *Board =
      Srv.leaderboard(App.Name);
  if (!Board)
    return "server holds no leaderboard";
  std::vector<const fleet::Server::LeaderEntry *> Live;
  for (const fleet::Server::LeaderEntry &E : *Board)
    if (!E.Quarantined && !E.Expired)
      Live.push_back(&E);
  if (Live.empty())
    return "leaderboard has no live entry";
  std::stable_sort(Live.begin(), Live.end(),
                   [](const fleet::Server::LeaderEntry *A,
                      const fleet::Server::LeaderEntry *B) {
                     return A->Speedup > B->Speedup;
                   });
  Live.resize(std::min<size_t>(Live.size(), static_cast<size_t>(TopK)));

  // A reference device at the fleet seed: profile, detect, capture.
  core::IterativeCompiler Pipeline(Config);
  core::IterativeCompiler::ProfiledApp P = Pipeline.profileApp(App);
  if (!P.Region)
    return "reference device found no hot region";
  std::optional<core::CapturedRegion> C =
      Pipeline.captureRegion(*P.Instance, *P.Region);
  if (!C)
    return "reference device capture failed";

  for (const fleet::Server::LeaderEntry *E : Live) {
    lir::CompileOptions Options;
    Options.Pipeline = E->G.Passes;
    Options.RegAlloc = E->G.RegAlloc;
    Options.SizeBudget = Config.Search.CompileSizeBudget;
    vm::CodeCache Code;
    if (lir::compileAllLlvm(*App.File, P.Region->Methods, Options, Code,
                            &C->Profile) != lir::CompileStatus::Ok)
      return "leaderboard genome " + E->Key + " does not compile";
    std::string Err =
        checkAgainstInterpreter(App, P.Region->Methods, Code, Config.Seed + 7,
                                Config.Measure.FinalSessionBlock);
    if (!Err.empty())
      return "leaderboard genome " + E->Key + ": " + Err;
  }
  return "";
}
