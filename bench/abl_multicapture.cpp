//===- bench/abl_multicapture.cpp - Section 5.4's multi-capture ablation ----===//
//
// The paper notes (Section 5.4) that a production deployment would
// evaluate candidate binaries against *multiple* captures so the search
// cannot overfit one input. This ablation trains the GA with 1 vs 3
// captures and judges both winners on a held-out capture the search
// never saw, plus on whole-program sessions outside the replay world.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace ropt;
using namespace ropt::bench;

int main(int Argc, char **Argv) {
  Options Opt = parseArgs(Argc, Argv);
  core::PipelineConfig BaseConfig = pipelineConfig(Opt);
  beginObservability(Opt);
  ReportScope Report(Opt, "abl_multicapture", BaseConfig);

  printHeader("Ablation: multi-capture fitness (paper Section 5.4)",
              "GA winners trained on 1 vs 3 captures, judged on a "
              "held-out capture and on live sessions");

  std::printf("%-18s %10s %10s | %12s %12s | %9s %9s\n", "app",
              "ga@1cap", "ga@3cap", "heldout@1", "heldout@3", "live@1",
              "live@3");

  std::vector<std::string> Apps = {"FFT", "SOR", "Sieve",
                                   "Reversi Android"};
  if (Opt.Fast)
    Apps = {"FFT", "Sieve"};

  double SumHeld1 = 0, SumHeld3 = 0;
  int Rows = 0;
  for (const std::string &Name : Apps) {
    workloads::Application App = workloads::buildByName(Name);

    auto TrainWith = [&](int Captures) {
      core::PipelineConfig Config = pipelineConfig(Opt);
      Config.Capture.CapturesPerRegion = Captures;
      Config.Provenance = Report.report();
      Report.beginApp(Name + "@" + std::to_string(Captures) + "cap");
      core::IterativeCompiler Pipeline(Config);
      core::OptimizationReport R =
          Pipeline.optimize(workloads::buildByName(Name));
      Report.endApp(R);
      return R;
    };
    core::OptimizationReport R1 = TrainWith(1);
    core::OptimizationReport R3 = TrainWith(3);
    if (!R1.Succeeded || !R3.Succeeded) {
      std::printf("%-18s pipeline failed (%s)\n", Name.c_str(),
                  (R1.Succeeded ? R3.FailureReason : R1.FailureReason)
                      .c_str());
      continue;
    }

    // A held-out capture from a session offset far outside anything the
    // training captures used.
    core::PipelineConfig HoldConfig = pipelineConfig(Opt);
    HoldConfig.Seed ^= 0x8e1d007ULL;
    core::IterativeCompiler Holdout(HoldConfig);
    core::IterativeCompiler::ProfiledApp P = Holdout.profileApp(App);
    if (!P.Region) {
      std::printf("%-18s no region on holdout boot\n", Name.c_str());
      continue;
    }
    std::optional<core::CapturedRegion> Cap =
        Holdout.captureRegion(*P.Instance, *P.Region, /*SessionOffset=*/900);
    if (!Cap) {
      std::printf("%-18s holdout capture failed\n", Name.c_str());
      continue;
    }
    std::vector<core::CapturedRegion> Held;
    Held.push_back(std::move(*Cap));
    core::RegionEvaluator Eval(App, *P.Region, Held, HoldConfig);
    double Android = Eval.evaluateAndroid().MedianCycles;
    auto HeldoutSpeedup = [&](const search::Genome &G) {
      search::Evaluation E = Eval.evaluatePipeline(G.Passes, G.RegAlloc);
      return E.ok() ? Android / E.MedianCycles : 0.0;
    };
    double Held1 = HeldoutSpeedup(R1.Best.G);
    double Held3 = HeldoutSpeedup(R3.Best.G);

    std::printf("%-18s %9.2fx %9.2fx | %11.2fx %11.2fx | %8.2fx %8.2fx\n",
                Name.c_str(), R1.RegionAndroid / R1.RegionBest,
                R3.RegionAndroid / R3.RegionBest, Held1, Held3,
                R1.speedupGaOverAndroid(), R3.speedupGaOverAndroid());
    SumHeld1 += Held1;
    SumHeld3 += Held3;
    ++Rows;
  }

  if (Rows) {
    std::printf("\nheld-out average: 1-capture winner %.2fx, 3-capture "
                "winner %.2fx\n",
                SumHeld1 / Rows, SumHeld3 / Rows);
    std::printf("(a winner that only memorised its training capture "
                "shows up here as the lower column; 0.00x means it "
                "failed verification on the unseen input)\n");
  }
  finishObservability(Opt);
  return 0;
}
