//===- bench/abl_devirt.cpp - Section 3.4's devirtualization ablation -------===//
//
// Speculative devirtualization driven by the interpreted replay's type
// profile: guard + direct call, then inlining of the devirtualized callee.
// Reversi's strategy objects are 90% monomorphic — the pass's home turf.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace ropt;
using namespace ropt::bench;

int main(int Argc, char **Argv) {
  Options Opt = parseArgs(Argc, Argv);
  core::PipelineConfig Config = pipelineConfig(Opt);

  printHeader("Ablation: profile-guided speculative devirtualization "
              "(Reversi)",
              "replay type profiles enable guarded direct calls and "
              "inlining of virtual call sites");

  workloads::Application App = workloads::buildByName("Reversi Android");
  core::IterativeCompiler Pipeline(Config);
  core::IterativeCompiler::ProfiledApp P = Pipeline.profileApp(App);
  support::Result<core::SearchInputs> Inputs =
      Pipeline.captureInputs(P, *P.Region);
  if (!Inputs) {
    std::fprintf(stderr, "%s\n", Inputs.error().Message.c_str());
    return 1;
  }
  support::Result<std::unique_ptr<core::RegionSearch>> Prepared =
      Pipeline.prepareSearch(App, std::move(Inputs).value());
  if (!Prepared) {
    std::fprintf(stderr, "%s\n", Prepared.error().Message.c_str());
    return 1;
  }
  core::RegionSearch &Search = *Prepared.value();
  std::printf("type-profile sites recorded by the interpreted replay: "
              "%zu\n\n",
              Search.Captures.front().Profile.siteCount());

  double Android = Search.Android.MedianCycles;

  auto Mk = [](lir::PassId Id, int Param = 0) {
    lir::PassInstance X;
    X.Id = Id;
    X.IntParam = Param;
    return X;
  };
  auto Show = [&](const char *Name,
                  const std::vector<lir::PassInstance> &Pipe) {
    search::Evaluation E = Search.Baselines.evaluatePipeline(Pipe);
    if (E.ok())
      std::printf("%-34s %12.0f cycles  %6.2fx vs Android\n", Name,
                  E.MedianCycles, Android / E.MedianCycles);
    else
      std::printf("%-34s %s\n", Name, search::evalKindName(E.Kind));
  };

  std::printf("%-34s %12.0f cycles  %6.2fx\n", "Android compiler", Android,
              1.0);
  Show("-O2 (no devirt)", lir::o2Pipeline());
  {
    auto Pipe = lir::o2Pipeline();
    Pipe.push_back(Mk(lir::PassId::Devirtualize, 80));
    Show("-O2 + devirt (80% threshold)", Pipe);
  }
  {
    auto Pipe = lir::o2Pipeline();
    Pipe.push_back(Mk(lir::PassId::Devirtualize, 80));
    Pipe.push_back(Mk(lir::PassId::Inline, 80));
    Pipe.push_back(Mk(lir::PassId::SimplifyCfg));
    Pipe.push_back(Mk(lir::PassId::Gvn));
    Pipe.push_back(Mk(lir::PassId::Dce));
    Show("-O2 + devirt + inline", Pipe);
  }
  {
    auto Pipe = lir::o2Pipeline();
    Pipe.push_back(Mk(lir::PassId::Devirtualize, 99));
    Show("-O2 + devirt (99%: refuses)", Pipe);
  }
  return 0;
}
