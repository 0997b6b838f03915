//===- bench/abl_regalloc.cpp - Register-allocation strategy ablation -------===//
//
// The genome's register-allocation gene picks one of four strategies.
// This ablation isolates that axis: the same -O2 mid-level pipeline under
// each allocator, on a register-hungry kernel (FFT) and a branchy game
// (Reversi). Spills cost SpillTouchCycles per touch, so the allocator
// choice shows up directly in region cycles.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace ropt;
using namespace ropt::bench;

int main(int Argc, char **Argv) {
  Options Opt = parseArgs(Argc, Argv);
  core::PipelineConfig Config = pipelineConfig(Opt);

  printHeader("Ablation: register allocation strategies under -O2",
              "live-interval allocation wins; keeping virtual numbering "
              "drowns the kernel in spill traffic");

  struct Strategy {
    hgraph::RegAllocKind Kind;
    const char *Name;
  };
  const Strategy Strategies[] = {
      {hgraph::RegAllocKind::LinearScan, "linear-scan"},
      {hgraph::RegAllocKind::Frequency, "frequency"},
      {hgraph::RegAllocKind::FirstUse, "first-use"},
      {hgraph::RegAllocKind::None, "none (virtual)"},
  };

  std::vector<std::string> Apps = {"FFT", "Reversi Android"};
  if (Opt.Fast)
    Apps = {"FFT"};

  for (const std::string &Name : Apps) {
    workloads::Application App = workloads::buildByName(Name);
    core::IterativeCompiler Pipeline(Config);
    core::IterativeCompiler::ProfiledApp P = Pipeline.profileApp(App);
    if (!P.Region)
      continue;
    support::Result<core::SearchInputs> Inputs =
        Pipeline.captureInputs(P, *P.Region);
    if (!Inputs)
      continue;
    support::Result<std::unique_ptr<core::RegionSearch>> Prepared =
        Pipeline.prepareSearch(App, std::move(Inputs).value());
    if (!Prepared)
      continue;
    core::RegionSearch &Search = *Prepared.value();
    double Android = Search.Android.MedianCycles;

    std::printf("%s (android region median %.0f cycles)\n", Name.c_str(),
                Android);
    for (const Strategy &S : Strategies) {
      search::Evaluation E =
          Search.Baselines.evaluatePipeline(lir::o2Pipeline(), S.Kind);
      if (E.ok())
        std::printf("  -O2 + %-16s %12.0f cycles  %6.2fx vs Android\n",
                    S.Name, E.MedianCycles, Android / E.MedianCycles);
      else
        std::printf("  -O2 + %-16s failed: %s\n", S.Name,
                    search::evalKindName(E.Kind));
    }
    std::printf("\n");
  }
  return 0;
}
