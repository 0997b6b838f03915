//===- bench/abl_gc_elision.cpp - Section 5.1's FFT ablation --------------------===//
//
// The paper's FFT story: heap-related checks make plain -O3 lose ground to
// the Android compiler; the GA learns loop unrolling combined with the
// backend's post-loop GC-check elision. This harness isolates each piece.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace ropt;
using namespace ropt::bench;

int main(int Argc, char **Argv) {
  Options Opt = parseArgs(Argc, Argv);
  core::PipelineConfig Config = pipelineConfig(Opt);

  printHeader("Ablation: unroll + gc-elide on the FFT kernel (Section 5.1)",
              "stock -O3 pays the duplicated GC polls; gc-elide alone "
              "helps; unroll+gc-elide (the GA's discovery) wins");

  workloads::Application App = workloads::buildByName("FFT");
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

  double Android = Search.Android.MedianCycles;
  auto Mk = [](lir::PassId Id, int Param = 0) {
    lir::PassInstance X;
    X.Id = Id;
    X.IntParam = Param;
    return X;
  };
  auto Print = [&](const char *Name, const search::Evaluation &E) {
    if (E.ok())
      std::printf("%-26s %12.0f cycles  %6.2fx vs Android\n", Name,
                  E.MedianCycles, Android / E.MedianCycles);
    else
      std::printf("%-26s %s\n", Name, search::evalKindName(E.Kind));
  };
  auto Show = [&](const char *Name,
                  const std::vector<lir::PassInstance> &Pipe) {
    Print(Name, Search.Baselines.evaluatePipeline(Pipe));
  };

  std::printf("%-26s %12.0f cycles  %6.2fx\n", "Android compiler", Android,
              1.0);
  Print("LLVM -O3 (stock)", Search.O3);
  {
    auto Pipe = lir::o3Pipeline();
    Pipe.push_back(Mk(lir::PassId::GcElide));
    Show("-O3 + gc-elide", Pipe);
  }
  for (int Factor : {2, 4, 8, 16}) {
    auto Pipe = lir::o2Pipeline();
    Pipe.push_back(Mk(lir::PassId::LoopRotate));
    Pipe.push_back(Mk(lir::PassId::LoopUnroll, Factor));
    Pipe.push_back(Mk(lir::PassId::GcElide));
    Pipe.push_back(Mk(lir::PassId::Dce));
    Pipe.push_back(Mk(lir::PassId::SimplifyCfg));
    char Name[64];
    std::snprintf(Name, sizeof(Name), "rotate+unroll=%d+gc-elide",
                  Factor);
    Show(Name, Pipe);
  }
  {
    auto Pipe = lir::o2Pipeline();
    Pipe.push_back(Mk(lir::PassId::LoopRotate));
    Pipe.push_back(Mk(lir::PassId::LoopUnroll, 4));
    Pipe.push_back(Mk(lir::PassId::Dce));
    Pipe.push_back(Mk(lir::PassId::SimplifyCfg));
    Show("rotate+unroll=4 (no elide)", Pipe);
  }
  return 0;
}
