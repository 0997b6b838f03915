//===- bench/abl_ga_vs_random.cpp - Does the GA earn its keep? --------------===//
//
// Section 4 motivates the genetic algorithm over simpler strategies. This
// ablation gives random search the *same* evaluation budget the GA spends
// (including its gen-0 replacement retries and hill climb) and compares
// the best region speedup each strategy finds.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace ropt;
using namespace ropt::bench;

int main(int Argc, char **Argv) {
  Options Opt = parseArgs(Argc, Argv);
  core::PipelineConfig Config = pipelineConfig(Opt);
  beginObservability(Opt);
  ReportScope Report(Opt, "abl_ga_vs_random", Config);

  printHeader("Ablation: GA vs random search at equal evaluation budget",
              "the GA's selection pressure matters; random search wastes "
              "its budget on broken or slow genomes");

  std::printf("%-18s %8s | %9s %9s | %10s %10s\n", "app", "evals", "ga",
              "random", "ga-valid%", "rnd-valid%");

  std::vector<std::string> Apps = {"FFT", "SOR", "Sieve",
                                   "Reversi Android"};
  if (Opt.Fast)
    Apps = {"FFT", "Sieve"};

  double SumGa = 0, SumRnd = 0;
  int Rows = 0;
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

    // --- The GA, tracing so we know its true evaluation count. --------
    Report.beginApp(Name);
    search::GaTrace Trace;
    search::GeneticSearch GA(Config.Search.GA, Config.Seed ^ 0x6a5e,
                             Search.Engine, Report.report());
    std::optional<search::Scored> Best =
        GA.run(Android, Search.o3Bar(), &Trace);
    if (report::RunReport *RR = Report.report()) {
      report::AppOutcome O;
      O.Succeeded = Best.has_value();
      O.RegionAndroid = Android;
      O.RegionO3 = Search.O3.ok() ? Search.O3.MedianCycles : 0.0;
      O.RegionBest = Best ? Best->E.MedianCycles : 0.0;
      RR->endApp(O);
    }
    int Budget = static_cast<int>(Trace.Evaluations.size());
    int GaValid = 0;
    for (const search::TraceEntry &E : Trace.Evaluations)
      GaValid += E.Valid;
    double GaSpeedup =
        Best && Best->E.ok() ? Android / Best->E.MedianCycles : 0.0;

    // --- Random search with exactly the same budget. -------------------
    Rng R(Config.Seed ^ 0x7a9d);
    double RndBestCycles = 0.0;
    int RndValid = 0;
    for (int I = 0; I != Budget; ++I) {
      search::Genome G = search::randomGenome(R, Config.Search.GA.Genomes);
      search::Evaluation E =
          Search.Baselines.evaluatePipeline(G.Passes, G.RegAlloc);
      if (!E.ok())
        continue;
      ++RndValid;
      if (RndBestCycles == 0.0 || E.MedianCycles < RndBestCycles)
        RndBestCycles = E.MedianCycles;
    }
    double RndSpeedup = RndBestCycles ? Android / RndBestCycles : 0.0;

    std::printf("%-18s %8d | %8.2fx %8.2fx | %9.0f%% %9.0f%%\n",
                Name.c_str(), Budget, GaSpeedup, RndSpeedup,
                100.0 * GaValid / std::max(1, Budget),
                100.0 * RndValid / std::max(1, Budget));
    SumGa += GaSpeedup;
    SumRnd += RndSpeedup;
    ++Rows;
  }

  if (Rows)
    std::printf("\naverage best-found speedup: GA %.2fx, random %.2fx\n",
                SumGa / Rows, SumRnd / Rows);
  finishObservability(Opt);
  return 0;
}
