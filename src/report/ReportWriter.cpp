//===- report/ReportWriter.cpp - Run-directory artifact streams -----------===//

#include "report/ReportWriter.h"

#include <filesystem>

using namespace ropt;
using namespace ropt::report;

support::Result<std::unique_ptr<ReportWriter>>
ReportWriter::open(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return support::Error(support::ErrorCode::Unknown,
                          "cannot create run directory " + Dir + ": " +
                              Ec.message());

  std::unique_ptr<ReportWriter> W(new ReportWriter(Dir));
  std::string EvalsPath = Dir + "/" + EvaluationsFile;
  std::string GensPath = Dir + "/" + GenerationsFile;
  W->Evals = std::fopen(EvalsPath.c_str(), "w");
  W->Gens = std::fopen(GensPath.c_str(), "w");
  if (!W->Evals || !W->Gens)
    return support::Error(support::ErrorCode::Unknown,
                          "cannot open report streams under " + Dir);
  return W;
}

ReportWriter::~ReportWriter() {
  if (Evals)
    std::fclose(Evals);
  if (Gens)
    std::fclose(Gens);
  if (Fleet)
    std::fclose(Fleet);
  if (Analysis)
    std::fclose(Analysis);
}

void ReportWriter::appendLine(std::FILE *F, const std::string &Json) {
  if (!F)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fputc('\n', F);
  std::fflush(F);
}

void ReportWriter::appendEvaluation(const std::string &Json) {
  appendLine(Evals, Json);
}

void ReportWriter::appendGeneration(const std::string &Json) {
  appendLine(Gens, Json);
}

void ReportWriter::appendFleetStep(const std::string &Json) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Fleet) {
      std::string Path = Dir + "/" + FleetFile;
      Fleet = std::fopen(Path.c_str(), "w");
      if (!Fleet)
        return;
    }
  }
  appendLine(Fleet, Json);
}

void ReportWriter::appendAnalysis(const std::string &Json) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Analysis) {
      std::string Path = Dir + "/" + AnalysisFile;
      Analysis = std::fopen(Path.c_str(), "w");
      if (!Analysis)
        return;
    }
  }
  appendLine(Analysis, Json);
}

bool ReportWriter::writeFile(const char *Name, const std::string &Content) {
  std::string Path = Dir + "/" + Name;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Content.data(), 1, Content.size(), F);
  bool Closed = std::fclose(F) == 0;
  return Written == Content.size() && Closed;
}
