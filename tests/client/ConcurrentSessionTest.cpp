//===- ConcurrentSessionTest.cpp - Concurrent runs on one session ---------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// AnalysisSession promises that any number of threads may run() over its
// one shared Program. This pins that promise where it matters most: ci,
// csc, 2obj and zipper-e started together, repeatedly, on a fresh
// container-heavy program each round (so no hierarchy query has been
// asked before the runs race to ask it, and the zipper-e runs race to
// fill the session's pre-analysis slot), each result compared byte for
// byte with a serial run of the same spec. Built under ThreadSanitizer it
// is the regression test for shared-Program and slot races; in every
// build it checks that concurrent runs compute exactly what serial runs
// do.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisSession.h"
#include "client/Report.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <thread>

using namespace csc;

namespace {

/// A small program dominated by container round trips with downcasts:
/// the csc container pattern, the type filters and virtual dispatch all
/// query the class hierarchy on every run.
WorkloadConfig containerHeavyConfig() {
  WorkloadConfig C;
  C.Name = "concurrent";
  C.Seed = 7;
  C.NumScenarios = 6;
  C.ActionsPerScenario = 10;
  C.NumEntityClasses = 8;
  C.NumFamilies = 4;
  C.ContainerMixPct = 80;
  C.NumSharedHubs = 1;
  return C;
}

std::unique_ptr<Program> buildProgram() {
  std::vector<std::string> Diags;
  auto P = buildWorkloadProgram(containerHeavyConfig(), Diags);
  for (const std::string &D : Diags)
    ADD_FAILURE() << D;
  return P;
}

std::string reportOf(const AnalysisRun &Run) {
  JsonWriter J;
  appendRunJson(J, Run, /*IncludeTimings=*/false);
  return J.take();
}

} // namespace

TEST(ConcurrentSessionTest, ConcurrentRunsMatchSerialRuns) {
  // Each spec twice, so two runs of one analysis also race each other;
  // the four zipper-e runs race for the session's one pre-analysis slot.
  const std::vector<std::string> Specs = {
      "ci",  "csc", "2obj", "zipper-e", "zipper-e;k=3",
      "2obj", "csc", "ci",  "zipper-e;k=3", "zipper-e"};

  std::unique_ptr<Program> SerialP = buildProgram();
  ASSERT_NE(SerialP, nullptr);
  AnalysisSession Serial(*SerialP);
  std::vector<std::string> Expected;
  for (const std::string &Spec : Specs) {
    AnalysisRun Run = Serial.run(Spec);
    ASSERT_TRUE(Run.completed()) << Spec << ": " << Run.Error;
    Expected.push_back(reportOf(Run));
  }

  for (int Round = 0; Round != 4; ++Round) {
    std::unique_ptr<Program> P = buildProgram();
    ASSERT_NE(P, nullptr);
    AnalysisSession S(*P);
    std::vector<AnalysisRun> Runs(Specs.size());
    std::vector<std::thread> Threads;
    for (size_t I = 0; I != Specs.size(); ++I)
      Threads.emplace_back([&, I] { Runs[I] = S.run(Specs[I]); });
    for (std::thread &T : Threads)
      T.join();
    for (size_t I = 0; I != Specs.size(); ++I) {
      ASSERT_TRUE(Runs[I].completed())
          << "round " << Round << ", " << Specs[I] << ": " << Runs[I].Error;
      EXPECT_EQ(reportOf(Runs[I]), Expected[I])
          << "round " << Round << ", " << Specs[I];
    }
  }
}
