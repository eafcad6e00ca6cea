//===- ZipperTest.cpp - Selective context sensitivity tests ---------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "zipper/Zipper.h"

#include "client/AnalysisSession.h"
#include "pta/Solver.h"
#include "workload/Workload.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace csc;
using namespace csc::test;

namespace {

/// The selection over a freshly solved ci fixpoint of \p P.
ZipperSelection selectionOf(const Program &P, const ZipperOptions &O = {}) {
  return runZipperSelection(P, Solver(P).solve(), O);
}

std::unique_ptr<AnalysisSession> exampleSession(const std::string &File) {
  std::vector<std::string> Diags;
  auto S = AnalysisSession::fromFiles(
      {std::string(CSC_EXAMPLES_DIR) + "/" + File}, {}, Diags);
  for (const std::string &D : Diags)
    ADD_FAILURE() << File << ": " << D;
  return S;
}

std::unique_ptr<AnalysisSession> tierSession(const std::string &Name) {
  for (const WorkloadConfig &C : scalingSuite()) {
    if (C.Name != Name)
      continue;
    std::vector<std::string> Diags;
    auto P = buildWorkloadProgram(C, Diags);
    std::unique_ptr<AnalysisSession> S;
    if (P)
      S = AnalysisSession::adopt(std::move(P), {}, Diags);
    for (const std::string &D : Diags)
      ADD_FAILURE() << Name << ": " << D;
    return S;
  }
  ADD_FAILURE() << "no such tier: " << Name;
  return nullptr;
}

/// Zipper-e's pre-analysis is the ci fixpoint: the session's selection
/// equals one computed from a separate session's `ci` run, and the spec
/// parameters that do not feed the selection (engine, scc, k) leave it
/// unchanged.
void expectSelectionIsOverCi(AnalysisSession &S, const std::string &Name) {
  SCOPED_TRACE(Name);
  AnalysisSession Fresh(S.program());
  AnalysisRun CI = Fresh.run("ci");
  ASSERT_TRUE(CI.completed());
  ZipperOptions Guarded;
  Guarded.CostFraction = 0.05;
  Guarded.MinCostFloor = 0;
  for (const ZipperOptions &O : {ZipperOptions(), Guarded})
    EXPECT_EQ(S.zipperSelection(O).Selected,
              runZipperSelection(S.program(), CI.Result, O).Selected);

  AnalysisRun Base = S.run("zipper-e");
  ASSERT_TRUE(Base.completed());
  EXPECT_TRUE(Base.PreFromCache);
  EXPECT_EQ(Base.SelectedMethods,
            S.zipperSelection(ZipperOptions()).Selected.size());
  for (const char *Spec : {"zipper-e;engine=doop", "zipper-e;scc=0",
                           "zipper-e;k=3"}) {
    AnalysisRun Run = S.run(Spec);
    ASSERT_TRUE(Run.completed()) << Spec;
    EXPECT_TRUE(Run.PreFromCache) << Spec;
    EXPECT_EQ(Run.SelectedMethods, Base.SelectedMethods) << Spec;
    AnalysisRun Alone = AnalysisSession(S.program()).run(Spec);
    ASSERT_TRUE(Alone.completed()) << Spec;
    EXPECT_FALSE(Alone.PreFromCache) << Spec;
    EXPECT_EQ(Alone.SelectedMethods, Base.SelectedMethods) << Spec;
  }
}

} // namespace

TEST(ZipperTest, SelectsAccessorClasses) {
  auto P = parseOrDie(figure1Source());
  ZipperSelection Sel = selectionOf(*P);
  // Carton has wrapped (setItem) and unwrapped (getItem) flows.
  MethodId SetItem = findMethod(*P, "Carton", "setItem");
  MethodId GetItem = findMethod(*P, "Carton", "getItem");
  EXPECT_TRUE(Sel.Selected.count(SetItem));
  EXPECT_TRUE(Sel.Selected.count(GetItem));
  EXPECT_GE(Sel.CriticalClasses, 1u);
}

TEST(ZipperTest, IgnoresFlowFreeClasses) {
  auto P = parseOrDie(R"(
class Sink {
  method consume(o: Object): void {
    var x: Object;
    x = new Object;
  }
}
class Main {
  static method main(): void {
    var s: Sink;
    var o: Object;
    s = new Sink;
    o = new Object;
    call s.consume(o);
  }
}
)");
  ZipperSelection Sel = selectionOf(*P);
  MethodId Consume = findMethod(*P, "Sink", "consume");
  EXPECT_FALSE(Sel.Selected.count(Consume))
      << "no IN->OUT flow, must not be selected";
}

TEST(ZipperTest, MainAnalysisRecoversFigure1Precision) {
  auto P = parseOrDie(figure1Source());
  AnalysisSession S(*P);
  AnalysisRun Out = S.run("zipper-e");
  ASSERT_TRUE(Out.completed()) << Out.Error;
  MethodId Main = findMethod(*P, "Main", "main");
  ObjId O16 = allocOf(*P, findVar(*P, Main, "item1"));
  VarId Result1 = findVar(*P, Main, "result1");
  EXPECT_EQ(Out.Result.pt(Result1).toVector(), std::vector<uint32_t>{O16});
  EXPECT_GT(Out.SelectedMethods, 0u);
  EXPECT_GT(Out.Timings.PreMs, 0.0);
  EXPECT_FALSE(Out.PreFromCache);

  // A second Zipper-e run on the same session reuses the pre-analysis
  // slot and reaches the same result.
  AnalysisRun Again = S.run("zipper-e");
  ASSERT_TRUE(Again.completed());
  EXPECT_TRUE(Again.PreFromCache);
  EXPECT_EQ(Again.SelectedMethods, Out.SelectedMethods);
  EXPECT_EQ(Again.Result.pt(Result1).toVector(),
            std::vector<uint32_t>{O16});
}

TEST(ZipperTest, CostGuardUnselectsExpensiveClasses) {
  auto P = parseOrDie(figure1Source());
  ZipperOptions Opts;
  Opts.CostFraction = 0.0000001; // Everything is "too expensive".
  Opts.MinCostFloor = 0;
  ZipperSelection Sel = selectionOf(*P, Opts);
  EXPECT_TRUE(Sel.Selected.empty());
  EXPECT_GT(Sel.UnselectedByCostGuard, 0u);
}

TEST(ZipperTest, SelectionIsDeterministic) {
  auto P1 = parseOrDie(figure1Source());
  auto P2 = parseOrDie(figure1Source());
  ZipperSelection S1 = selectionOf(*P1);
  ZipperSelection S2 = selectionOf(*P2);
  EXPECT_EQ(S1.Selected, S2.Selected);
  EXPECT_EQ(S1.CriticalClasses, S2.CriticalClasses);
}

TEST(ZipperTest, PreAnalysisIsTheCiFixpointOnExamples) {
  for (const char *File : {"figure1.jir", "containers.jir"}) {
    auto S = exampleSession(File);
    ASSERT_NE(S, nullptr);
    expectSelectionIsOverCi(*S, File);
  }
}

TEST(ZipperTest, PreAnalysisIsTheCiFixpointOnTiers) {
  for (const char *Tier : {"scale-xs", "scale-s", "scale-m"}) {
    auto S = tierSession(Tier);
    ASSERT_NE(S, nullptr);
    expectSelectionIsOverCi(*S, Tier);
  }
}

TEST(ZipperTest, PreAnalysisHonoursTheWorkBudget) {
  auto S = tierSession("scale-s");
  ASSERT_NE(S, nullptr);
  S->setWorkBudget(300);
  AnalysisRun Out = S->run("zipper-e");
  EXPECT_EQ(Out.Status, RunStatus::BudgetExhausted);
  EXPECT_EQ(Out.Timings.MainMs, 0.0) << "the pre-analysis hit the budget";
  EXPECT_EQ(Out.Metrics.ReachMethods, 0u);
  EXPECT_EQ(Out.Metrics.CallEdges, 0u);
  EXPECT_FALSE(Out.PreFromCache);

  // The exhausted fixpoint stays in the slot for the budget it hit...
  AnalysisRun Again = S->run("zipper-e");
  EXPECT_EQ(Again.Status, RunStatus::BudgetExhausted);
  EXPECT_TRUE(Again.PreFromCache);

  // ...and a new budget drops it: the next run solves afresh.
  S->setWorkBudget(~0ULL);
  AnalysisRun Full = S->run("zipper-e");
  ASSERT_TRUE(Full.completed());
  EXPECT_FALSE(Full.PreFromCache);
  EXPECT_GT(Full.Metrics.ReachMethods, 0u);
}
