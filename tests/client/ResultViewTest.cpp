//===- ResultViewTest.cpp - Result queries vs dynamic ground truth --------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Validates the client query surface — a run's PTAResult, the session's
// Program for name lookups, and the Metrics.h clients — on
// examples/figure1.jir (loaded from disk, stdlib prepended — the exact
// cscpta pipeline) against the interpreter's dynamic facts: every
// dynamically observed points-to fact, call edge and reached method must
// be over-approximated by pt / calleesOf / reachableMethods, for both CI
// and CSC. On top of soundness, CSC's precision claims on Figure 1 are
// checked through the same queries (mayAlias separates the two cartons'
// results).
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisSession.h"
#include "interp/Interpreter.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace csc;

#ifndef CSC_EXAMPLES_DIR
#error "CSC_EXAMPLES_DIR must be defined by the build"
#endif

namespace {

class ResultViewTest : public ::testing::TestWithParam<const char *> {
protected:
  void SetUp() override {
    std::vector<std::string> Diags;
    S = AnalysisSession::fromFiles(
        {std::string(CSC_EXAMPLES_DIR) + "/figure1.jir"}, {}, Diags);
    for (const std::string &D : Diags)
      ADD_FAILURE() << D;
    ASSERT_NE(S, nullptr);
    Run = S->run(GetParam());
    ASSERT_TRUE(Run.completed()) << Run.Error;
  }

  std::unique_ptr<AnalysisSession> S;
  AnalysisRun Run;
};

} // namespace

TEST_P(ResultViewTest, SoundlyOverApproximatesDynamicFacts) {
  const Program &P = S->program();
  const PTAResult &R = Run.Result;
  DynamicFacts Dyn = interpret(P);
  ASSERT_FALSE(Dyn.Truncated);
  ASSERT_GE(Dyn.ReachedMethods.size(), 3u);

  for (MethodId M : Dyn.ReachedMethods) {
    EXPECT_TRUE(R.isReachable(M)) << P.methodString(M);
    EXPECT_EQ(R.reachableMethods().count(M), 1u);
  }

  for (uint64_t E : Dyn.CallEdges) {
    CallSiteId CS = static_cast<CallSiteId>(E >> 32);
    MethodId M = static_cast<MethodId>(E & 0xFFFFFFFFu);
    const std::vector<MethodId> &Callees = R.calleesOf(CS);
    EXPECT_NE(std::find(Callees.begin(), Callees.end(), M), Callees.end())
        << "missed dynamic call edge to " << P.methodString(M);
  }

  for (const auto &[V, Objs] : Dyn.VarPointsTo)
    for (ObjId O : Objs)
      EXPECT_TRUE(R.pt(V).contains(O))
          << "missed dynamic points-to " << P.var(V).Name << " -> o" << O;

  // Dynamic aliasing implies static mayAlias: result1/item1 share their
  // object at run time under both analyses.
  VarId Result1 = P.varByName("Main.main.result1");
  VarId Item1 = P.varByName("Main.main.item1");
  ASSERT_NE(Result1, InvalidId);
  ASSERT_NE(Item1, InvalidId);
  EXPECT_TRUE(R.mayAlias(Result1, Item1));
}

TEST_P(ResultViewTest, NameBasedLookups) {
  const Program &P = S->program();
  EXPECT_NE(P.methodByName("Carton.getItem"), InvalidId);
  EXPECT_NE(P.methodByName("Main.main"), InvalidId);
  EXPECT_EQ(P.methodByName("Carton.noSuchMethod"), InvalidId);
  EXPECT_EQ(P.methodByName("NoSuchClass.m"), InvalidId);
  EXPECT_EQ(P.methodByName("nodots"), InvalidId);
  EXPECT_NE(P.varByName("Main.main.c1"), InvalidId);
  EXPECT_EQ(P.varByName("Main.main.zzz"), InvalidId);
  EXPECT_EQ(P.varByName("Main.nosuch.c1"), InvalidId);
}

TEST_P(ResultViewTest, CallSitesResolveToCartonMethods) {
  const Program &P = S->program();
  MethodId Main = P.methodByName("Main.main");
  MethodId SetItem = P.methodByName("Carton.setItem");
  MethodId GetItem = P.methodByName("Carton.getItem");
  ASSERT_NE(Main, InvalidId);

  std::vector<CallSiteId> Sites;
  for (CallSiteId CS = 0; CS < P.numCallSites(); ++CS)
    if (P.callSite(CS).Caller == Main)
      Sites.push_back(CS);
  ASSERT_EQ(Sites.size(), 4u) << "main has four virtual calls";
  uint32_t SetCalls = 0, GetCalls = 0;
  for (CallSiteId CS : Sites) {
    const std::vector<MethodId> &Callees = Run.Result.calleesOf(CS);
    ASSERT_EQ(Callees.size(), 1u)
        << "monomorphic dispatch at " << P.callSite(CS).S;
    SetCalls += Callees[0] == SetItem ? 1 : 0;
    GetCalls += Callees[0] == GetItem ? 1 : 0;
  }
  EXPECT_EQ(SetCalls, 2u);
  EXPECT_EQ(GetCalls, 2u);
}

TEST_P(ResultViewTest, NoFailingCastsOrPolyCallsInFigure1) {
  EXPECT_TRUE(mayFailCasts(S->program(), Run.Result).empty());
  EXPECT_TRUE(polyCallSites(S->program(), Run.Result).empty());
}

INSTANTIATE_TEST_SUITE_P(Analyses, ResultViewTest,
                         ::testing::Values("ci", "csc"));

// The precision side (beyond soundness): CSC separates the cartons where
// CI conflates them — observed through the result queries alone.
TEST(ResultViewPrecisionTest, CscSeparatesWhereCIConflates) {
  std::vector<std::string> Diags;
  auto S = AnalysisSession::fromFiles(
      {std::string(CSC_EXAMPLES_DIR) + "/figure1.jir"}, {}, Diags);
  ASSERT_NE(S, nullptr);

  AnalysisRun CI = S->run("ci");
  AnalysisRun Csc = S->run("csc");
  ASSERT_TRUE(CI.completed());
  ASSERT_TRUE(Csc.completed());

  VarId R1 = S->program().varByName("Main.main.result1");
  VarId R2 = S->program().varByName("Main.main.result2");
  ASSERT_NE(R1, InvalidId);
  ASSERT_NE(R2, InvalidId);

  EXPECT_TRUE(CI.Result.mayAlias(R1, R2)) << "CI merges the cartons";
  EXPECT_FALSE(Csc.Result.mayAlias(R1, R2)) << "CSC separates the cartons";
  EXPECT_EQ(CI.Result.pt(R1).size(), 2u);
  EXPECT_EQ(Csc.Result.pt(R1).size(), 1u);
}
