//===- RecallPropertyTest.cpp - Soundness as a property test --------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// The recall experiment (§5.1) as a property: for generated programs and
// many execution seeds, every dynamically observed fact must be
// over-approximated by every sound analysis. This is the strongest
// end-to-end guard against unsound cut/shortcut edges.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisSession.h"
#include "interp/Interpreter.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <cctype>

using namespace csc;

namespace {

struct RecallCase {
  uint64_t Seed;
  const char *Spec; ///< A registered analysis spec.
};

WorkloadConfig smallConfig(uint64_t Seed) {
  WorkloadConfig C;
  C.Name = "recall";
  C.Seed = Seed;
  C.NumScenarios = 4;
  C.ActionsPerScenario = 8;
  C.NumEntityClasses = 8;
  C.WrapperDepth = 2;
  C.NumFamilies = 4;
  C.FamilySize = 3;
  C.NumSelectors = 3;
  C.BombWidth = 3;
  C.BombDepth = 3;
  return C;
}

class RecallPropertyTest : public ::testing::TestWithParam<RecallCase> {};

} // namespace

TEST_P(RecallPropertyTest, DynamicFactsAreRecalled) {
  const RecallCase &Case = GetParam();
  std::vector<std::string> Diags;
  auto P = buildWorkloadProgram(smallConfig(Case.Seed), Diags);
  for (const std::string &D : Diags)
    ADD_FAILURE() << D;
  ASSERT_NE(P, nullptr);

  DynamicFacts Dyn = interpretManySeeds(*P, 6);
  ASSERT_GT(Dyn.ReachedMethods.size(), 5u);

  AnalysisSession S(*P);
  AnalysisRun O = S.run(Case.Spec);
  ASSERT_TRUE(O.completed()) << O.Error;
  const PTAResult &R = O.Result;

  for (MethodId M : Dyn.ReachedMethods)
    EXPECT_TRUE(R.isReachable(M))
        << "missed reachable method " << P->methodString(M);

  for (uint64_t E : Dyn.CallEdges) {
    CallSiteId CS = static_cast<CallSiteId>(E >> 32);
    MethodId M = static_cast<MethodId>(E & 0xFFFFFFFFu);
    bool Found = false;
    for (MethodId Callee : R.calleesOf(CS))
      Found = Found || Callee == M;
    EXPECT_TRUE(Found) << "missed call edge to " << P->methodString(M);
  }

  for (const auto &[V, Objs] : Dyn.VarPointsTo)
    for (ObjId O2 : Objs)
      EXPECT_TRUE(R.pt(V).contains(O2))
          << "missed points-to fact: " << P->var(V).Name << " -> o" << O2
          << " in " << P->methodString(P->var(V).Method);

  for (const auto &[Key, Objs] : Dyn.FieldPointsTo) {
    ObjId Base = static_cast<ObjId>(Key >> 32);
    FieldId F = static_cast<FieldId>(Key & 0xFFFFFFFFu);
    for (ObjId O2 : Objs)
      EXPECT_TRUE(R.ptField(Base, F).contains(O2))
          << "missed field fact o" << Base << "."
          << P->field(F).Name << " -> o" << O2;
  }

  std::vector<StmtId> MayFail = mayFailCasts(*P, R);
  for (StmtId S : Dyn.FailedCasts) {
    bool Found = false;
    for (StmtId F : MayFail)
      Found = Found || F == S;
    EXPECT_TRUE(Found) << "dynamically failing cast not flagged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecallPropertyTest,
    ::testing::Values(
        RecallCase{101, "ci"},
        RecallCase{101, "csc"},
        RecallCase{101, "2obj"},
        RecallCase{101, "zipper-e"},
        RecallCase{202, "ci"},
        RecallCase{202, "csc"},
        RecallCase{202, "2obj"},
        RecallCase{202, "2type"},
        RecallCase{303, "csc"},
        RecallCase{303, "2cs"},
        RecallCase{404, "csc"},
        RecallCase{404, "zipper-e"},
        RecallCase{505, "csc"},
        RecallCase{505, "ci"}),
    [](const ::testing::TestParamInfo<RecallCase> &Info) {
      std::string Name =
          "seed" + std::to_string(Info.param.Seed) + "_" + Info.param.Spec;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(RecallDoopModeTest, DoopEngineIsEquallySound) {
  std::vector<std::string> Diags;
  auto P = buildWorkloadProgram(smallConfig(606), Diags);
  ASSERT_NE(P, nullptr);
  DynamicFacts Dyn = interpretManySeeds(*P, 4);
  AnalysisSession S(*P);
  AnalysisRun O = S.run("csc-doop");
  ASSERT_TRUE(O.completed()) << O.Error;
  for (MethodId M : Dyn.ReachedMethods)
    EXPECT_TRUE(O.Result.isReachable(M)) << P->methodString(M);
  for (const auto &[V, Objs] : Dyn.VarPointsTo)
    for (ObjId O2 : Objs)
      EXPECT_TRUE(O.Result.pt(V).contains(O2)) << P->var(V).Name;
}
