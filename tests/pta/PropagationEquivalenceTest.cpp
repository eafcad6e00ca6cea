//===- PropagationEquivalenceTest.cpp - delta vs full propagation ---------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
//
// The solver's set-at-a-time delta propagation and the Doop-style full
// re-propagation fallback must compute the same fixpoint. This suite pins
// that equivalence on the real example programs shipped in examples/ (the
// same files the cscpta acceptance pipeline uses), for both the plain CI
// analysis and the full Cut-Shortcut configuration.
//
// The second half of the suite pins the cycle-elimination contract
// (SolverOptions::CycleElimination, spec parameter `scc`): for ci, csc,
// and 2obj — on the examples and on the cycle-bearing scale-xs/scale-s
// workload tiers — scc=on and scc=off must produce identical PTAResult
// projections, identical precision metrics, and byte-identical
// (timing-free) cscpta JSON run reports, including the serialized solver
// stats. A final test pins determinism when the work budget exhausts
// mid-run (mid-collapse) with scc=on.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisSession.h"
#include "client/Report.h"
#include "csc/CutShortcutPlugin.h"
#include "frontend/Parser.h"
#include "pta/Solver.h"
#include "stdlib/ContainerSpec.h"
#include "stdlib/Stdlib.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

using namespace csc;

namespace {

std::unique_ptr<Program> loadExample(const std::string &File) {
  std::ifstream In(std::string(CSC_EXAMPLES_DIR) + "/" + File);
  if (!In)
    return nullptr;
  std::ostringstream Text;
  Text << In.rdbuf();
  auto P = std::make_unique<Program>();
  std::vector<std::string> Diags;
  if (!parseProgram(*P,
                    {{"<stdlib>", stdlibSource()}, {File, Text.str()}},
                    Diags)) {
    for (const std::string &D : Diags)
      ADD_FAILURE() << File << ": " << D;
    return nullptr;
  }
  return P;
}

PTAResult solveWith(const Program &P, bool DeltaPropagation, bool UseCsc) {
  SolverOptions Opts;
  Opts.DeltaPropagation = DeltaPropagation;
  Solver S(P, Opts);
  std::unique_ptr<CutShortcutPlugin> Plugin;
  ContainerSpec Spec;
  if (UseCsc) {
    Spec = ContainerSpec::forProgram(P);
    Plugin = std::make_unique<CutShortcutPlugin>(P, Spec);
    S.addPlugin(Plugin.get());
  }
  return S.solve();
}

/// Asserts every client-visible projection of two results is identical.
void expectSameResults(const Program &P, const PTAResult &A,
                       const PTAResult &B, const std::string &Label) {
  ASSERT_FALSE(A.Exhausted) << Label;
  ASSERT_FALSE(B.Exhausted) << Label;
  for (VarId V = 0; V < P.numVars(); ++V)
    EXPECT_EQ(A.pt(V).toVector(), B.pt(V).toVector())
        << Label << ": var " << P.var(V).Name;
  for (ObjId O = 0; O < P.numObjs(); ++O)
    EXPECT_EQ(A.ptArray(O).toVector(), B.ptArray(O).toVector())
        << Label << ": array of obj " << O;
  EXPECT_EQ(A.numCallEdgesCI(), B.numCallEdgesCI()) << Label;
  EXPECT_EQ(A.numReachableCI(), B.numReachableCI()) << Label;
  // Call edges per site, order-insensitively.
  for (CallSiteId CS = 0; CS < P.numCallSites(); ++CS) {
    std::vector<MethodId> CA = A.calleesOf(CS);
    std::vector<MethodId> CB = B.calleesOf(CS);
    std::sort(CA.begin(), CA.end());
    std::sort(CB.begin(), CB.end());
    EXPECT_EQ(CA, CB) << Label << ": call site " << CS;
  }
}

class PropagationEquivalenceTest
    : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(PropagationEquivalenceTest, CIFixpointsMatch) {
  auto P = loadExample(GetParam());
  ASSERT_NE(P, nullptr);
  PTAResult Delta = solveWith(*P, /*DeltaPropagation=*/true, false);
  PTAResult Full = solveWith(*P, /*DeltaPropagation=*/false, false);
  expectSameResults(*P, Delta, Full, std::string("ci/") + GetParam());
}

TEST_P(PropagationEquivalenceTest, CscFixpointsMatch) {
  auto P = loadExample(GetParam());
  ASSERT_NE(P, nullptr);
  PTAResult Delta = solveWith(*P, /*DeltaPropagation=*/true, true);
  PTAResult Full = solveWith(*P, /*DeltaPropagation=*/false, true);
  expectSameResults(*P, Delta, Full, std::string("csc/") + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Examples, PropagationEquivalenceTest,
                         ::testing::Values("figure1.jir", "containers.jir"),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           return Name.substr(0, Name.find('.'));
                         });

//===----------------------------------------------------------------------===//
// Cycle elimination (scc=on vs scc=off) equivalence
//===----------------------------------------------------------------------===//

namespace {

/// The timing-free JSON report of one completed run (what the batch
/// aggregate and the byte-identity contract are built on).
std::string reportOf(const AnalysisRun &Run) {
  JsonWriter J;
  appendRunJson(J, Run, /*IncludeTimings=*/false);
  return J.take();
}

/// Runs every (spec, scc) combination over one session and asserts the
/// scc=on and scc=off reports are byte-identical and the projections
/// agree.
void expectSccEquivalence(AnalysisSession &S, const std::string &Label) {
  const Program &P = S.program();
  for (const char *Spec : {"ci", "csc", "2obj"}) {
    AnalysisRun On = S.run(std::string(Spec) + ";scc=1");
    AnalysisRun Off = S.run(std::string(Spec) + ";scc=0");
    ASSERT_EQ(On.Status, RunStatus::Completed) << Label << "/" << Spec;
    ASSERT_EQ(Off.Status, RunStatus::Completed) << Label << "/" << Spec;
    // Name differs by construction; everything else must not. Erase the
    // spec spelling before comparing bytes.
    On.Name = Off.Name = Spec;
    EXPECT_EQ(reportOf(On), reportOf(Off)) << Label << "/" << Spec;
    expectSameResults(P, On.Result, Off.Result,
                      Label + "/" + Spec + "/scc");
    EXPECT_EQ(On.Metrics.FailCasts, Off.Metrics.FailCasts) << Label;
    EXPECT_EQ(On.Metrics.ReachMethods, Off.Metrics.ReachMethods) << Label;
    EXPECT_EQ(On.Metrics.PolyCalls, Off.Metrics.PolyCalls) << Label;
    EXPECT_EQ(On.Metrics.CallEdges, Off.Metrics.CallEdges) << Label;
    // The logical work counter is a fixpoint invariant (sum of all
    // per-pointer set sizes), so it must match exactly.
    EXPECT_EQ(On.Result.Stats.PtsInsertions, Off.Result.Stats.PtsInsertions)
        << Label << "/" << Spec;
    EXPECT_EQ(Off.Result.Stats.Scc.SccsFound, 0u) << Label << "/" << Spec;
  }
}

std::unique_ptr<AnalysisSession> tierSession(const char *Name) {
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

} // namespace

TEST_P(PropagationEquivalenceTest, SccOnOffIdenticalOnExamples) {
  auto P = loadExample(GetParam());
  ASSERT_NE(P, nullptr);
  AnalysisSession S(*P);
  expectSccEquivalence(S, GetParam());
}

TEST(SccEquivalenceTest, ScaleXsTierIdentical) {
  auto S = tierSession("scale-xs");
  ASSERT_NE(S, nullptr);
  expectSccEquivalence(*S, "scale-xs");
}

TEST(SccEquivalenceTest, ScaleSTierIdentical) {
  auto S = tierSession("scale-s");
  ASSERT_NE(S, nullptr);
  expectSccEquivalence(*S, "scale-s");
}

TEST(SccEquivalenceTest, CollapsesActuallyHappen) {
  // Guard against the suite silently passing because nothing collapsed:
  // the cycle-bearing scale-s tier must produce at least one merged SCC
  // under ci with cycle elimination on.
  auto S = tierSession("scale-s");
  ASSERT_NE(S, nullptr);
  AnalysisRun On = S->run("ci");
  ASSERT_TRUE(On.completed());
  EXPECT_GT(On.Result.Stats.Scc.SccsFound, 0u);
  EXPECT_GT(On.Result.Stats.Scc.MembersCollapsed, 0u);
}

TEST(SccEquivalenceTest, BudgetExhaustionMidCollapseIsDeterministic) {
  // Exhaust the work budget mid-run (small enough to land between / during
  // collapses) and require two identical runs to agree bit-for-bit on
  // status, work counter, and every projection — collapse scheduling must
  // be deterministic even when interrupted.
  auto S = tierSession("scale-s");
  ASSERT_NE(S, nullptr);
  const Program &P = S->program();
  // scale-s/ci completes around ~1.7k insertions, with scheduled Tarjan
  // passes along the way and the fixpoint pass at the end: the small
  // budgets land mid-run, the large one completes (covering both
  // interrupted and finished runs).
  bool SawExhaustion = false;
  for (uint64_t Budget : {300ULL, 900ULL, 60000ULL}) {
    S->setWorkBudget(Budget);
    AnalysisRun A = S->run("ci");
    AnalysisRun B = S->run("ci");
    ASSERT_EQ(A.Status, B.Status) << "budget " << Budget;
    SawExhaustion = SawExhaustion || A.exhausted();
    EXPECT_EQ(A.Result.Stats.PtsInsertions, B.Result.Stats.PtsInsertions)
        << "budget " << Budget;
    EXPECT_EQ(A.Result.Stats.Scc.SccsFound, B.Result.Stats.Scc.SccsFound)
        << "budget " << Budget;
    for (VarId V = 0; V < P.numVars(); ++V)
      ASSERT_EQ(A.Result.pt(V).toVector(), B.Result.pt(V).toVector())
          << "budget " << Budget << " var " << V;
  }
  EXPECT_TRUE(SawExhaustion) << "budgets too large: nothing interrupted";
  S->setWorkBudget(~0ULL);
}
