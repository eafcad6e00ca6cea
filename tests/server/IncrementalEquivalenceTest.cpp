//===- IncrementalEquivalenceTest.cpp - warm resume vs from-scratch -------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
//
// The analysis server's equivalence contract: after an additive program
// delta, a warm-started IncrementalSolver (Solver::resolveIncrement over
// the retained fixpoint) must produce a PTAResult identical to a
// from-scratch solve of the post-delta program — every points-to
// projection, the call graph, and the state-determined solver counters,
// under context-insensitive and context-sensitive specs, with cycle
// elimination on and off. Pinned on the real
// example programs (scripted delta sequences) and the scale-xs/scale-s
// workload tiers, plus the forced full re-solve path taken for
// non-monotone (dispatch-changing) deltas.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisRegistry.h"
#include "frontend/Parser.h"
#include "ir/Printer.h"
#include "server/IncrementalSolver.h"
#include "stdlib/Stdlib.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace csc;

namespace {

std::string readExample(const std::string &File) {
  std::ifstream In(std::string(CSC_EXAMPLES_DIR) + "/" + File);
  if (!In) {
    ADD_FAILURE() << "cannot open example " << File;
    return "";
  }
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

std::unique_ptr<Program>
parseAll(const std::vector<std::pair<std::string, std::string>> &Named,
         bool WithStdlib) {
  auto P = std::make_unique<Program>();
  std::vector<std::pair<std::string, std::string>> All;
  if (WithStdlib)
    All.emplace_back("<stdlib>", stdlibSource());
  All.insert(All.end(), Named.begin(), Named.end());
  std::vector<std::string> Diags;
  if (!parseProgram(*P, All, Diags)) {
    for (const std::string &D : Diags)
      ADD_FAILURE() << D;
    return nullptr;
  }
  return P;
}

std::unique_ptr<Program> buildTier(const char *Name) {
  for (const WorkloadConfig &C : scalingSuite()) {
    if (C.Name != Name)
      continue;
    std::vector<std::string> Diags;
    auto P = buildWorkloadProgram(C, Diags);
    for (const std::string &D : Diags)
      ADD_FAILURE() << Name << ": " << D;
    return P;
  }
  ADD_FAILURE() << "no such tier: " << Name;
  return nullptr;
}

AnalysisRecipe recipeFor(const std::string &Spec) {
  AnalysisRecipe R;
  std::string Error;
  EXPECT_TRUE(AnalysisRegistry::global().build(Spec, R, Error))
      << Spec << ": " << Error;
  return R;
}

/// A program-agnostic additive delta: a fresh class (so no pre-existing
/// object can dispatch into it — warm-startable by the server's
/// classification) plus statements appended to the entry method that
/// allocate, store through, and call into it.
std::string deltaFor(const Program &P, int N) {
  const MethodInfo &Entry = P.method(P.entry());
  std::string Cls = "DeltaNode" + std::to_string(N);
  std::string V = "dv" + std::to_string(N);
  std::ostringstream S;
  S << "class " << Cls << " {\n"
    << "  field next: " << Cls << ";\n"
    << "  method link(n: " << Cls << "): " << Cls << " {\n"
    << "    var r: " << Cls << ";\n"
    << "    this.next = n;\n"
    << "    r = this.next;\n"
    << "    return r;\n"
    << "  }\n"
    << "}\n"
    << "extend class " << P.type(Entry.Owner).Name << " {\n"
    << "  append method " << Entry.Name << " {\n"
    << "    var " << V << "a: " << Cls << ";\n"
    << "    var " << V << "b: " << Cls << ";\n"
    << "    var " << V << "c: " << Cls << ";\n"
    << "    " << V << "a = new " << Cls << ";\n"
    << "    " << V << "b = new " << Cls << ";\n"
    << "    " << V << "c = call " << V << "a.link(" << V << "b);\n"
    << "  }\n"
    << "}\n";
  return S.str();
}

/// Parses \p Source into the live \p P — the server's add-delta path —
/// and returns the server's monotonicity classification (false when a
/// new method landed on a pre-existing type).
bool applyDelta(Program &P, const std::string &Source,
                const std::string &Name) {
  uint32_t OldTypes = P.numTypes();
  uint32_t OldMethods = P.numMethods();
  Parser LP(P);
  bool Ok = LP.parseSource(Source, Name) && LP.finalize();
  for (const std::string &D : LP.diagnostics())
    ADD_FAILURE() << Name << ": " << D;
  EXPECT_TRUE(Ok);
  for (MethodId M = OldMethods; M < P.numMethods(); ++M)
    if (P.method(M).Owner < OldTypes)
      return false;
  return true;
}

/// Asserts two completed results are identical: every projection and
/// every state-determined solver counter. (WorklistPops and the SCC
/// diagnostics are scheduling-dependent and excluded, as in result JSON.)
void expectIdenticalResults(const Program &P, const PTAResult &A,
                            const PTAResult &B, const std::string &Label) {
  ASSERT_FALSE(A.Exhausted) << Label;
  ASSERT_FALSE(B.Exhausted) << Label;
  for (VarId V = 0; V < P.numVars(); ++V)
    EXPECT_EQ(A.pt(V).toVector(), B.pt(V).toVector())
        << Label << ": var " << P.var(V).Name;
  // Every key either result holds, so a key missing on one side fails.
  auto Keys = [&](PtsTable T) {
    std::vector<std::pair<uint32_t, uint32_t>> Union;
    for (const PTAResult *R : {&A, &B})
      R->forEachKey(T, [&](uint32_t X, uint32_t Y, const PointsToSet &) {
        Union.emplace_back(X, Y);
      });
    std::sort(Union.begin(), Union.end());
    Union.erase(std::unique(Union.begin(), Union.end()), Union.end());
    return Union;
  };
  for (const auto &[O, F] : Keys(PtsTable::Field))
    EXPECT_EQ(A.ptField(O, F).toVector(), B.ptField(O, F).toVector())
        << Label << ": field (" << O << ", " << F << ")";
  for (ObjId O = 0; O < P.numObjs(); ++O)
    EXPECT_EQ(A.ptArray(O).toVector(), B.ptArray(O).toVector())
        << Label << ": array of obj " << O;
  for (const auto &[F, Unused] : Keys(PtsTable::Static))
    EXPECT_EQ(A.ptStatic(F).toVector(), B.ptStatic(F).toVector())
        << Label << ": static field " << F;
  // Sorted by the projection step, so plain equality pins byte-identity.
  EXPECT_EQ(A.CalleesPerSite, B.CalleesPerSite) << Label;
  EXPECT_EQ(A.Reachable, B.Reachable) << Label;
  EXPECT_EQ(A.NumCallEdgesCI, B.NumCallEdgesCI) << Label;
  EXPECT_EQ(A.Stats.PtsInsertions, B.Stats.PtsInsertions) << Label;
  EXPECT_EQ(A.Stats.PFGEdges, B.Stats.PFGEdges) << Label;
  EXPECT_EQ(A.Stats.CallEdgesCS, B.Stats.CallEdgesCS) << Label;
  EXPECT_EQ(A.Stats.NumPtrs, B.Stats.NumPtrs) << Label;
  EXPECT_EQ(A.Stats.NumCSObjs, B.Stats.NumCSObjs) << Label;
  EXPECT_EQ(A.Stats.NumContexts, B.Stats.NumContexts) << Label;
  EXPECT_EQ(A.Stats.ReachableCS, B.Stats.ReachableCS) << Label;
  EXPECT_EQ(A.Stats.ReachableCI, B.Stats.ReachableCI) << Label;
}

/// The spec matrix the contract is pinned under.
std::vector<std::string> specMatrix() {
  std::vector<std::string> Specs;
  for (const char *Name : {"ci", "2obj"})
    for (const char *Scc : {"1", "0"})
      Specs.push_back(std::string(Name) + ";scc=" + Scc);
  return Specs;
}

} // namespace

//===----------------------------------------------------------------------===//
// Examples: single delta, full spec matrix
//===----------------------------------------------------------------------===//

TEST(IncrementalEquivalenceTest, WarmResumeMatchesFromScratchOnExamples) {
  for (const char *File : {"figure1.jir", "containers.jir"}) {
    std::string Base = readExample(File);
    ASSERT_FALSE(Base.empty());
    for (const std::string &Spec : specMatrix()) {
      std::string Label = std::string(File) + "/" + Spec;
      auto WarmP = parseAll({{File, Base}}, /*WithStdlib=*/true);
      ASSERT_NE(WarmP, nullptr) << Label;
      AnalysisRecipe R = recipeFor(Spec);
      ASSERT_TRUE(IncrementalSolver::eligible(R)) << Label;
      IncrementalSolver Warm(*WarmP, R, IncrementalSolver::Options());
      Warm.ensureCurrent();
      EXPECT_EQ(Warm.fullSolves(), 1u) << Label;

      std::string Delta = deltaFor(*WarmP, 1);
      ASSERT_TRUE(applyDelta(*WarmP, Delta, "<d1>")) << Label;
      Warm.noteDelta(/*CanWarmStart=*/true);
      EXPECT_FALSE(Warm.current()) << Label;
      const PTAResult &RW = Warm.ensureCurrent();
      EXPECT_TRUE(Warm.lastWasWarm()) << Label;
      EXPECT_EQ(Warm.warmResumes(), 1u) << Label;
      EXPECT_EQ(Warm.fullSolves(), 1u) << Label;

      auto FreshP =
          parseAll({{File, Base}, {"<d1>", Delta}}, /*WithStdlib=*/true);
      ASSERT_NE(FreshP, nullptr) << Label;
      // The delta parse assigned exactly the ids a from-scratch parse of
      // the concatenation does — the property the contract rests on.
      ASSERT_EQ(printProgram(*WarmP), printProgram(*FreshP)) << Label;
      IncrementalSolver Fresh(*FreshP, R, IncrementalSolver::Options());
      expectIdenticalResults(*WarmP, RW, Fresh.ensureCurrent(), Label);
    }
  }
}

//===----------------------------------------------------------------------===//
// Scripted delta sequences: each step must stay equivalent
//===----------------------------------------------------------------------===//

TEST(IncrementalEquivalenceTest, DeltaSequenceStaysEquivalentAtEveryStep) {
  std::string Base = readExample("figure1.jir");
  ASSERT_FALSE(Base.empty());
  for (const char *Spec : {"ci;scc=1", "2obj;scc=0"}) {
    auto WarmP = parseAll({{"figure1.jir", Base}}, /*WithStdlib=*/true);
    ASSERT_NE(WarmP, nullptr);
    AnalysisRecipe R = recipeFor(Spec);
    IncrementalSolver Warm(*WarmP, R, IncrementalSolver::Options());
    Warm.ensureCurrent();

    std::vector<std::pair<std::string, std::string>> Sources = {
        {"figure1.jir", Base}};
    for (int K = 1; K <= 3; ++K) {
      std::string Label =
          std::string(Spec) + "/delta-" + std::to_string(K);
      std::string Delta = deltaFor(*WarmP, K);
      std::string Name = "<d" + std::to_string(K) + ">";
      ASSERT_TRUE(applyDelta(*WarmP, Delta, Name)) << Label;
      Sources.emplace_back(Name, Delta);
      Warm.noteDelta(/*CanWarmStart=*/true);
      const PTAResult &RW = Warm.ensureCurrent();
      EXPECT_EQ(Warm.warmResumes(), static_cast<uint64_t>(K)) << Label;

      auto FreshP = parseAll(Sources, /*WithStdlib=*/true);
      ASSERT_NE(FreshP, nullptr) << Label;
      IncrementalSolver Fresh(*FreshP, R, IncrementalSolver::Options());
      expectIdenticalResults(*WarmP, RW, Fresh.ensureCurrent(), Label);
    }
  }
}

//===----------------------------------------------------------------------===//
// A delta that closes a copy cycle through already-reachable pointers
//===----------------------------------------------------------------------===//

TEST(IncrementalEquivalenceTest, DeltaClosingACopyCycleCollapsesIt) {
  // item1 already flows to result1 through Carton's field; `item1 =
  // result1` closes item1 -> setItem.item -> {c1,c2}.item -> getItem.r
  // -> result1 -> item1, and `result2 = result1` hangs a tail off it.
  // The resumed fixpoint must collapse the cycle before it completes.
  std::string Base = readExample("figure1.jir");
  ASSERT_FALSE(Base.empty());
  const std::string Delta = "extend class Main {\n"
                            "  append method main {\n"
                            "    item1 = result1;\n"
                            "    result2 = result1;\n"
                            "  }\n"
                            "}\n";
  auto WarmP = parseAll({{"figure1.jir", Base}}, /*WithStdlib=*/true);
  ASSERT_NE(WarmP, nullptr);
  AnalysisRecipe R = recipeFor("ci;scc=1");
  IncrementalSolver Warm(*WarmP, R, IncrementalSolver::Options());
  uint64_t Before = Warm.ensureCurrent().Stats.Scc.MembersCollapsed;

  ASSERT_TRUE(applyDelta(*WarmP, Delta, "<d1>"));
  Warm.noteDelta(/*CanWarmStart=*/true);
  const PTAResult &RW = Warm.ensureCurrent();
  EXPECT_TRUE(Warm.lastWasWarm());

  auto FreshP =
      parseAll({{"figure1.jir", Base}, {"<d1>", Delta}}, /*WithStdlib=*/true);
  ASSERT_NE(FreshP, nullptr);
  IncrementalSolver Fresh(*FreshP, R, IncrementalSolver::Options());
  const PTAResult &RF = Fresh.ensureCurrent();
  expectIdenticalResults(*WarmP, RW, RF, "cycle-delta");
  // Six pointers on the cycle: five join the representative's class.
  EXPECT_EQ(RW.Stats.Scc.MembersCollapsed, Before + 5);
  EXPECT_EQ(RW.Stats.Scc.MembersCollapsed, RF.Stats.Scc.MembersCollapsed);
}

//===----------------------------------------------------------------------===//
// Workload tiers: warm resume at scale, scc on and off
//===----------------------------------------------------------------------===//

namespace {

void expectTierEquivalence(const char *Tier,
                           const std::vector<const char *> &Specs) {
  for (const char *Spec : Specs) {
    std::string Label = std::string(Tier) + "/" + Spec;
    auto WarmP = buildTier(Tier);
    ASSERT_NE(WarmP, nullptr) << Label;
    AnalysisRecipe R = recipeFor(Spec);
    IncrementalSolver Warm(*WarmP, R, IncrementalSolver::Options());
    Warm.ensureCurrent();

    std::string Delta = deltaFor(*WarmP, 1);
    ASSERT_TRUE(applyDelta(*WarmP, Delta, "<d1>")) << Label;
    Warm.noteDelta(/*CanWarmStart=*/true);
    const PTAResult &RW = Warm.ensureCurrent();
    EXPECT_TRUE(Warm.lastWasWarm()) << Label;

    // The workload builder is deterministic: a second build plus the same
    // delta is the from-scratch post-delta program.
    auto FreshP = buildTier(Tier);
    ASSERT_NE(FreshP, nullptr) << Label;
    ASSERT_TRUE(applyDelta(*FreshP, Delta, "<d1>")) << Label;
    ASSERT_EQ(printProgram(*WarmP), printProgram(*FreshP)) << Label;
    IncrementalSolver Fresh(*FreshP, R, IncrementalSolver::Options());
    expectIdenticalResults(*WarmP, RW, Fresh.ensureCurrent(), Label);
  }
}

} // namespace

TEST(IncrementalEquivalenceTest, ScaleXsWarmResumeMatchesFromScratch) {
  expectTierEquivalence("scale-xs", {"ci;scc=1", "2obj;scc=0"});
}

TEST(IncrementalEquivalenceTest, ScaleSWarmResumeMatchesFromScratch) {
  expectTierEquivalence("scale-s", {"ci;scc=0", "2obj;scc=1"});
}

//===----------------------------------------------------------------------===//
// Non-monotone deltas force (and survive) a full re-solve
//===----------------------------------------------------------------------===//

TEST(IncrementalEquivalenceTest, NonMonotoneDeltaForcesFullResolve) {
  std::string Base = readExample("figure1.jir");
  ASSERT_FALSE(Base.empty());
  auto WarmP = parseAll({{"figure1.jir", Base}}, /*WithStdlib=*/true);
  ASSERT_NE(WarmP, nullptr);
  AnalysisRecipe R = recipeFor("2obj");
  IncrementalSolver Warm(*WarmP, R, IncrementalSolver::Options());
  Warm.ensureCurrent();

  // A new method on a pre-existing class: the server classifies this as
  // dispatch-changing, so the resident fixpoint must be discarded.
  std::string Delta = "extend class Carton {\n"
                      "  method reset(): Item {\n"
                      "    var r: Item;\n"
                      "    r = new Item;\n"
                      "    this.item = r;\n"
                      "    return r;\n"
                      "  }\n"
                      "}\n"
                      "extend class Main {\n"
                      "  append method main {\n"
                      "    var fresh: Item;\n"
                      "    fresh = call c1.reset();\n"
                      "  }\n"
                      "}\n";
  EXPECT_FALSE(applyDelta(*WarmP, Delta, "<d1>"));
  Warm.noteDelta(/*CanWarmStart=*/false);
  const PTAResult &RW = Warm.ensureCurrent();
  EXPECT_FALSE(Warm.lastWasWarm());
  EXPECT_EQ(Warm.warmResumes(), 0u);
  EXPECT_EQ(Warm.fullSolves(), 2u);

  auto FreshP =
      parseAll({{"figure1.jir", Base}, {"<d1>", Delta}}, /*WithStdlib=*/true);
  ASSERT_NE(FreshP, nullptr);
  IncrementalSolver Fresh(*FreshP, R, IncrementalSolver::Options());
  expectIdenticalResults(*WarmP, RW, Fresh.ensureCurrent(), "forced-full");
}
