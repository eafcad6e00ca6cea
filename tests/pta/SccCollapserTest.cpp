//===- SccCollapserTest.cpp - Cycle elimination unit tests ----------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the solver's cycle-elimination subsystem: the UnionFind
// forest, the SccCollapser's detection/merge mechanics over a hand-built
// PFG, the solver-level rule that a completed solve leaves no unfiltered
// PFG cycle uncollapsed, and the regression that shortcut-edge queries
// (Solver::isShortcutEdge, graph dumps) must stay correct after a cycle
// containing a shortcut endpoint collapses, because the ShortcutEdgeKeys
// set is keyed on original (un-collapsed) pointers and the representative
// layer never rewrites it.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisRegistry.h"
#include "client/AnalysisSession.h"
#include "csc/CutShortcutPlugin.h"
#include "frontend/Parser.h"
#include "pta/GraphDump.h"
#include "pta/SccCollapser.h"
#include "pta/Solver.h"
#include "stdlib/ContainerSpec.h"
#include "stdlib/Stdlib.h"
#include "support/UnionFind.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

using namespace csc;

//===----------------------------------------------------------------------===//
// UnionFind
//===----------------------------------------------------------------------===//

TEST(UnionFindTest, SingletonsAreTheirOwnReps) {
  UnionFind UF;
  EXPECT_EQ(UF.find(0), 0u);
  EXPECT_EQ(UF.find(12345), 12345u); // Beyond size(): implicit singleton.
  EXPECT_TRUE(UF.isRep(7));
  EXPECT_EQ(UF.numMerges(), 0u);
}

TEST(UnionFindTest, UniteMergesAndReportsWinner) {
  UnionFind UF;
  uint32_t W = InvalidId;
  ASSERT_TRUE(UF.unite(3, 5, W));
  EXPECT_EQ(W, 3u); // Equal rank: smaller id wins.
  EXPECT_EQ(UF.find(5), 3u);
  EXPECT_EQ(UF.find(3), 3u);
  EXPECT_FALSE(UF.unite(5, 3, W)); // Already one class.
  EXPECT_EQ(W, 3u);
  EXPECT_EQ(UF.numMerges(), 1u);
}

TEST(UnionFindTest, RepresentativeIsIdStableAcrossFinds) {
  UnionFind UF;
  uint32_t W = InvalidId;
  for (uint32_t I = 1; I < 64; ++I)
    UF.unite(I - 1, I, W);
  uint32_t Rep = UF.find(63);
  // Path halving mutates parents but never the representative.
  for (int K = 0; K < 4; ++K)
    for (uint32_t I = 0; I < 64; ++I)
      EXPECT_EQ(UF.find(I), Rep);
}

TEST(UnionFindTest, DeterministicWinnerChain) {
  // Two forests built with the same operations elect the same reps.
  UnionFind A, B;
  uint32_t WA = 0, WB = 0;
  uint32_t Pairs[][2] = {{9, 2}, {2, 7}, {4, 5}, {5, 9}, {0, 1}, {1, 9}};
  for (auto &P : Pairs) {
    A.unite(P[0], P[1], WA);
    B.unite(P[0], P[1], WB);
    EXPECT_EQ(WA, WB);
  }
  for (uint32_t I = 0; I < 10; ++I)
    EXPECT_EQ(A.find(I), B.find(I));
}

//===----------------------------------------------------------------------===//
// SccCollapser over a hand-built PFG
//===----------------------------------------------------------------------===//

namespace {

/// 0 -> 1 -> 2 -> 0 cycle plus a filtered 2 -> 3 edge and an acyclic
/// 3 -> 4 tail.
struct TinyGraph {
  PointerFlowGraph PFG;
  SccCollapser C{PFG};
  TinyGraph() {
    addEdge(0, 1, InvalidId);
    addEdge(1, 2, InvalidId);
    addEdge(2, 3, /*Filter=*/7);
    addEdge(3, 4, InvalidId);
  }
  void addEdge(PtrId S, PtrId T, TypeId F) {
    ASSERT_TRUE(PFG.addEdge(S, T, F));
    C.noteEdge(S, T);
  }
};

} // namespace

TEST(SccCollapserTest, FullPassCycleMergesIntoOneClass) {
  TinyGraph G;
  // Insert 2 -> 0: closes 0 -> 1 -> 2 -> 0.
  ASSERT_TRUE(G.PFG.addEdge(2, 0, InvalidId));
  G.C.noteEdge(2, 0);
  ASSERT_TRUE(G.C.grewSincePass());
  std::vector<std::vector<PtrId>> Sccs;
  G.C.fullPass(Sccs);
  EXPECT_FALSE(G.C.grewSincePass());
  ASSERT_EQ(Sccs.size(), 1u);
  std::vector<PtrId> Cycle = Sccs[0];
  std::sort(Cycle.begin(), Cycle.end());
  EXPECT_EQ(Cycle, (std::vector<PtrId>{0, 1, 2}));

  PtrId W = G.C.mergeClass(Cycle);
  EXPECT_EQ(G.C.rep(0), W);
  EXPECT_EQ(G.C.rep(1), W);
  EXPECT_EQ(G.C.rep(2), W);
  EXPECT_EQ(G.C.rep(4), 4u);
  EXPECT_EQ(G.C.classSize(W), 3u);
  ASSERT_NE(G.C.membersOrNull(W), nullptr);
  EXPECT_EQ(*G.C.membersOrNull(W), (std::vector<PtrId>{0, 1, 2}));
  EXPECT_EQ(G.C.stats().SccsFound, 1u);
  EXPECT_EQ(G.C.stats().MembersCollapsed, 2u);
}

TEST(SccCollapserTest, FilteredEdgesNeverCollapse) {
  TinyGraph G;
  // 3 -> 0 makes 0..3 a cycle ONLY through the filtered 2 -> 3 edge;
  // nothing may collapse (a cast filter breaks set equality).
  ASSERT_TRUE(G.PFG.addEdge(3, 0, InvalidId));
  G.C.noteEdge(3, 0);
  std::vector<std::vector<PtrId>> Sccs;
  G.C.fullPass(Sccs);
  EXPECT_TRUE(Sccs.empty());
}

TEST(SccCollapserTest, FullPassFindsCyclesAndRefreshesOrder) {
  TinyGraph G;
  ASSERT_TRUE(G.PFG.addEdge(2, 0, InvalidId));
  G.C.noteEdge(2, 0);
  std::vector<std::vector<PtrId>> Sccs;
  G.C.fullPass(Sccs);
  ASSERT_EQ(Sccs.size(), 1u);
  std::vector<PtrId> Cycle = Sccs[0];
  std::sort(Cycle.begin(), Cycle.end());
  EXPECT_EQ(Cycle, (std::vector<PtrId>{0, 1, 2}));
  // Reverse-topological order refresh over the unfiltered subgraph
  // (0->1->2->0 cycle and 3->4; the filtered 2->3 edge is ignored):
  // within each component chain, sources order before sinks.
  G.C.mergeClass(Cycle);
  EXPECT_LT(G.C.order(3), G.C.order(4));
}

//===----------------------------------------------------------------------===//
// Solver level: a completed solve leaves no cycle uncollapsed
//===----------------------------------------------------------------------===//

namespace {

/// One `main` whose 300 locals form a single copy cycle a0 -> a1 -> ...
/// -> a299 -> a0: longer than any bounded search would follow, and too
/// few edges and too little work for a scheduled pass to fire.
std::string longCycleSource() {
  constexpr int N = 300;
  std::string S = "class Main {\n  static method main(): void {\n";
  for (int I = 0; I < N; ++I)
    S += "    var a" + std::to_string(I) + ": Object;\n";
  S += "    a0 = new Object;\n";
  for (int I = 1; I < N; ++I)
    S += "    a" + std::to_string(I) + " = a" + std::to_string(I - 1) +
         ";\n";
  S += "    a0 = a" + std::to_string(N - 1) + ";\n  }\n}\n";
  return S;
}

/// Solves \p P under \p Spec exactly as a session run would wire it,
/// then requires one pass of a fresh collapser over the final PFG to
/// find exactly the members the solve collapsed: no cycle was left.
void expectNoCycleLeft(const Program &P, const std::string &Spec,
                       const std::string &Label) {
  AnalysisRecipe R;
  std::string Error;
  ASSERT_TRUE(AnalysisRegistry::global().build(Spec, R, Error)) << Error;
  SolverOptions Opts;
  Opts.DeltaPropagation = !R.DoopMode;
  Opts.CycleElimination = R.CycleElimination;
  std::unique_ptr<ContextSelector> Sel = makeSelector(R);
  Opts.Selector = Sel.get();
  ContainerSpec CSpec = ContainerSpec::forProgram(P);
  std::unique_ptr<CutShortcutPlugin> Plugin;
  if (R.UseCsc)
    Plugin = std::make_unique<CutShortcutPlugin>(P, CSpec, R.Csc);
  Solver S(P, Opts);
  if (Plugin)
    S.addPlugin(Plugin.get());
  PTAResult Res = S.solve();
  ASSERT_FALSE(Res.Exhausted) << Label;
  ASSERT_GT(Res.Stats.Scc.MembersCollapsed, 0u) << Label;

  SccCollapser Fresh(S.pfg());
  for (PtrId Src = 0; Src < Res.Stats.NumPtrs; ++Src)
    for (const PFGEdge &E : S.pfg().succ(Src))
      Fresh.noteEdge(Src, E.To);
  std::vector<std::vector<PtrId>> Sccs;
  Fresh.fullPass(Sccs);
  uint64_t Members = 0;
  for (const std::vector<PtrId> &C : Sccs)
    Members += C.size() - 1;
  EXPECT_EQ(Members, Res.Stats.Scc.MembersCollapsed) << Label;
}

std::unique_ptr<Program> tierProgram(const char *Name) {
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

} // namespace

TEST(SccFixpointTest, LongCopyCycleCollapsesAtTheFixpoint) {
  Program P;
  std::vector<std::string> Diags;
  ASSERT_TRUE(parseProgram(
      P, {{"<stdlib>", stdlibSource()}, {"long.jir", longCycleSource()}},
      Diags))
      << (Diags.empty() ? "" : Diags.front());
  AnalysisSession Session(P);
  AnalysisRun Run = Session.run("ci");
  ASSERT_TRUE(Run.completed());
  EXPECT_EQ(Run.Result.Stats.Scc.SccsFound, 1u);
  EXPECT_EQ(Run.Result.Stats.Scc.MembersCollapsed, 299u);
  expectNoCycleLeft(P, "ci", "long-cycle");
}

TEST(SccFixpointTest, CompletedSolveLeavesNoCycleUncollapsed) {
  for (const char *Tier : {"scale-s", "scale-m"}) {
    auto P = tierProgram(Tier);
    ASSERT_NE(P, nullptr);
    for (const char *Spec : {"ci", "csc", "2obj", "csc-doop"})
      expectNoCycleLeft(*P, Spec, std::string(Tier) + "/" + Spec);
  }
}

//===----------------------------------------------------------------------===//
// Solver-level regression: shortcut edges survive collapse
//===----------------------------------------------------------------------===//

namespace {

/// `a` receives a shortcut edge (a -> o_bx.val, from the [CutStore]
/// pattern on Box.set) AND sits on a copy cycle a -> b -> c -> id.x ->
/// id.ret -> a that the collapser merges.
const char *ShortcutCycleSource = R"(
class A { }
class Box {
  field val: Object;
  method set(v: Object): void {
    this.val = v;
  }
}
class Main {
  static method id(x: Object): Object {
    return x;
  }
  static method main(): void {
    var bx: Box;
    bx = new Box;
    var a: Object;
    var b: Object;
    var c: Object;
    a = new A;
    b = a;
    c = b;
    a = scall Main.id(c);
    call bx.set(a);
  }
}
)";

VarId findVar(const Program &P, const std::string &Method,
              const std::string &Var) {
  for (VarId V = 0; V < P.numVars(); ++V)
    if (P.var(V).Name == Var && P.method(P.var(V).Method).Name == Method)
      return V;
  return InvalidId;
}

} // namespace

TEST(SccShortcutRegressionTest, ShortcutEdgesSurviveEndpointCollapse) {
  Program P;
  std::vector<std::string> Diags;
  ASSERT_TRUE(parseProgram(
      P, {{"<stdlib>", stdlibSource()}, {"cycle.jir", ShortcutCycleSource}},
      Diags))
      << (Diags.empty() ? "" : Diags.front());

  // Field pattern only: the local-flow pattern would cut Main.id's return
  // and dissolve the copy cycle this regression needs.
  CutShortcutOptions Opts;
  Opts.Container = false;
  Opts.LocalFlow = false;
  Opts.FieldLoad = false;
  ContainerSpec Spec = ContainerSpec::forProgram(P);
  CutShortcutPlugin Plugin(P, Spec, Opts);
  Solver S(P, {});
  S.addPlugin(&Plugin);
  PTAResult R = S.solve();
  ASSERT_FALSE(R.Exhausted);
  ASSERT_GT(Plugin.stats().ShortcutEdges, 0u);

  VarId AV = findVar(P, "main", "a");
  VarId BV = findVar(P, "main", "b");
  VarId CV = findVar(P, "main", "c");
  VarId BoxV = findVar(P, "main", "bx");
  ASSERT_NE(AV, InvalidId);
  ASSERT_NE(BV, InvalidId);
  ASSERT_NE(CV, InvalidId);
  ASSERT_NE(BoxV, InvalidId);

  PtrId APtr = S.varPtrCI(AV);
  PtrId BPtr = S.varPtrCI(BV);
  PtrId CPtr = S.varPtrCI(CV);

  // The copy cycle collapsed: a, b, c share one representative class.
  EXPECT_EQ(S.representative(APtr), S.representative(BPtr));
  EXPECT_EQ(S.representative(BPtr), S.representative(CPtr));
  EXPECT_GE(R.Stats.Scc.SccsFound, 1u);

  // The shortcut edge a -> o_bx.val is keyed on ORIGINAL pointers and
  // must still answer queries after the collapse absorbed `a`.
  ObjId BoxObj = InvalidId;
  R.pt(BoxV).forEach([&](ObjId O) { BoxObj = O; });
  ASSERT_NE(BoxObj, InvalidId);
  FieldId ValF = InvalidId;
  for (FieldId F = 0; F < P.numFields(); ++F)
    if (P.field(F).Name == "val")
      ValF = F;
  ASSERT_NE(ValF, InvalidId);
  PtrId FieldPtr = S.fieldPtrCI(BoxObj, ValF);
  EXPECT_TRUE(S.isShortcutEdge(APtr, FieldPtr));
  EXPECT_FALSE(S.isShortcutEdge(FieldPtr, APtr));

  // The un-collapsed views agree: every cycle member reports the same
  // points-to set, and the PFG dump still renders the original nodes and
  // the shortcut annotation.
  EXPECT_EQ(S.ptsOf(APtr).toVector(), S.ptsOf(BPtr).toVector());
  EXPECT_EQ(S.ptsOf(BPtr).toVector(), S.ptsOf(CPtr).toVector());
  std::string Dot = dumpPFGDot(S, /*MaxNodes=*/0);
  EXPECT_NE(Dot.find("shortcut"), std::string::npos);
  EXPECT_NE(Dot.find("main.a"), std::string::npos);
  EXPECT_NE(Dot.find("main.b"), std::string::npos);

  // And the semantic result matches a collapse-free run bit for bit.
  SolverOptions Off;
  Off.CycleElimination = false;
  CutShortcutPlugin Plugin2(P, Spec, Opts);
  Solver S2(P, Off);
  S2.addPlugin(&Plugin2);
  PTAResult R2 = S2.solve();
  for (VarId V = 0; V < P.numVars(); ++V)
    EXPECT_EQ(R.pt(V).toVector(), R2.pt(V).toVector()) << P.var(V).Name;
  EXPECT_EQ(R.Stats.PtsInsertions, R2.Stats.PtsInsertions);
  EXPECT_EQ(Plugin.stats().ShortcutEdges, Plugin2.stats().ShortcutEdges);
}
