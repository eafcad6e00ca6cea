//===- InternalsTest.cpp - Solver data-structure unit tests ---------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "pta/CSManager.h"
#include "pta/CallGraph.h"
#include "pta/PointerFlowGraph.h"
#include "support/Interner.h"

#include <gtest/gtest.h>

using namespace csc;

TEST(CSManagerTest, PointerInterningIsStable) {
  CSManager M;
  PtrId V1 = M.getVarPtr(3, 0);
  PtrId V2 = M.getVarPtr(3, 1);
  PtrId V3 = M.getVarPtr(4, 0);
  EXPECT_NE(V1, V2); // Same var, different context.
  EXPECT_NE(V1, V3);
  EXPECT_EQ(V1, M.getVarPtr(3, 0)); // Idempotent.
  EXPECT_EQ(M.ptr(V1).Kind, PtrKind::Var);
  EXPECT_EQ(M.ptr(V1).A, 3u);
  EXPECT_EQ(M.ptr(V1).B, 0u);
}

TEST(CSManagerTest, AllPointerKindsShareOneIdSpace) {
  CSManager M;
  CSObjId O = M.getCSObj(7, 0);
  PtrId V = M.getVarPtr(1, 0);
  PtrId F = M.getFieldPtr(O, 2);
  PtrId A = M.getArrayPtr(O);
  PtrId S = M.getStaticPtr(5);
  EXPECT_EQ(M.numPtrs(), 4u);
  EXPECT_EQ(M.ptr(V).Kind, PtrKind::Var);
  EXPECT_EQ(M.ptr(F).Kind, PtrKind::Field);
  EXPECT_EQ(M.ptr(F).A, O);
  EXPECT_EQ(M.ptr(F).B, 2u);
  EXPECT_EQ(M.ptr(A).Kind, PtrKind::Array);
  EXPECT_EQ(M.ptr(S).Kind, PtrKind::Static);
  EXPECT_EQ(M.ptr(S).A, 5u);
}

TEST(CSManagerTest, CSObjectsQualifiedByHeapContext) {
  CSManager M;
  CSObjId A = M.getCSObj(9, 0);
  CSObjId B = M.getCSObj(9, 3);
  EXPECT_NE(A, B);
  EXPECT_EQ(A, M.getCSObj(9, 0));
  EXPECT_EQ(M.csObj(B).O, 9u);
  EXPECT_EQ(M.csObj(B).HeapCtx, 3u);
}

TEST(PFGTest, EdgeDeduplication) {
  PointerFlowGraph G;
  EXPECT_TRUE(G.addEdge(1, 2, InvalidId));
  EXPECT_FALSE(G.addEdge(1, 2, InvalidId));
  EXPECT_EQ(G.numEdges(), 1u);
  // A differently-filtered edge between the same nodes is distinct
  // (e.g. two casts between the same variables).
  EXPECT_TRUE(G.addEdge(1, 2, 7));
  EXPECT_EQ(G.numEdges(), 2u);
  EXPECT_EQ(G.succ(1).size(), 2u);
  EXPECT_EQ(G.pred(2).size(), 2u);
}

namespace {

std::vector<std::pair<PtrId, TypeId>> succPairs(const PointerFlowGraph &G,
                                                PtrId S) {
  std::vector<std::pair<PtrId, TypeId>> Out;
  for (const PFGEdge &E : G.succ(S))
    Out.push_back({E.To, E.Filter});
  return Out;
}

} // namespace

TEST(PFGTest, DeduplicationAboveScanThreshold) {
  // Source 0 gets nine out-edges, more than the eight it dedups by scan.
  PointerFlowGraph G;
  for (PtrId T = 100; T != 109; ++T)
    EXPECT_TRUE(G.addEdge(0, T, InvalidId));
  // Parallel edges (unfiltered, then two casts) between the same pair.
  EXPECT_TRUE(G.addEdge(0, 50, InvalidId));
  EXPECT_TRUE(G.addEdge(0, 50, 7));
  EXPECT_TRUE(G.addEdge(0, 50, 9));
  EXPECT_FALSE(G.addEdge(0, 50, InvalidId));
  EXPECT_FALSE(G.addEdge(0, 50, 7));
  EXPECT_FALSE(G.addEdge(0, 50, 9));
  // A cast edge first, then the unfiltered one.
  EXPECT_TRUE(G.addEdge(0, 51, 7));
  EXPECT_TRUE(G.addEdge(0, 51, InvalidId));
  EXPECT_FALSE(G.addEdge(0, 51, InvalidId));
  EXPECT_FALSE(G.addEdge(0, 51, 7));
  EXPECT_FALSE(G.addEdge(0, 100, InvalidId));
  EXPECT_TRUE(G.addEdge(0, 100, 7));

  EXPECT_EQ(G.numEdges(), 15u);
  std::vector<std::pair<PtrId, TypeId>> Expected;
  for (PtrId T = 100; T != 109; ++T)
    Expected.push_back({T, InvalidId});
  Expected.insert(Expected.end(), {{50, InvalidId},
                                   {50, 7},
                                   {50, 9},
                                   {51, 7},
                                   {51, InvalidId},
                                   {100, 7}});
  EXPECT_EQ(succPairs(G, 0), Expected);
  EXPECT_EQ(G.pred(50), (std::vector<PtrId>{0, 0, 0}));
  EXPECT_EQ(G.pred(51), (std::vector<PtrId>{0, 0}));
  EXPECT_EQ(G.pred(100), (std::vector<PtrId>{0, 0}));
}

TEST(PFGTest, DeduplicationAcrossScanThreshold) {
  // Source 1 holds a parallel cast edge when it crosses the threshold.
  PointerFlowGraph G;
  EXPECT_TRUE(G.addEdge(1, 2, InvalidId));
  EXPECT_TRUE(G.addEdge(1, 2, 7));
  for (PtrId T = 10; T != 17; ++T)
    EXPECT_TRUE(G.addEdge(1, T, InvalidId)); // the 7th crosses the threshold
  EXPECT_FALSE(G.addEdge(1, 2, InvalidId));
  EXPECT_FALSE(G.addEdge(1, 2, 7));
  EXPECT_FALSE(G.addEdge(1, 16, InvalidId));
  EXPECT_TRUE(G.addEdge(1, 2, 9));
  EXPECT_FALSE(G.addEdge(1, 2, 9));

  EXPECT_EQ(G.numEdges(), 10u);
  std::vector<std::pair<PtrId, TypeId>> Expected = {{2, InvalidId},
                                                    {2, 7}};
  for (PtrId T = 10; T != 17; ++T)
    Expected.push_back({T, InvalidId});
  Expected.push_back({2, 9});
  EXPECT_EQ(succPairs(G, 1), Expected);
  EXPECT_EQ(G.pred(2), (std::vector<PtrId>{1, 1, 1}));
  EXPECT_EQ(G.pred(16), (std::vector<PtrId>{1}));
}

TEST(PFGTest, OutOfRangeQueriesAreEmpty) {
  PointerFlowGraph G;
  G.addEdge(0, 1, InvalidId);
  EXPECT_TRUE(G.succ(99).empty());
  EXPECT_TRUE(G.pred(99).empty());
}

TEST(CallGraphTest, EdgeAndCIProjection) {
  CallGraph CG;
  CSCallSiteId CS1 = CG.getCSCallSite(5, 0);
  CSCallSiteId CS1b = CG.getCSCallSite(5, 1); // Same site, another ctx.
  CSMethodId M1 = CG.getCSMethod(10, 0);
  CSMethodId M1b = CG.getCSMethod(10, 2);
  EXPECT_TRUE(CG.addEdge(CS1, M1));
  EXPECT_FALSE(CG.addEdge(CS1, M1)); // CS-level dedup.
  EXPECT_TRUE(CG.addEdge(CS1b, M1b));
  EXPECT_EQ(CG.numCSEdges(), 2u);
  // Both edges project to the single CI edge (5 -> 10).
  ASSERT_EQ(CG.ciEdges().size(), 1u);
  EXPECT_EQ(CG.ciEdges()[0].first, 5u);
  EXPECT_EQ(CG.ciEdges()[0].second, 10u);
}

TEST(CallGraphTest, ReachabilityProjection) {
  CallGraph CG;
  CSMethodId A0 = CG.getCSMethod(1, 0);
  CSMethodId A1 = CG.getCSMethod(1, 4);
  EXPECT_TRUE(CG.addReachable(A0));
  EXPECT_FALSE(CG.addReachable(A0));
  EXPECT_TRUE(CG.addReachable(A1)); // New CS method...
  EXPECT_EQ(CG.reachableMethods().size(), 2u);
  EXPECT_EQ(CG.reachableCI().size(), 1u); // ...same CI method.
  EXPECT_TRUE(CG.isReachableCI(1));
  EXPECT_FALSE(CG.isReachableCI(2));
}

TEST(CallGraphTest, CallersAndCallees) {
  CallGraph CG;
  CSCallSiteId CS = CG.getCSCallSite(0, 0);
  CSMethodId M1 = CG.getCSMethod(1, 0);
  CSMethodId M2 = CG.getCSMethod(2, 0);
  CG.addEdge(CS, M1);
  CG.addEdge(CS, M2);
  EXPECT_EQ(CG.calleesOf(CS).size(), 2u);
  ASSERT_EQ(CG.callersOf(M1).size(), 1u);
  EXPECT_EQ(CG.callersOf(M1)[0], CS);
}

TEST(InternerTest, DenseIdsInInsertionOrder) {
  Interner<std::string> I;
  EXPECT_EQ(I.intern("a"), 0u);
  EXPECT_EQ(I.intern("b"), 1u);
  EXPECT_EQ(I.intern("a"), 0u);
  EXPECT_EQ(I.size(), 2u);
  EXPECT_EQ(I.get(1), "b");
  EXPECT_EQ(I.lookup("c"), InvalidId);
  EXPECT_EQ(I.lookup("b"), 1u);
}
