//===- DemandSlicerTest.cpp - demand slices vs whole-program runs ---------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
//
// The demand-driven query path: a DemandSlicer slice solved by a
// restricted solver must reproduce the whole-program points-to set for
// every queried root (under any context selector) while enabling only a
// subset of the statements, and the call-graph core must keep dispatch
// exact even with no roots at all. The strongest case is exhaustive:
// every variable of every example program, queried one at a time, against
// the whole-program fixpoint.
//
//===----------------------------------------------------------------------===//

#include "server/DemandSlicer.h"

#include "TestUtil.h"
#include "client/AnalysisRegistry.h"
#include "server/IncrementalSolver.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace csc;
using csc::test::figure1Source;
using csc::test::findMethod;
using csc::test::findVar;
using csc::test::parseWithStdlib;

namespace {

std::unique_ptr<Program> loadExample(const std::string &File) {
  std::ifstream In(std::string(CSC_EXAMPLES_DIR) + "/" + File);
  if (!In) {
    ADD_FAILURE() << "cannot open example " << File;
    return nullptr;
  }
  std::ostringstream Text;
  Text << In.rdbuf();
  auto P = std::make_unique<Program>();
  std::vector<std::string> Diags;
  if (!parseProgram(*P, {{"<stdlib>", stdlibSource()}, {File, Text.str()}},
                    Diags)) {
    for (const std::string &D : Diags)
      ADD_FAILURE() << File << ": " << D;
    return nullptr;
  }
  return P;
}

AnalysisRecipe recipeFor(const std::string &Spec) {
  AnalysisRecipe R;
  std::string Error;
  EXPECT_TRUE(AnalysisRegistry::global().build(Spec, R, Error))
      << Spec << ": " << Error;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Structural slice properties
//===----------------------------------------------------------------------===//

TEST(DemandSlicerTest, SliceEnablesEveryInvokeAndStaysProper) {
  auto P = loadExample("figure1.jir");
  ASSERT_NE(P, nullptr);
  MethodId Main = findMethod(*P, "Main", "main");
  ASSERT_NE(Main, InvalidId);
  VarId Result1 = findVar(*P, Main, "result1");
  ASSERT_NE(Result1, InvalidId);

  DemandSlicer DS(*P);
  DemandSlicer::Slice Slice = DS.sliceFor({Result1});
  ASSERT_EQ(Slice.Enabled.size(), P->numStmts());
  // The call-graph core: every invoke site is enabled so the restricted
  // run discovers the exact on-the-fly call graph.
  for (StmtId S = 0; S < P->numStmts(); ++S) {
    if (P->stmt(S).Kind == StmtKind::Invoke) {
      EXPECT_TRUE(Slice.Enabled[S]) << "invoke stmt " << S << " disabled";
    }
  }
  // ... and the slice is the point: a proper subset of the program.
  EXPECT_LT(Slice.EnabledStmts, P->numStmts());
  EXPECT_GT(Slice.EnabledStmts, 0u);
  uint32_t SetBits = 0;
  for (uint8_t E : Slice.Enabled)
    SetBits += E ? 1 : 0;
  EXPECT_EQ(SetBits, Slice.EnabledStmts);
  EXPECT_GT(Slice.RelevantVars, 0u);
}

//===----------------------------------------------------------------------===//
// Exhaustive per-variable equivalence with the whole-program fixpoint
//===----------------------------------------------------------------------===//

TEST(DemandSlicerTest, EveryVariableMatchesWholeProgramRun) {
  for (const char *File : {"figure1.jir", "containers.jir"}) {
    auto P = loadExample(File);
    ASSERT_NE(P, nullptr);
    DemandSlicer DS(*P);
    for (const char *Spec : {"ci", "2obj"}) {
      std::string Label = std::string(File) + "/" + Spec;
      AnalysisRecipe R = recipeFor(Spec);
      IncrementalSolver Inc(*P, R, IncrementalSolver::Options());
      const PTAResult &Full = Inc.ensureCurrent();
      ASSERT_FALSE(Full.Exhausted) << Label;
      for (VarId V = 0; V < P->numVars(); ++V) {
        DemandSlicer::Slice Slice = DS.sliceFor({V});
        PTAResult Demand = Inc.demandSolve(Slice.Enabled);
        ASSERT_FALSE(Demand.Exhausted) << Label;
        EXPECT_EQ(Demand.pt(V).toVector(), Full.pt(V).toVector())
            << Label << ": var " << P->var(V).Name << " (" << V << ")";
      }
    }
  }
}

TEST(DemandSlicerTest, MultiRootSliceAnswersEveryRoot) {
  auto P = loadExample("figure1.jir");
  ASSERT_NE(P, nullptr);
  MethodId Main = findMethod(*P, "Main", "main");
  VarId Result1 = findVar(*P, Main, "result1");
  VarId Result2 = findVar(*P, Main, "result2");
  ASSERT_NE(Result1, InvalidId);
  ASSERT_NE(Result2, InvalidId);

  DemandSlicer DS(*P);
  DemandSlicer::Slice Slice = DS.sliceFor({Result1, Result2});
  for (const char *Spec : {"ci", "2obj"}) {
    AnalysisRecipe R = recipeFor(Spec);
    IncrementalSolver Inc(*P, R, IncrementalSolver::Options());
    const PTAResult &Full = Inc.ensureCurrent();
    PTAResult Demand = Inc.demandSolve(Slice.Enabled);
    EXPECT_EQ(Demand.pt(Result1).toVector(), Full.pt(Result1).toVector())
        << Spec;
    EXPECT_EQ(Demand.pt(Result2).toVector(), Full.pt(Result2).toVector())
        << Spec;
    // Under 2obj the two cartons stay separate; the demand run must be
    // exactly as precise, not merely sound.
    if (std::string(Spec) == "2obj") {
      EXPECT_EQ(Demand.pt(Result1).size(), 1u);
    }
  }
}

//===----------------------------------------------------------------------===//
// The call-graph core alone keeps dispatch exact (callees queries)
//===----------------------------------------------------------------------===//

TEST(DemandSlicerTest, EmptyRootsSliceComputesExactCallGraph) {
  for (const char *File : {"figure1.jir", "containers.jir"}) {
    auto P = loadExample(File);
    ASSERT_NE(P, nullptr);
    DemandSlicer DS(*P);
    DemandSlicer::Slice Slice = DS.sliceFor({});
    for (const char *Spec : {"ci", "2obj"}) {
      std::string Label = std::string(File) + "/" + Spec;
      AnalysisRecipe R = recipeFor(Spec);
      IncrementalSolver Inc(*P, R, IncrementalSolver::Options());
      const PTAResult &Full = Inc.ensureCurrent();
      PTAResult Demand = Inc.demandSolve(Slice.Enabled);
      ASSERT_FALSE(Demand.Exhausted) << Label;
      EXPECT_EQ(Demand.CalleesPerSite, Full.CalleesPerSite) << Label;
      EXPECT_EQ(Demand.Reachable, Full.Reachable) << Label;
      EXPECT_EQ(Demand.NumCallEdgesCI, Full.NumCallEdgesCI) << Label;
    }
  }
}

//===----------------------------------------------------------------------===//
// reindex() after a program delta
//===----------------------------------------------------------------------===//

TEST(DemandSlicerTest, ReindexCoversDeltaStatements) {
  auto P = parseWithStdlib(figure1Source());
  ASSERT_NE(P, nullptr);
  DemandSlicer DS(*P); // indexed before the delta

  const char *Delta = "class Crate {\n"
                      "  field it: Item;\n"
                      "  method put(i: Item): Item {\n"
                      "    var r: Item;\n"
                      "    this.it = i;\n"
                      "    r = this.it;\n"
                      "    return r;\n"
                      "  }\n"
                      "}\n"
                      "extend class Main {\n"
                      "  append method main {\n"
                      "    var k1: Crate;\n"
                      "    var i3: Item;\n"
                      "    var got: Item;\n"
                      "    k1 = new Crate;\n"
                      "    i3 = new Item;\n"
                      "    got = call k1.put(i3);\n"
                      "  }\n"
                      "}\n";
  Parser LP(*P);
  ASSERT_TRUE(LP.parseSource(Delta, "<d1>") && LP.finalize())
      << (LP.diagnostics().empty() ? "" : LP.diagnostics().front());
  DS.reindex();

  MethodId Main = findMethod(*P, "Main", "main");
  VarId Got = findVar(*P, Main, "got");
  ASSERT_NE(Got, InvalidId);
  DemandSlicer::Slice Slice = DS.sliceFor({Got});
  ASSERT_EQ(Slice.Enabled.size(), P->numStmts());

  for (const char *Spec : {"ci", "2obj"}) {
    AnalysisRecipe R = recipeFor(Spec);
    IncrementalSolver Inc(*P, R, IncrementalSolver::Options());
    const PTAResult &Full = Inc.ensureCurrent();
    PTAResult Demand = Inc.demandSolve(Slice.Enabled);
    EXPECT_EQ(Demand.pt(Got).toVector(), Full.pt(Got).toVector()) << Spec;
    EXPECT_EQ(Demand.pt(Got).size(), 1u) << Spec; // exactly the i3 alloc
  }
}
