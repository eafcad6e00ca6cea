//===- SolverStateTest.cpp - The solver's own state drains ----------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
//
// Pending facts live in a pool sized by the worklist: a pointer holds an
// entry only while facts await its pop, and the entry is released at the
// pop (or when a collapse merges it away). So a completed run holds no
// pending set at all — after solve() and after a warm resolveIncrement()
// — for ci, 2obj and the Doop-style engine, on the examples and on a
// generated scale-s.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisRegistry.h"
#include "frontend/Parser.h"
#include "pta/Solver.h"
#include "stdlib/Stdlib.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

using namespace csc;

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

std::unique_ptr<Program> buildScaleS() {
  for (const WorkloadConfig &C : scalingSuite())
    if (C.Name == "scale-s") {
      std::vector<std::string> Diags;
      auto P = buildWorkloadProgram(C, Diags);
      for (const std::string &D : Diags)
        ADD_FAILURE() << "scale-s: " << D;
      return P;
    }
  ADD_FAILURE() << "no scale-s tier";
  return nullptr;
}

/// An additive delta the warm path accepts: a fresh class, plus
/// statements appended to the entry method that allocate, store through
/// and call into it.
void applyDelta(Program &P) {
  const MethodInfo &Entry = P.method(P.entry());
  std::ostringstream S;
  S << "class PoolDelta {\n"
    << "  field next: PoolDelta;\n"
    << "  method link(n: PoolDelta): PoolDelta {\n"
    << "    var r: PoolDelta;\n"
    << "    this.next = n;\n"
    << "    r = this.next;\n"
    << "    return r;\n"
    << "  }\n"
    << "}\n"
    << "extend class " << P.type(Entry.Owner).Name << " {\n"
    << "  append method " << Entry.Name << " {\n"
    << "    var pda: PoolDelta;\n"
    << "    var pdb: PoolDelta;\n"
    << "    var pdc: PoolDelta;\n"
    << "    pda = new PoolDelta;\n"
    << "    pdb = new PoolDelta;\n"
    << "    pdc = call pda.link(pdb);\n"
    << "  }\n"
    << "}\n";
  Parser LP(P);
  bool Ok = LP.parseSource(S.str(), "<delta>") && LP.finalize();
  for (const std::string &D : LP.diagnostics())
    ADD_FAILURE() << D;
  EXPECT_TRUE(Ok);
}

void expectPoolDrains(const std::function<std::unique_ptr<Program>()> &Load,
                      const std::string &Name) {
  for (const char *Spec :
       {"ci", "2obj", "ci;engine=doop", "2obj;engine=doop"}) {
    std::string Label = Name + "/" + Spec;
    auto P = Load();
    ASSERT_NE(P, nullptr) << Label;
    AnalysisRecipe R;
    std::string Error;
    ASSERT_TRUE(AnalysisRegistry::global().build(Spec, R, Error)) << Error;
    SolverSetup Setup = solverSetup(R, ~0ULL, 0.0);
    Solver S(*P, Setup.Opts);
    PTAResult Cold = S.solve();
    ASSERT_FALSE(Cold.Exhausted) << Label;
    EXPECT_GT(Cold.Stats.PtsInsertions, 0u) << Label;
    EXPECT_EQ(S.numPendingSets(), 0u) << Label << " after solve()";

    uint32_t OldStmts = P->numStmts();
    applyDelta(*P);
    ASSERT_TRUE(S.canResume()) << Label;
    PTAResult Warm = S.resolveIncrement(OldStmts);
    ASSERT_FALSE(Warm.Exhausted) << Label;
    EXPECT_GT(Warm.Stats.PtsInsertions, Cold.Stats.PtsInsertions) << Label;
    EXPECT_EQ(S.numPendingSets(), 0u) << Label << " after resolveIncrement()";
  }
}

} // namespace

TEST(SolverStateTest, PendingPoolDrainsOnExamples) {
  for (const char *File : {"figure1.jir", "containers.jir"})
    expectPoolDrains([&] { return loadExample(File); }, File);
}

TEST(SolverStateTest, PendingPoolDrainsOnScaleS) {
  expectPoolDrains(buildScaleS, "scale-s");
}
