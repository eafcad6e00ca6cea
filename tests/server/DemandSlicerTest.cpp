//===- DemandSlicerTest.cpp - structural properties of demand slices ------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
//
// A DemandSlicer slice keeps the call-graph core (every invoke site) and
// is still a proper, consistently counted subset of the program. No
// solver runs a slice, so only its shape is checked here.
//
//===----------------------------------------------------------------------===//

#include "server/DemandSlicer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace csc;
using csc::test::findMethod;
using csc::test::findVar;

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

} // namespace

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
