//===- CscCountersTest.cpp - Pinned Cut-Shortcut counters -----------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Pins the exact behaviour of the plugin: for every example program, the
// scale-xs..scale-m tiers and a getter whose cut return variable has other
// in-edges ([RelayEdge]), under full csc, the Doop variant and each
// single-pattern ablation, the cut/shortcut counters, the involved-method
// count and the solver's edge and insertion counts must equal the values
// recorded here. A refactor of the plugin's state that keeps the fixpoint
// keeps every row; one that drops or reorders a shortcut changes some. A
// mismatch prints the row as it now reads, in this table's syntax.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"
#include "client/AnalysisSession.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace csc;

namespace {

/// Cut stores, cut returns, shortcut edges, involved methods, PFG edges,
/// points-to insertions, failing casts, call edges.
using Counters = std::array<uint64_t, 8>;

struct Row {
  const char *Program;
  const char *Spec;
  Counters Want;
};

// clang-format off
const char *const Specs[] = {"csc",        "csc-doop",        "csc;field=0",
                             "csc;load=0", "csc;container=0", "csc;local=0"};

const Row Pinned[] = {
    {"figure1.jir",    "csc",             {    1,     1,     4,     3,     8,    16,     0,     4}},
    {"figure1.jir",    "csc-doop",        {    1,     0,     2,     2,     8,    18,     0,     4}},
    {"figure1.jir",    "csc;field=0",     {    0,     1,     2,     2,     8,    20,     0,     4}},
    {"figure1.jir",    "csc;load=0",      {    1,     0,     2,     2,     8,    18,     0,     4}},
    {"figure1.jir",    "csc;container=0", {    1,     1,     4,     3,     8,    16,     0,     4}},
    {"figure1.jir",    "csc;local=0",     {    1,     1,     4,     3,     8,    16,     0,     4}},
    {"containers.jir", "csc",             {    0,     1,     2,     3,    14,    25,     0,     6}},
    {"containers.jir", "csc-doop",        {    0,     1,     2,     3,    14,    25,     0,     6}},
    {"containers.jir", "csc;field=0",     {    0,     1,     2,     3,    14,    25,     0,     6}},
    {"containers.jir", "csc;load=0",      {    0,     1,     2,     3,    14,    25,     0,     6}},
    {"containers.jir", "csc;container=0", {    0,     0,     0,     0,    14,    27,     2,     6}},
    {"containers.jir", "csc;local=0",     {    0,     1,     2,     3,    14,    25,     0,     6}},
    {"relay",          "csc",             {    1,     1,     8,     3,    14,    26,     0,     5}},
    {"relay",          "csc-doop",        {    1,     0,     2,     2,    10,    28,     0,     5}},
    {"relay",          "csc;field=0",     {    0,     1,     6,     2,    14,    30,     0,     5}},
    {"relay",          "csc;load=0",      {    1,     0,     2,     2,    10,    28,     0,     5}},
    {"relay",          "csc;container=0", {    1,     1,     8,     3,    14,    26,     0,     5}},
    {"relay",          "csc;local=0",     {    1,     1,     8,     3,    14,    26,     0,     5}},
    {"scale-xs",       "csc",             {    6,    10,    24,    21,    93,   150,     0,    35}},
    {"scale-xs",       "csc-doop",        {    6,     8,    18,    21,    89,   150,     0,    35}},
    {"scale-xs",       "csc;field=0",     {    0,    10,    14,    18,    89,   146,     0,    35}},
    {"scale-xs",       "csc;load=0",      {    6,     8,    18,    21,    89,   150,     0,    35}},
    {"scale-xs",       "csc;container=0", {    6,     5,    19,    14,    93,   150,     0,    35}},
    {"scale-xs",       "csc;local=0",     {    6,     7,    21,    17,    93,   150,     0,    35}},
    {"scale-s",        "csc",             {   16,    27,   154,    55,   554,   964,    10,   213}},
    {"scale-s",        "csc-doop",        {   16,    17,   128,    48,   544,   979,    12,   215}},
    {"scale-s",        "csc;field=0",     {    0,    27,   115,    44,   551,  1043,    14,   222}},
    {"scale-s",        "csc;load=0",      {   16,    17,   128,    48,   544,   979,    12,   215}},
    {"scale-s",        "csc;container=0", {   16,    20,    90,    46,   591,  1604,    44,   272}},
    {"scale-s",        "csc;local=0",     {   16,    17,   129,    45,   550,  1039,    15,   213}},
    {"scale-m",        "csc",             {   33,    70,   725,   129,  2423,  4874,    46,   939}},
    {"scale-m",        "csc-doop",        {   33,    32,   581,    97,  2403,  5149,    77,   988}},
    {"scale-m",        "csc;field=0",     {    0,    70,   545,   104,  2449,  5941,    81,  1031}},
    {"scale-m",        "csc;load=0",      {   33,    32,   581,    97,  2403,  5149,    77,   988}},
    {"scale-m",        "csc;container=0", {   33,    62,   416,   119,  2841, 16849,   188,  1495}},
    {"scale-m",        "csc;local=0",     {   33,    46,   633,   105,  2427,  5597,    67,   939}},
};
// clang-format on

/// Box.get's return variable r is a cut load return with two non-load
/// in-edges: `r = d` exists before any call site resolves, and the return
/// edge of Maker.make appears after them, so both [RelayEdge] orders run.
const char *const RelaySource = R"(
class Maker {
  method make(): Object {
    var o: Object;
    o = new Object;
    return o;
  }
}
class Box {
  field f: Object;
  method set(o: Object): void {
    this.f = o;
  }
  method get(): Object {
    var r: Object;
    var d: Object;
    var m: Maker;
    r = this.f;
    if ? {
      d = new Object;
      r = d;
    }
    if ? {
      m = new Maker;
      r = call m.make();
    }
    return r;
  }
}
class Main {
  static method main(): void {
    var b1: Box;
    var b2: Box;
    var o1: Object;
    var o2: Object;
    var r1: Object;
    var r2: Object;
    b1 = new Box;
    b2 = new Box;
    o1 = new Object;
    o2 = new Object;
    call b1.set(o1);
    call b2.set(o2);
    r1 = call b1.get();
    r2 = call b2.get();
  }
}
)";

std::unique_ptr<Program> buildProgram(const std::string &Name) {
  if (Name == "relay")
    return test::parseWithStdlib(RelaySource);
  if (Name.size() > 4 && Name.compare(Name.size() - 4, 4, ".jir") == 0) {
    std::ostringstream Text;
    Text << std::ifstream(std::string(CSC_EXAMPLES_DIR) + "/" + Name).rdbuf();
    return test::parseWithStdlib(Text.str());
  }
  std::vector<std::string> Diags;
  std::unique_ptr<Program> P;
  for (const WorkloadConfig &C : scalingSuite())
    if (C.Name == Name)
      P = buildWorkloadProgram(C, Diags);
  for (const std::string &D : Diags)
    ADD_FAILURE() << Name << ": " << D;
  return P;
}

std::string rowText(const std::string &Program, const std::string &Spec,
                    const Counters &C) {
  std::ostringstream S;
  S << "{\"" << Program << "\", \"" << Spec << "\", {";
  for (size_t I = 0; I != C.size(); ++I)
    S << (I ? ", " : "") << C[I];
  S << "}},";
  return S.str();
}

class CscCountersTest : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(CscCountersTest, MatchPinnedValues) {
  const std::string Name = GetParam();
  std::vector<std::string> Diags;
  std::unique_ptr<AnalysisSession> S;
  if (std::unique_ptr<Program> P = buildProgram(Name))
    S = AnalysisSession::adopt(std::move(P), {}, Diags);
  for (const std::string &D : Diags)
    ADD_FAILURE() << Name << ": " << D;
  ASSERT_NE(S, nullptr);

  for (const char *Spec : Specs) {
    AnalysisRun Run = S->run(Spec);
    ASSERT_TRUE(Run.completed()) << Name << " " << Spec << ": " << Run.Error;
    // clang-format off
    Counters Got{Run.Csc.CutStores, Run.Csc.CutReturns, Run.Csc.ShortcutEdges,
                 Run.Csc.Involved.size(), Run.Result.Stats.PFGEdges,
                 Run.Result.Stats.PtsInsertions, Run.Metrics.FailCasts,
                 Run.Metrics.CallEdges};
    // clang-format on
    const Row *Want = nullptr;
    for (const Row &R : Pinned)
      if (Name == R.Program && std::string(Spec) == R.Spec)
        Want = &R;
    if (!Want)
      ADD_FAILURE() << "no pinned row; it reads " << rowText(Name, Spec, Got);
    else
      EXPECT_EQ(Got, Want->Want)
          << "pinned " << rowText(Name, Spec, Want->Want) << "\n   now "
          << rowText(Name, Spec, Got);
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, CscCountersTest,
                         ::testing::Values("figure1.jir", "containers.jir",
                                           "relay", "scale-xs", "scale-s",
                                           "scale-m"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           std::string N = I.param;
                           for (char &C : N)
                             if (C == '.' || C == '-')
                               C = '_';
                           return N;
                         });
