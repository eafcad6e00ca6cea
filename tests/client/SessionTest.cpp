//===- SessionTest.cpp - AnalysisSession behaviors ------------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Session-level contracts: construction paths and their diagnostics,
// explicit run statuses, spec errors, progress callbacks, Zipper
// pre-analysis caching, and JSON reports.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "client/Report.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

using namespace csc;
using namespace csc::test;

namespace {

std::unique_ptr<AnalysisSession> figure1Session(
    AnalysisSession::Options O = [] {
      AnalysisSession::Options Def;
      Def.WithStdlib = false;
      return Def;
    }()) {
  std::vector<std::string> Diags;
  std::unique_ptr<AnalysisSession> S = AnalysisSession::fromSource(
      "fig1.jir", figure1Source(), std::move(O), Diags);
  for (const std::string &D : Diags)
    ADD_FAILURE() << D;
  EXPECT_NE(S, nullptr);
  return S;
}

} // namespace

TEST(SessionTest, ParseErrorsAreReported) {
  std::vector<std::string> Diags;
  AnalysisSession::Options O;
  O.WithStdlib = false;
  EXPECT_EQ(AnalysisSession::fromSource("bad.jir", "class {", std::move(O),
                                        Diags),
            nullptr);
  EXPECT_FALSE(Diags.empty());
}

TEST(SessionTest, MissingEntryPointIsReported) {
  std::vector<std::string> Diags;
  AnalysisSession::Options O;
  O.WithStdlib = false;
  EXPECT_EQ(AnalysisSession::fromSource("noentry.jir", "class A { }",
                                        std::move(O), Diags),
            nullptr);
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags.back().find("entry"), std::string::npos);
}

TEST(SessionTest, FromFilesReportsMissingFile) {
  std::vector<std::string> Diags;
  EXPECT_EQ(AnalysisSession::fromFiles({"/nonexistent/x.jir"}, {}, Diags),
            nullptr);
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags.front().find("cannot open"), std::string::npos);
}

TEST(SessionTest, FromFilesReportsUnreadableDirectory) {
  // A directory opens but cannot be read: it must not parse as an empty
  // source (which would report a missing main() instead).
  char Dir[] = "session-dir-XXXXXX";
  ASSERT_NE(::mkdtemp(Dir), nullptr);
  std::vector<std::string> Diags;
  EXPECT_EQ(AnalysisSession::fromFiles({Dir}, {}, Diags), nullptr);
  EXPECT_EQ(Diags, std::vector<std::string>{"error: cannot read '" +
                                            std::string(Dir) + "'"});
  std::filesystem::remove(Dir);
}

TEST(SessionTest, SpecErrorsYieldStatusNotCrash) {
  auto S = figure1Session();
  ASSERT_NE(S, nullptr);
  AnalysisRun Bad = S->run("definitely-not-an-analysis");
  EXPECT_EQ(Bad.Status, RunStatus::SpecError);
  EXPECT_FALSE(Bad.completed());
  EXPECT_NE(Bad.Error.find("unknown analysis"), std::string::npos);

  AnalysisRun BadParam = S->run("2obj;k=zero");
  EXPECT_EQ(BadParam.Status, RunStatus::SpecError);
}

TEST(SessionTest, ExhaustionIsAnExplicitStatus) {
  AnalysisSession::Options O;
  O.WithStdlib = false;
  O.WorkBudget = 1;
  auto S = figure1Session(std::move(O));
  ASSERT_NE(S, nullptr);
  AnalysisRun Out = S->run("ci");
  EXPECT_EQ(Out.Status, RunStatus::BudgetExhausted);
  EXPECT_TRUE(Out.exhausted());
  // Exhausted runs carry no metrics (they would not be meaningful).
  EXPECT_EQ(Out.Metrics.ReachMethods, 0u);
  EXPECT_STREQ(runStatusName(Out.Status), "budget-exhausted");
}

TEST(SessionTest, ProgressCallbackSeesPhases) {
  std::vector<std::string> Phases;
  AnalysisSession::Options O;
  O.WithStdlib = false;
  O.Progress = [&](const char *Phase, const std::string &) {
    Phases.push_back(Phase);
  };
  auto S = figure1Session(std::move(O));
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(S->run("zipper-e").completed());

  auto Has = [&](const char *P) {
    for (const std::string &X : Phases)
      if (X == P)
        return true;
    return false;
  };
  EXPECT_TRUE(Has("parse"));
  EXPECT_TRUE(Has("verify"));
  EXPECT_TRUE(Has("zipper-pre"));
  EXPECT_TRUE(Has("solve"));
  EXPECT_TRUE(Has("metrics"));
}

TEST(SessionTest, ZipperPreAnalysisIsOneSlot) {
  auto S = figure1Session();
  ASSERT_NE(S, nullptr);
  AnalysisRun A = S->run("zipper-e");
  ASSERT_TRUE(A.completed());
  EXPECT_FALSE(A.PreFromCache);

  // Every zipper-e spec reads the one ci fixpoint: the same options, a
  // different k and a different cost fraction all reuse the slot.
  for (const char *Spec : {"zipper-e", "zipper-e;k=3", "zipper-e;pv=0.05"}) {
    AnalysisRun B = S->run(Spec);
    ASSERT_TRUE(B.completed()) << Spec;
    EXPECT_TRUE(B.PreFromCache) << Spec;
    // A reused slot still reports its solve time in PreMs.
    EXPECT_GT(B.Timings.PreMs, 0.0) << Spec;
  }

  // A new work budget drops the slot.
  S->setWorkBudget(~0ULL);
  AnalysisRun C = S->run("zipper-e");
  ASSERT_TRUE(C.completed());
  EXPECT_FALSE(C.PreFromCache);
}

TEST(SessionTest, PhaseTimingsAddUp) {
  auto S = figure1Session();
  ASSERT_NE(S, nullptr);
  AnalysisRun Out = S->run("csc");
  ASSERT_TRUE(Out.completed());
  EXPECT_GT(Out.Timings.TotalMs, 0.0);
  EXPECT_GT(Out.Timings.MainMs, 0.0);
  EXPECT_LE(Out.Timings.MainMs, Out.Timings.TotalMs);
  EXPECT_EQ(Out.Timings.PreMs, 0.0) << "no pre-analysis for csc";
}

TEST(SessionTest, RunJsonIsBalancedAndCarriesMetrics) {
  auto S = figure1Session();
  ASSERT_NE(S, nullptr);
  AnalysisRun Out = S->run("csc");
  ASSERT_TRUE(Out.completed());
  std::string Json = runJson(Out);
  EXPECT_NE(Json.find("\"analysis\":\"csc\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"status\":\"completed\""), std::string::npos);
  EXPECT_NE(Json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(Json.find("\"cut_shortcut\":"), std::string::npos);

  // Structural sanity: braces and brackets balance.
  int Depth = 0;
  for (char C : Json) {
    Depth += (C == '{' || C == '[') ? 1 : 0;
    Depth -= (C == '}' || C == ']') ? 1 : 0;
    ASSERT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
}

TEST(SessionTest, JsonEscapesControlCharacters) {
  JsonWriter J;
  J.beginObject().kv("k", "a\"b\\c\nd\te\x01").endObject();
  EXPECT_EQ(J.str(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
}
