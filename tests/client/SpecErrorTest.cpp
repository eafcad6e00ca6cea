//===- SpecErrorTest.cpp - Exact spec-parser diagnostics ------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Pins the EXACT diagnostic text of every spec-parser and registry error
// path. These strings are user-facing contract: docs/CLI.md quotes them
// verbatim, so a change here must update the docs (and vice versa).
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisRegistry.h"

#include <gtest/gtest.h>

using namespace csc;

namespace {

std::string specParseError(const std::string &Text) {
  AnalysisSpec S;
  std::string Error;
  EXPECT_FALSE(parseAnalysisSpec(Text, S, Error)) << Text;
  return Error;
}

std::string buildError(const std::string &Text) {
  AnalysisRecipe R;
  std::string Error;
  EXPECT_FALSE(AnalysisRegistry::global().build(Text, R, Error)) << Text;
  return Error;
}

} // namespace

//===----------------------------------------------------------------------===//
// Grammar-level errors (parseAnalysisSpec)
//===----------------------------------------------------------------------===//

TEST(SpecErrorTest, EmptySpec) {
  EXPECT_EQ(specParseError(""), "empty analysis spec");
  EXPECT_EQ(specParseError("   "), "empty analysis spec");
}

TEST(SpecErrorTest, MissingNameHead) {
  EXPECT_EQ(specParseError("k=3"),
            "analysis spec must start with a name: 'k=3'");
}

TEST(SpecErrorTest, MalformedParameter) {
  EXPECT_EQ(specParseError("csc;kk"),
            "malformed parameter 'kk' in spec 'csc;kk' "
            "(expected key=value)");
  EXPECT_EQ(specParseError("csc;=3"),
            "malformed parameter '=3' in spec 'csc;=3' "
            "(expected key=value)");
}

TEST(SpecErrorTest, DuplicateParameterKey) {
  EXPECT_EQ(specParseError("2obj;k=2;k=3"),
            "duplicate parameter 'k' in spec '2obj;k=2;k=3'");
  // Case-folded keys collide too.
  EXPECT_EQ(specParseError("2obj;K=2;k=3"),
            "duplicate parameter 'k' in spec '2obj;K=2;k=3'");
}

//===----------------------------------------------------------------------===//
// Registry-level errors (AnalysisRegistry::build)
//===----------------------------------------------------------------------===//

TEST(SpecErrorTest, UnknownAnalysisListsKnownNames) {
  EXPECT_EQ(buildError("no-such-analysis"),
            "unknown analysis 'no-such-analysis' "
            "(known: 2cs 2obj 2type ci csc csc-doop zipper-e)");
}

TEST(SpecErrorTest, UnknownParameterListsKnownKeys) {
  EXPECT_EQ(buildError("ci;q=1"),
            "analysis 'ci' does not accept parameter 'q' "
            "(known: engine scc)");
  EXPECT_EQ(buildError("csc;k=2"),
            "analysis 'csc' does not accept parameter 'k' "
            "(known: engine scc field load container local)");
}

TEST(SpecErrorTest, MalformedParameterValues) {
  EXPECT_EQ(buildError("2obj;k=banana"),
            "parameter 'k' expects a positive integer, got 'banana'");
  EXPECT_EQ(buildError("2obj;k=0"),
            "parameter 'k' expects a positive integer, got '0'");
  EXPECT_EQ(buildError("zipper-e;pv=x"),
            "parameter 'pv' expects a number, got 'x'");
  EXPECT_EQ(buildError("csc;container=maybe"),
            "parameter 'container' expects a boolean (0/1), got 'maybe'");
  EXPECT_EQ(buildError("ci;scc=maybe"),
            "parameter 'scc' expects a boolean (0/1), got 'maybe'");
  EXPECT_EQ(buildError("ci;engine=dopo"),
            "unknown engine 'dopo' (expected doop or taie)");
}

TEST(SpecErrorTest, MalformedParValues) {
  // `par` is not a parameter of any analysis: every value is the
  // ordinary unknown-parameter error.
  EXPECT_EQ(buildError("ci;par=4"),
            "analysis 'ci' does not accept parameter 'par' "
            "(known: engine scc)");
}

//===----------------------------------------------------------------------===//
// Canonicalization (the result-cache key)
//===----------------------------------------------------------------------===//

TEST(SpecErrorTest, CanonicalSpecNormalizesSpellingAndOrder) {
  std::string A, B, Error;
  ASSERT_TRUE(canonicalSpec("CSC; engine=doop ;container=0", A, Error))
      << Error;
  ASSERT_TRUE(canonicalSpec("csc;container=0;engine=doop", B, Error))
      << Error;
  EXPECT_EQ(A, B);
  EXPECT_EQ(A, "csc;container=0;engine=doop");

  ASSERT_TRUE(canonicalSpec("  ci  ", A, Error)) << Error;
  EXPECT_EQ(A, "ci");

  // Malformed input propagates the parse diagnostic.
  EXPECT_FALSE(canonicalSpec("k=3", A, Error));
  EXPECT_EQ(Error, "analysis spec must start with a name: 'k=3'");
}
