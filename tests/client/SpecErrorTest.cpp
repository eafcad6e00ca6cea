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

TEST(SpecErrorTest, OutOfRangeZipperNumbers) {
  // Each of these used to reach an out-of-range float-to-integer
  // conversion (floor in the registry, pv/cf times the total cost in the
  // Zipper-e guard), or was silently ignored (a negative floor).
  EXPECT_EQ(buildError("zipper-e;floor=1e30"),
            "parameter 'floor' expects a number in [0, 2^64), got '1e30'");
  EXPECT_EQ(buildError("zipper-e;floor=18446744073709551616"),
            "parameter 'floor' expects a number in [0, 2^64), got "
            "'18446744073709551616'");
  EXPECT_EQ(buildError("zipper-e;floor=-1"),
            "parameter 'floor' expects a number in [0, 2^64), got '-1'");
  EXPECT_EQ(buildError("zipper-e;floor=inf"),
            "parameter 'floor' expects a number in [0, 2^64), got 'inf'");
  EXPECT_EQ(buildError("zipper-e;floor=NaN"),
            "parameter 'floor' expects a number in [0, 2^64), got 'nan'");
  EXPECT_EQ(buildError("zipper-e;pv=nan"),
            "parameter 'pv' expects a number in [0, 1], got 'nan'");
  EXPECT_EQ(buildError("zipper-e;pv=-1"),
            "parameter 'pv' expects a number in [0, 1], got '-1'");
  EXPECT_EQ(buildError("zipper-e;pv=1.5"),
            "parameter 'pv' expects a number in [0, 1], got '1.5'");
  EXPECT_EQ(buildError("zipper-e;cf=1e300"),
            "parameter 'cf' expects a number in [0, 1], got '1e300'");
  EXPECT_EQ(buildError("zipper-e;cf=-inf"),
            "parameter 'cf' expects a number in [0, 1], got '-inf'");
}

TEST(SpecErrorTest, ZipperCostFractionSynonymsConflict) {
  // pv and cf set the same cost fraction: given both, one would silently
  // win whatever the order.
  EXPECT_EQ(buildError("zipper-e;pv=0.000001;cf=1;floor=0"),
            "parameters 'pv' and 'cf' are synonyms; spec "
            "'zipper-e;pv=0.000001;cf=1;floor=0' gives both");
  EXPECT_EQ(buildError("zipper-e;cf=0.5;pv=0.5"),
            "parameters 'pv' and 'cf' are synonyms; spec "
            "'zipper-e;cf=0.5;pv=0.5' gives both");
}

TEST(SpecErrorTest, ZipperNumberBoundsAreAccepted) {
  AnalysisRecipe R;
  std::string Error;
  const AnalysisRegistry &Reg = AnalysisRegistry::global();
  ASSERT_TRUE(Reg.build("zipper-e;pv=0;floor=0", R, Error)) << Error;
  EXPECT_EQ(R.Zipper.CostFraction, 0.0);
  EXPECT_EQ(R.Zipper.MinCostFloor, 0u);
  ASSERT_TRUE(Reg.build("zipper-e;cf=1;floor=18446744073709549568", R, Error))
      << Error;
  EXPECT_EQ(R.Zipper.CostFraction, 1.0);
  EXPECT_EQ(R.Zipper.MinCostFloor, 18446744073709549568ull);
  ASSERT_TRUE(Reg.build("zipper-e", R, Error)) << Error;
  EXPECT_EQ(R.Zipper.MinCostFloor, ZipperOptions().MinCostFloor);
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
  const AnalysisRegistry &Reg = AnalysisRegistry::global();
  AnalysisRecipe A, B;
  std::string Error;
  ASSERT_TRUE(Reg.build("CSC; engine=doop ;container=0", A, Error)) << Error;
  ASSERT_TRUE(Reg.build("csc;container=0;engine=doop", B, Error)) << Error;
  EXPECT_EQ(A.Canonical, B.Canonical);
  EXPECT_EQ(A.Canonical, "csc;container=0;engine=doop");

  ASSERT_TRUE(Reg.build("  ci  ", A, Error)) << Error;
  EXPECT_EQ(A.Canonical, "ci");

  // Aliases resolve: every spelling of one analysis has one name.
  ASSERT_TRUE(Reg.build("K-TYPE; K=3", A, Error)) << Error;
  EXPECT_EQ(A.Canonical, "2type;k=3");

  // A spec that parses keeps its canonical name when the build fails, so
  // its spec-error row is still named.
  EXPECT_FALSE(Reg.build("Foo; x=1", A, Error));
  EXPECT_EQ(A.Canonical, "foo;x=1");
  EXPECT_FALSE(Reg.build("k-obj;k=banana", A, Error));
  EXPECT_EQ(A.Canonical, "2obj;k=banana");

  // Malformed input propagates the parse diagnostic and has no name.
  EXPECT_FALSE(Reg.build("k=3", A, Error));
  EXPECT_EQ(Error, "analysis spec must start with a name: 'k=3'");
  EXPECT_EQ(A.Canonical, "");
}
