//===- RegistryTest.cpp - Spec parser and the analysis table --------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Covers the analysis-registry layer: the table rows that pin the kinds,
// names and aliases together, the spec grammar, parameter handling, and
// error reporting.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisRegistry.h"

#include <gtest/gtest.h>

using namespace csc;

namespace {

AnalysisRecipe buildOrDie(const std::string &Spec) {
  AnalysisRecipe R;
  std::string Error;
  EXPECT_TRUE(AnalysisRegistry::global().build(Spec, R, Error))
      << Spec << ": " << Error;
  return R;
}

/// The canonical spec build() names \p Spec with, whether it builds or not.
std::string canonicalOf(const std::string &Spec) {
  AnalysisRecipe R;
  std::string Error;
  AnalysisRegistry::global().build(Spec, R, Error);
  return R.Canonical;
}

} // namespace

//===----------------------------------------------------------------------===//
// The table (kinds, names and aliases live in one row each)
//===----------------------------------------------------------------------===//

TEST(AnalysisNamesTest, EveryKindRoundTrips) {
  const std::vector<AnalysisEntry> &Table = AnalysisRegistry::entries();
  ASSERT_EQ(Table.size(), 7u) << "update the table when adding analyses";
  for (const AnalysisEntry &E : Table) {
    AnalysisRecipe R = buildOrDie(E.Name);
    EXPECT_EQ(R.Canonical, E.Name);
    EXPECT_EQ(R.Kind, E.Kind) << E.Name;
    EXPECT_EQ(R.DoopMode, E.ForceDoop) << E.Name;
  }
}

TEST(AnalysisNamesTest, AliasesAndCaseFoldResolve) {
  // Aliases resolve case-insensitively; unknown names pass through
  // lowered and stay unknown.
  const AnalysisRegistry &Reg = AnalysisRegistry::global();
  EXPECT_EQ(canonicalOf("CSC"), "csc");
  EXPECT_EQ(buildOrDie("CSC").Kind, AnalysisKind::CSC);
  EXPECT_EQ(canonicalOf("Zipper"), "zipper-e");
  EXPECT_EQ(buildOrDie("Zipper").Kind, AnalysisKind::ZipperE);
  EXPECT_EQ(canonicalOf("k-obj"), "2obj");
  EXPECT_EQ(buildOrDie("k-obj").Kind, AnalysisKind::TwoObj);
  EXPECT_EQ(canonicalOf("2CallSite"), "2cs");
  EXPECT_EQ(buildOrDie("2CallSite").Kind, AnalysisKind::TwoCallSite);
  EXPECT_EQ(canonicalOf("3obj"), "3obj");
  AnalysisRecipe R;
  std::string Error;
  EXPECT_FALSE(Reg.build("3obj", R, Error));
  EXPECT_FALSE(Reg.build("", R, Error));
}

TEST(AnalysisNamesTest, EveryCanonicalNameIsRegistered) {
  const AnalysisRegistry &Reg = AnalysisRegistry::global();
  std::vector<std::pair<std::string, std::string>> Listed = Reg.list();
  ASSERT_EQ(Listed.size(), AnalysisRegistry::entries().size());
  for (size_t I = 0; I != Listed.size(); ++I) {
    const AnalysisEntry &E = AnalysisRegistry::entries()[I];
    EXPECT_EQ(Listed[I].first, E.Name);
    EXPECT_EQ(Listed[I].second, E.Description);
    if (I > 0) {
      EXPECT_LT(Listed[I - 1].first, Listed[I].first) << "table unsorted";
    }
    for (const char *A : E.Aliases) {
      if (A) {
        EXPECT_EQ(canonicalOf(A), E.Name) << A;
        EXPECT_EQ(buildOrDie(A).Kind, E.Kind) << A;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Spec grammar
//===----------------------------------------------------------------------===//

TEST(SpecParserTest, NameOnly) {
  AnalysisSpec S;
  std::string Error;
  ASSERT_TRUE(parseAnalysisSpec("  CSC  ", S, Error)) << Error;
  EXPECT_EQ(S.Name, "csc");
  EXPECT_TRUE(S.Params.empty());
  EXPECT_EQ(S.Text, "CSC");
}

TEST(SpecParserTest, Params) {
  AnalysisSpec S;
  std::string Error;
  ASSERT_TRUE(parseAnalysisSpec("k-type; k = 3 ;engine=DOOP", S, Error))
      << Error;
  EXPECT_EQ(S.Name, "k-type");
  ASSERT_EQ(S.Params.size(), 2u);
  EXPECT_EQ(*S.param("k"), "3");
  EXPECT_EQ(*S.param("engine"), "doop");
  EXPECT_EQ(S.param("missing"), nullptr);
}

TEST(SpecParserTest, Malformed) {
  AnalysisSpec S;
  std::string Error;
  EXPECT_FALSE(parseAnalysisSpec("", S, Error));
  EXPECT_FALSE(parseAnalysisSpec("   ", S, Error));
  EXPECT_FALSE(parseAnalysisSpec("k=3", S, Error)); // no name head
  EXPECT_FALSE(parseAnalysisSpec("csc;kk", S, Error)); // no '='
  EXPECT_FALSE(parseAnalysisSpec("csc;=3", S, Error)); // empty key
}

TEST(SpecParserTest, SplitList) {
  std::vector<std::string> L =
      splitSpecList(" ci, k-type;k=3 ,,csc;container=0 ");
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[0], "ci");
  EXPECT_EQ(L[1], "k-type;k=3");
  EXPECT_EQ(L[2], "csc;container=0");
  EXPECT_TRUE(splitSpecList("").empty());
}

//===----------------------------------------------------------------------===//
// Built-in recipes
//===----------------------------------------------------------------------===//

TEST(RegistryTest, BuildsEveryBuiltin) {
  for (const auto &[Name, Desc] : AnalysisRegistry::global().list()) {
    (void)Desc;
    AnalysisRecipe R = buildOrDie(Name);
    EXPECT_EQ(R.Name, Name);
  }
}

TEST(RegistryTest, KindRecipesMatchHandRolledWiring) {
  AnalysisRecipe CI = buildOrDie("ci");
  EXPECT_FALSE(CI.UseCsc);
  EXPECT_FALSE(CI.UseZipper);
  EXPECT_EQ(makeSelector(CI), nullptr);
  EXPECT_FALSE(CI.DoopMode);

  AnalysisRecipe Csc = buildOrDie("csc");
  EXPECT_TRUE(Csc.UseCsc);
  EXPECT_TRUE(Csc.Csc.FieldLoad);
  EXPECT_EQ(Csc.Kind, AnalysisKind::CSC);

  AnalysisRecipe CscDoop = buildOrDie("csc-doop");
  EXPECT_TRUE(CscDoop.UseCsc);
  EXPECT_TRUE(CscDoop.DoopMode);
  EXPECT_FALSE(CscDoop.Csc.FieldLoad) << "Datalog cannot express CutPropLoad";
  EXPECT_TRUE(buildOrDie("csc-doop;engine=taie").DoopMode)
      << "csc-doop always runs the Doop engine";

  AnalysisRecipe Z = buildOrDie("zipper-e;pv=0.05;k=3");
  EXPECT_TRUE(Z.UseZipper);
  EXPECT_DOUBLE_EQ(Z.Zipper.CostFraction, 0.05);
  EXPECT_NE(makeSelector(Z), nullptr);
  EXPECT_EQ(Z.K, 3u);

  AnalysisRecipe TwoObj = buildOrDie("2obj");
  EXPECT_NE(makeSelector(TwoObj), nullptr);
  EXPECT_EQ(TwoObj.Kind, AnalysisKind::TwoObj);

  AnalysisRecipe KType = buildOrDie("k-type;k=3");
  EXPECT_EQ(KType.Kind, AnalysisKind::TwoType);

  AnalysisRecipe Doop2cs = buildOrDie("2cs;engine=doop");
  EXPECT_TRUE(Doop2cs.DoopMode);
}

TEST(RegistryTest, RejectsBadSpecs) {
  const AnalysisRegistry &Reg = AnalysisRegistry::global();
  AnalysisRecipe R;
  std::string Error;
  EXPECT_FALSE(Reg.build("no-such-analysis", R, Error));
  EXPECT_NE(Error.find("unknown analysis"), std::string::npos) << Error;
  EXPECT_FALSE(Reg.build("ci;k=2", R, Error)) << "ci takes no k";
  EXPECT_FALSE(Reg.build("2obj;k=0", R, Error));
  EXPECT_FALSE(Reg.build("2obj;k=banana", R, Error));
  EXPECT_FALSE(Reg.build("csc;container=maybe", R, Error));
  EXPECT_FALSE(Reg.build("csc;engine=dopo", R, Error));
}
