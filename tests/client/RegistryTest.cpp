//===- RegistryTest.cpp - Spec parser, name table, registry ---------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Covers the analysis-registry layer: the kind<->name round trips that pin
// the enum and the strings together, the spec grammar, parameter handling,
// error reporting, and custom registration.
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

} // namespace

//===----------------------------------------------------------------------===//
// Kind <-> name round trips (the enum and strings can never drift)
//===----------------------------------------------------------------------===//

TEST(AnalysisNamesTest, EveryKindRoundTrips) {
  size_t Count = 0;
  const AnalysisNameEntry *Table = analysisNameTable(Count);
  ASSERT_EQ(Count, 6u) << "update the table when adding kinds";
  for (size_t I = 0; I != Count; ++I) {
    AnalysisKind K = Table[I].Kind;
    EXPECT_EQ(AnalysisRegistry::global().resolveName(analysisName(K)),
              analysisName(K));
    EXPECT_EQ(buildOrDie(analysisName(K)).Kind, K) << analysisName(K);
  }
}

TEST(AnalysisNamesTest, AliasesAndCaseFoldResolve) {
  // Aliases resolve case-insensitively; unknown names pass through
  // lowered and stay unknown.
  const AnalysisRegistry &Reg = AnalysisRegistry::global();
  EXPECT_EQ(Reg.resolveName("CSC"), "csc");
  EXPECT_EQ(buildOrDie("CSC").Kind, AnalysisKind::CSC);
  EXPECT_EQ(Reg.resolveName("Zipper"), "zipper-e");
  EXPECT_EQ(buildOrDie("Zipper").Kind, AnalysisKind::ZipperE);
  EXPECT_EQ(Reg.resolveName("k-obj"), "2obj");
  EXPECT_EQ(buildOrDie("k-obj").Kind, AnalysisKind::TwoObj);
  EXPECT_EQ(Reg.resolveName("2CallSite"), "2cs");
  EXPECT_EQ(buildOrDie("2CallSite").Kind, AnalysisKind::TwoCallSite);
  EXPECT_EQ(Reg.resolveName("3obj"), "3obj");
  EXPECT_FALSE(Reg.known("3obj"));
  EXPECT_FALSE(Reg.known(""));
}

TEST(AnalysisNamesTest, EveryCanonicalNameIsRegistered) {
  size_t Count = 0;
  const AnalysisNameEntry *Table = analysisNameTable(Count);
  const AnalysisRegistry &Reg = AnalysisRegistry::global();
  for (size_t I = 0; I != Count; ++I) {
    EXPECT_TRUE(Reg.known(Table[I].Canonical)) << Table[I].Canonical;
    for (const char *A : Table[I].Aliases) {
      if (A) {
        EXPECT_TRUE(Reg.known(A)) << A;
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
  EXPECT_EQ(CI.MakeSelector, nullptr);
  EXPECT_FALSE(CI.DoopMode);

  AnalysisRecipe Csc = buildOrDie("csc");
  EXPECT_TRUE(Csc.UseCsc);
  EXPECT_TRUE(Csc.Csc.FieldLoad);
  EXPECT_EQ(Csc.Kind, AnalysisKind::CSC);

  AnalysisRecipe CscDoop = buildOrDie("csc-doop");
  EXPECT_TRUE(CscDoop.UseCsc);
  EXPECT_TRUE(CscDoop.DoopMode);
  EXPECT_FALSE(CscDoop.Csc.FieldLoad) << "Datalog cannot express CutPropLoad";

  AnalysisRecipe Z = buildOrDie("zipper-e;pv=0.05;k=3");
  EXPECT_TRUE(Z.UseZipper);
  EXPECT_EQ(Z.Zipper.K, 3u);
  EXPECT_DOUBLE_EQ(Z.Zipper.CostFraction, 0.05);
  EXPECT_NE(Z.MakeSelector, nullptr);

  AnalysisRecipe TwoObj = buildOrDie("2obj");
  EXPECT_NE(TwoObj.MakeSelector, nullptr);
  EXPECT_NE(TwoObj.MakeSelector(), nullptr);
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

TEST(RegistryTest, CustomRegistration) {
  AnalysisRegistry Reg = AnalysisRegistry::withBuiltins();
  Reg.add("csc-lite", "CSC without the container pattern",
          [](const AnalysisSpec &Spec, AnalysisRecipe &Out,
             std::string &Error) {
            (void)Error;
            Out = makeKindRecipe(AnalysisKind::CSC, 2, {}, {});
            Out.Csc.Container = false;
            Out.Name = Spec.Text;
            return true;
          });
  Reg.addAlias("lite", "csc-lite");
  EXPECT_TRUE(Reg.known("csc-lite"));
  EXPECT_TRUE(Reg.known("LITE"));

  // A custom alias resolves case-insensitively, like the built-in ones.
  EXPECT_EQ(Reg.resolveName("LITE"), "csc-lite");

  AnalysisRecipe R;
  std::string Error;
  ASSERT_TRUE(Reg.build("lite", R, Error)) << Error;
  EXPECT_TRUE(R.UseCsc);
  EXPECT_FALSE(R.Csc.Container);

  // The custom name is local to this registry.
  EXPECT_FALSE(AnalysisRegistry::global().known("csc-lite"));
}
