//===- ParserErrorTest.cpp - Frontend diagnostics matrix ------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Every production of the grammar with a representative malformed input:
// the parser must reject it with a diagnostic mentioning the right thing,
// and must never crash.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/Program.h"

#include <gtest/gtest.h>

using namespace csc;

namespace {

struct ErrorCase {
  const char *Name;
  const char *Source;
  const char *ExpectInDiag;
};

// Without a printer gtest shows the case as its raw pointer bytes, which
// address-space randomisation changes on every run, and CTest names the
// discovered test after that text. Printing the name keeps it stable.
void PrintTo(const ErrorCase &C, std::ostream *OS) { *OS << C.Name; }

class ParserErrorTest : public ::testing::TestWithParam<ErrorCase> {};

} // namespace

TEST_P(ParserErrorTest, RejectsWithDiagnostic) {
  const ErrorCase &C = GetParam();
  Program P;
  std::vector<std::string> Diags;
  bool Ok = parseProgram(P, {{"bad.jir", C.Source}}, Diags);
  EXPECT_FALSE(Ok) << "accepted malformed input";
  ASSERT_FALSE(Diags.empty());
  bool Found = false;
  for (const std::string &D : Diags)
    Found = Found || D.find(C.ExpectInDiag) != std::string::npos;
  EXPECT_TRUE(Found) << "diagnostics lack '" << C.ExpectInDiag
                     << "'; first: " << Diags[0];
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, ParserErrorTest,
    ::testing::Values(
        ErrorCase{"MissingClassName", "class { }", "class name"},
        ErrorCase{"MissingBrace", "class A  field f: A; }", "'{'"},
        ErrorCase{"BadMember", "class A { banana x; }",
                  "field or method"},
        ErrorCase{"FieldNoType", "class A { field f; }", "':'"},
        ErrorCase{"MethodNoRet",
                  "class A { method m() { } }", "':'"},
        ErrorCase{"VoidParam",
                  "class A { method m(x: void): void { } }",
                  "'void' is only valid as a return type"},
        ErrorCase{"AbstractWithBody",
                  "class A { abstract method m(): void { } }", "';'"},
        ErrorCase{"UndefinedType",
                  "class A { method m(): void { var x: Nope; x = new "
                  "Nope; } }",
                  "never defined"},
        ErrorCase{"UndeclaredVar",
                  "class A { method m(): void { x = new A; } }",
                  "undeclared variable"},
        ErrorCase{"DuplicateVar",
                  "class A { method m(): void { var x: A; var x: A; } }",
                  "already declared"},
        ErrorCase{"DuplicateParam",
                  "class A { method m(p: A, p: A): void { } }",
                  "duplicate parameter"},
        ErrorCase{"UnknownField",
                  "class A { method m(a: A): void { var x: A; x = a.f; } "
                  "}",
                  "no field 'f'"},
        ErrorCase{"UnknownStaticMethod",
                  "class A { method m(): void { scall A.nope(); } }",
                  "no method"},
        ErrorCase{"ScallOnInstance",
                  "class A { method i(): void { } method m(): void { "
                  "scall A.i(); } }",
                  "not static"},
        ErrorCase{"DcallOnStatic",
                  "class A { static method s(): void { } method m(): "
                  "void { dcall this.A.s(); } }",
                  "is static"},
        ErrorCase{"UnknownStaticField",
                  "class A { method m(): void { var x: Object; x = "
                  "A::nope; } }",
                  "no static field"},
        ErrorCase{"InstanceFieldViaColons",
                  "class A { field f: A; method m(a: A): void { "
                  "A::f = a; } }",
                  "no static field"},
        ErrorCase{"StaticFieldViaDot",
                  "class A { static field g: A; method m(a: A): void { "
                  "a.g = a; } }",
                  "static"},
        ErrorCase{"InterfaceWithField",
                  "interface I { field f: Object; }",
                  "interfaces may only declare methods"},
        ErrorCase{"DuplicateField",
                  "class A { field f: A; field f: A; }",
                  "already declared"},
        ErrorCase{"DuplicateMethod",
                  "class A { method m(): void { } method m(): void { } }",
                  "defined twice"},
        ErrorCase{"TwoMains",
                  "class A { static method main(): void { } }\n"
                  "class B { static method main(): void { } }",
                  "multiple static main"},
        ErrorCase{"BadArrayStore",
                  "class A { method m(a: A[]): void { a[3] = a; } }",
                  "'*'"},
        ErrorCase{"IfWithoutQuestion",
                  "class A { method m(): void { if { } } }", "'?'"},
        ErrorCase{"StrayToken", "class A { } 42 ;", "unexpected"}),
    [](const ::testing::TestParamInfo<ErrorCase> &Info) {
      return Info.param.Name;
    });

TEST(ParserErrorTest, RecoversAndReportsMultiple) {
  Program P;
  std::vector<std::string> Diags;
  parseProgram(P,
               {{"multi.jir", R"(
class A {
  method m(): void {
    x = new A;
    y = new A;
  }
}
)"}},
               Diags);
  EXPECT_GE(Diags.size(), 2u) << "parser should recover and keep going";
}

TEST(ParserErrorTest, EmptySourceIsFine) {
  Program P;
  std::vector<std::string> Diags;
  EXPECT_TRUE(parseProgram(P, {{"empty.jir", ""}}, Diags));
  EXPECT_TRUE(parseProgram(P, {{"ws.jir", "  \n // only a comment\n"}},
                           Diags));
}
