//===- ParserTest.cpp - Unit tests for the .jir frontend ------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace csc;
using namespace csc::test;

namespace {

/// Every token \p L yields, through the Eof token.
std::vector<Token> drain(Lexer &L) {
  std::vector<Token> Toks;
  do
    Toks.push_back(L.next());
  while (Toks.back().Kind != TokKind::Eof);
  return Toks;
}

} // namespace

TEST(LexerTest, TokenizesPunctuationAndIdents) {
  const std::string Src = "class A { x = y.f; } // comment\n/* block */ ::";
  Lexer L(Src);
  auto Toks = drain(L);
  ASSERT_GE(Toks.size(), 2u);
  EXPECT_EQ(Toks[0].Kind, TokKind::Ident);
  EXPECT_EQ(Toks[0].Text, "class");
  EXPECT_EQ(Toks.back().Kind, TokKind::Eof);
  // No Error tokens.
  for (const Token &T : Toks)
    EXPECT_NE(T.Kind, TokKind::Error) << T.Text;
}

TEST(LexerTest, TracksLineNumbers) {
  const std::string Src = "a\nb\n  c";
  Lexer L(Src);
  auto Toks = drain(L);
  EXPECT_EQ(Toks[0].Line, 1u);
  EXPECT_EQ(Toks[1].Line, 2u);
  EXPECT_EQ(Toks[2].Line, 3u);
  EXPECT_EQ(Toks[2].Col, 3u);
}

TEST(LexerTest, ReportsBadCharacters) {
  const std::string Src = "a # b";
  Lexer L(Src);
  auto Toks = drain(L);
  bool SawError = false;
  for (const Token &T : Toks)
    SawError = SawError || T.Kind == TokKind::Error;
  EXPECT_TRUE(SawError);
}

TEST(ParserTest, ParsesFigure1) {
  auto P = parseOrDie(figure1Source());
  EXPECT_NE(P->typeByName("Carton"), InvalidId);
  MethodId Main = findMethod(*P, "Main", "main");
  EXPECT_EQ(P->entry(), Main);
  MethodId Get = findMethod(*P, "Carton", "getItem");
  EXPECT_EQ(P->method(Get).RetVars.size(), 1u);
  // 4 allocation sites in main.
  EXPECT_EQ(P->numObjs(), 4u);
}

TEST(ParserTest, ResolvesForwardReferences) {
  // B is used (field type, new) before it is declared.
  auto P = parseOrDie(R"(
class A {
  field b: B;
  method m(): B {
    var x: B;
    x = new B;
    this.b = x;
    return x;
  }
}
class B { }
)");
  EXPECT_TRUE(P->type(P->typeByName("B")).Defined);
}

TEST(ParserTest, ParsesAllStatementKinds) {
  auto P = parseOrDie(R"(
class Helper {
  static field cache: Object;
  static method id(o: Object): Object {
    return o;
  }
  method virt(o: Object): Object {
    return o;
  }
}
class Main {
  static method main(): void {
    var a: Object;
    var b: Object;
    var h: Helper;
    var arr: Object[];
    a = new Object;
    b = a;
    b = (Object) a;
    h = new Helper;
    arr = new Object[];
    arr[*] = a;
    b = arr[*];
    Helper::cache = a;
    b = Helper::cache;
    b = scall Helper.id(a);
    b = call h.virt(a);
    b = dcall h.Helper.virt(a);
    if ? {
      b = a;
    } else {
      a = b;
    }
  }
}
)");
  MethodId Main = findMethod(*P, "Main", "main");
  // 12 simple statements + the If statement + 2 nested statements.
  EXPECT_EQ(P->method(Main).AllStmts.size(), 15u);
}

TEST(ParserTest, RoundTripsThroughPrinter) {
  auto P1 = parseOrDie(figure1Source());
  std::string Printed = printProgram(*P1);
  auto P2 = parseOrDie(Printed);
  EXPECT_EQ(P1->numTypes(), P2->numTypes());
  EXPECT_EQ(P1->numMethods(), P2->numMethods());
  EXPECT_EQ(P1->numStmts(), P2->numStmts());
  EXPECT_EQ(P1->numObjs(), P2->numObjs());
  // Round-trip is a fixpoint.
  EXPECT_EQ(Printed, printProgram(*P2));
}

TEST(ParserTest, DiagnosesUndeclaredVariable) {
  Program P;
  std::vector<std::string> Diags;
  bool Ok = parseProgram(
      P, {{"t.jir", "class A { method m(): void { x = new A; } }"}}, Diags);
  EXPECT_FALSE(Ok);
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].find("undeclared variable 'x'"), std::string::npos);
}

TEST(ParserTest, DiagnosesUnknownField) {
  Program P;
  std::vector<std::string> Diags;
  bool Ok = parseProgram(P,
                         {{"t.jir", R"(
class A {
  method m(a: A): void {
    a.nope = a;
  }
}
)"}},
                         Diags);
  EXPECT_FALSE(Ok);
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].find("no field 'nope'"), std::string::npos);
}

TEST(ParserTest, DiagnosesUnknownStaticCallee) {
  Program P;
  std::vector<std::string> Diags;
  bool Ok = parseProgram(P,
                         {{"t.jir", R"(
class A {
  method m(): void {
    scall A.nothing();
  }
}
)"}},
                         Diags);
  EXPECT_FALSE(Ok);
  ASSERT_FALSE(Diags.empty());
}

TEST(ParserTest, DiagnosesDuplicateClass) {
  Program P;
  std::vector<std::string> Diags;
  bool Ok =
      parseProgram(P, {{"t.jir", "class A { }\nclass A { }"}}, Diags);
  EXPECT_FALSE(Ok);
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].find("defined twice"), std::string::npos);
}

TEST(ParserTest, ParsesInterfacesAndAbstract) {
  auto P = parseOrDie(R"(
interface Shape {
  method area(): Object;
}
abstract class Base implements Shape {
  abstract method area(): Object;
}
class Circle extends Base {
  method area(): Object {
    var r: Object;
    r = new Object;
    return r;
  }
}
class Main {
  static method main(): void {
    var c: Circle;
    var s: Object;
    c = new Circle;
    s = call c.area();
  }
}
)");
  TypeId Shape = P->typeByName("Shape");
  TypeId Circle = P->typeByName("Circle");
  EXPECT_EQ(P->type(Shape).Kind, TypeKind::Interface);
  EXPECT_TRUE(P->isSubtype(Circle, Shape));
  MethodId Area = P->dispatch(Circle, P->subsig("area", 0));
  EXPECT_NE(Area, InvalidId);
  EXPECT_FALSE(P->method(Area).IsAbstract);
}

TEST(ParserTest, MultipleSourcesShareOneProgram) {
  Program P;
  std::vector<std::string> Diags;
  bool Ok = parseProgram(P,
                         {{"lib.jir", "class Lib { method go(): void { } }"},
                          {"app.jir", R"(
class App {
  static method main(): void {
    var l: Lib;
    l = new Lib;
    call l.go();
  }
}
)"}},
                         Diags);
  for (const std::string &D : Diags)
    ADD_FAILURE() << D;
  EXPECT_TRUE(Ok);
  EXPECT_NE(P.entry(), InvalidId);
}

TEST(ParserTest, AppendMethodSeesOldLocalsAfterManyNewOnes) {
  // The appended body declares enough locals to regrow the program's
  // variable table; the method's earlier locals must still resolve.
  std::string Delta = "extend class A {\n  append method m {\n";
  for (int I = 0; I != 200; ++I)
    Delta += "    var v" + std::to_string(I) + ": Object;\n";
  Delta += "    v199 = a;\n    a = p;\n  }\n}\n";
  Program P;
  std::vector<std::string> Diags;
  bool Ok = parseProgram(P,
                         {{"base.jir", "class A {\n"
                                       "  method m(p: Object): void {\n"
                                       "    var a: Object;\n"
                                       "    a = p;\n"
                                       "  }\n"
                                       "}\n"},
                          {"delta.jir", Delta}},
                         Diags);
  for (const std::string &D : Diags)
    ADD_FAILURE() << D;
  ASSERT_TRUE(Ok);
  MethodId M = findMethod(P, "A", "m");
  EXPECT_EQ(P.method(M).Vars.size(), 203u); // this, p, a, v0..v199
  const Stmt &Last = P.stmt(P.method(M).Body.back());
  ASSERT_EQ(Last.Kind, StmtKind::Assign);
  EXPECT_EQ(P.var(Last.To).Name, "a");
  EXPECT_EQ(P.var(Last.From).Name, "p");
}
