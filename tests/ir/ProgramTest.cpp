//===- ProgramTest.cpp - Unit tests for the IR container ------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <memory>

using namespace csc;

TEST(ProgramTest, ObjectRootExists) {
  Program P;
  EXPECT_NE(P.objectType(), InvalidId);
  EXPECT_EQ(P.type(P.objectType()).Name, "Object");
  EXPECT_TRUE(P.type(P.objectType()).Defined);
}

TEST(ProgramTest, SubtypingClassChain) {
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A");
  TypeId BT = B.cls("B", "A");
  TypeId C = B.cls("C", "B");
  TypeId D = B.cls("D");
  EXPECT_TRUE(P.isSubtype(C, A));
  EXPECT_TRUE(P.isSubtype(C, BT));
  EXPECT_TRUE(P.isSubtype(BT, A));
  EXPECT_FALSE(P.isSubtype(A, BT));
  EXPECT_FALSE(P.isSubtype(D, A));
  EXPECT_TRUE(P.isSubtype(D, P.objectType()));
  EXPECT_TRUE(P.isSubtype(A, A));
}

TEST(ProgramTest, SubtypingInterfaces) {
  Program P;
  IRBuilder B(P);
  TypeId I = B.iface("I");
  TypeId J = B.iface("J");
  TypeId A = P.defineClass("A", P.objectType(), {I});
  TypeId BT = P.defineClass("B", A, {J});
  EXPECT_TRUE(P.isSubtype(A, I));
  EXPECT_TRUE(P.isSubtype(BT, I)); // Inherited through A.
  EXPECT_TRUE(P.isSubtype(BT, J));
  EXPECT_FALSE(P.isSubtype(A, J));
}

TEST(ProgramTest, SubtypingArraysCovariant) {
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A");
  TypeId BT = B.cls("B", "A");
  TypeId ArrA = P.arrayOf(A);
  TypeId ArrB = P.arrayOf(BT);
  EXPECT_TRUE(P.isSubtype(ArrB, ArrA));
  EXPECT_FALSE(P.isSubtype(ArrA, ArrB));
  EXPECT_TRUE(P.isSubtype(ArrA, P.objectType()));
  EXPECT_FALSE(P.isSubtype(A, ArrA));
  // Array types are interned.
  EXPECT_EQ(ArrA, P.arrayOf(A));
}

TEST(ProgramTest, FieldResolutionWalksSupers) {
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A");
  TypeId BT = B.cls("B", "A");
  FieldId F = B.field(A, "f", A);
  EXPECT_EQ(P.resolveField(BT, "f"), F);
  EXPECT_EQ(P.resolveField(A, "f"), F);
  EXPECT_EQ(P.resolveField(A, "g"), InvalidId);
}

TEST(ProgramTest, DispatchFindsOverride) {
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A");
  TypeId BT = B.cls("B", "A");
  TypeId C = B.cls("C", "B");
  MethodBuilder MA = B.method(A, "m", {}, InvalidId);
  MA.ret();
  MethodBuilder MB = B.method(BT, "m", {}, InvalidId);
  MB.ret();
  uint32_t Sig = P.subsig("m", 0);
  EXPECT_EQ(P.dispatch(A, Sig), MA.method());
  EXPECT_EQ(P.dispatch(BT, Sig), MB.method());
  EXPECT_EQ(P.dispatch(C, Sig), MB.method()); // Inherited override.
  EXPECT_EQ(P.dispatch(C, P.subsig("nope", 0)), InvalidId);
}

TEST(ProgramTest, DispatchSkipsAbstract) {
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A", "", /*IsAbstract=*/true);
  TypeId BT = B.cls("B", "A");
  B.abstractMethod(A, "m", {}, InvalidId);
  MethodBuilder MB = B.method(BT, "m", {}, InvalidId);
  MB.ret();
  uint32_t Sig = P.subsig("m", 0);
  EXPECT_EQ(P.dispatch(BT, Sig), MB.method());
  EXPECT_EQ(P.dispatch(A, Sig), InvalidId); // Only abstract declaration.
}

TEST(ProgramTest, RetVarsTracked) {
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A");
  MethodBuilder M = B.method(A, "pick", {A, A}, A);
  VarId R1 = M.param(0);
  VarId R2 = M.param(1);
  M.beginIf();
  M.ret(R1);
  M.elseBranch();
  M.ret(R2);
  M.endIf();
  const MethodInfo &MI = P.method(M.method());
  EXPECT_EQ(MI.RetVars.size(), 2u);
}

TEST(ProgramTest, DefsTracked) {
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A");
  MethodBuilder M = B.method(A, "m", {A}, InvalidId);
  VarId X = M.local("x", A);
  VarId Pm = M.param(0);
  M.assign(X, Pm);
  M.newObj(X, A);
  EXPECT_EQ(P.var(X).Defs.size(), 2u);
  EXPECT_TRUE(P.var(Pm).Defs.empty());
}

TEST(ProgramTest, CallArgHelperFoldsReceiver) {
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A");
  MethodBuilder Callee = B.method(A, "f", {A}, InvalidId);
  Callee.ret();
  MethodBuilder M = B.method(A, "m", {A}, InvalidId, /*IsStatic=*/false);
  VarId X = M.local("x", A);
  M.newObj(X, A);
  StmtId Call = M.callVirtual(InvalidId, X, "f", {M.param(0)});
  const Stmt &S = P.stmt(Call);
  EXPECT_EQ(P.numCallArgs(S), 2u);
  EXPECT_EQ(P.callArg(S, 0), X);        // Receiver slot.
  EXPECT_EQ(P.callArg(S, 1), M.param(0));
  EXPECT_EQ(P.callArg(S, 2), InvalidId);
}

TEST(ProgramTest, VerifierAcceptsWellFormed) {
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A");
  FieldId F = B.field(A, "f", A);
  MethodBuilder M = B.method(A, "m", {}, A);
  VarId X = M.local("x", A);
  M.newObj(X, A);
  M.store(M.thisVar(), F, X);
  M.ret(X);
  EXPECT_TRUE(verifyProgram(P).empty());
}

TEST(ProgramTest, VerifierRejectsCrossMethodVars) {
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A");
  MethodBuilder M1 = B.method(A, "m1", {}, InvalidId);
  VarId X1 = M1.local("x", A);
  M1.newObj(X1, A);
  MethodBuilder M2 = B.method(A, "m2", {}, InvalidId);
  VarId X2 = M2.local("y", A);
  M2.assign(X2, X1); // Illegal: X1 belongs to m1.
  EXPECT_FALSE(verifyProgram(P).empty());
}

TEST(ProgramTest, PrinterEmitsParsableShape) {
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A");
  FieldId F = B.field(A, "f", A);
  MethodBuilder M = B.method(A, "m", {A}, A);
  VarId X = M.local("x", A);
  M.newObj(X, A);
  M.store(M.thisVar(), F, M.param(0));
  M.beginIf();
  M.assign(X, M.param(0));
  M.endIf();
  M.ret(X);
  std::string Text = printProgram(P);
  EXPECT_NE(Text.find("class A"), std::string::npos);
  EXPECT_NE(Text.find("field f: A;"), std::string::npos);
  EXPECT_NE(Text.find("x = new A;"), std::string::npos);
  EXPECT_NE(Text.find("this.f ="), std::string::npos);
  EXPECT_NE(Text.find("if ? {"), std::string::npos);
  EXPECT_NE(Text.find("return x;"), std::string::npos);
}

TEST(ProgramTest, CopyLooksUpTypesByItsOwnNames) {
  // Name lookups take views; a copy must not view the original's names.
  auto Original = std::make_unique<Program>();
  TypeId A = Original->defineClass("AClassNameLongerThanSmallStrings",
                                   InvalidId);
  Program Copy = *Original;
  Original.reset();
  EXPECT_EQ(Copy.typeByName("AClassNameLongerThanSmallStrings"), A);
  EXPECT_EQ(Copy.getOrCreateType("AClassNameLongerThanSmallStrings"), A);
  EXPECT_EQ(Copy.typeByName("Object"), Copy.objectType());
}
