//===- IRBuilder.cpp - Programmatic IR construction -----------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"

#include <cassert>

using namespace csc;

VarId MethodBuilder::thisVar() const {
  const MethodInfo &MI = P.method(M);
  assert(!MI.IsStatic && "static methods have no `this`");
  return MI.Params[0];
}

VarId MethodBuilder::param(size_t I) const {
  const MethodInfo &MI = P.method(M);
  size_t Idx = MI.IsStatic ? I : I + 1;
  assert(Idx < MI.Params.size() && "parameter index out of range");
  return MI.Params[Idx];
}

StmtId MethodBuilder::append(Stmt S) {
  S.Method = M;
  StmtId Id = P.addStmt(std::move(S));
  if (Stack.empty())
    P.methodMut(M).Body.push_back(Id);
  else
    Stack.back().Cur.push_back(Id);
  return Id;
}

StmtId MethodBuilder::newObj(VarId To, TypeId T) {
  Stmt S;
  S.Kind = StmtKind::New;
  S.To = To;
  S.Type = T;
  S.Method = M;
  StmtId Id = append(std::move(S));
  P.stmtMut(Id).Obj = P.addObj(T, Id, M, /*IsArray=*/false);
  return Id;
}

StmtId MethodBuilder::newArray(VarId To, TypeId ArrayType) {
  assert(P.type(ArrayType).Kind == TypeKind::Array && "not an array type");
  Stmt S;
  S.Kind = StmtKind::NewArray;
  S.To = To;
  S.Type = ArrayType;
  StmtId Id = append(std::move(S));
  P.stmtMut(Id).Obj = P.addObj(ArrayType, Id, M, /*IsArray=*/true);
  return Id;
}

StmtId MethodBuilder::assign(VarId To, VarId From) {
  Stmt S;
  S.Kind = StmtKind::Assign;
  S.To = To;
  S.From = From;
  return append(std::move(S));
}

StmtId MethodBuilder::cast(VarId To, TypeId T, VarId From) {
  Stmt S;
  S.Kind = StmtKind::Cast;
  S.To = To;
  S.Type = T;
  S.From = From;
  return append(std::move(S));
}

StmtId MethodBuilder::load(VarId To, VarId Base, FieldId F) {
  Stmt S;
  S.Kind = StmtKind::Load;
  S.To = To;
  S.Base = Base;
  S.Field = F;
  return append(std::move(S));
}

StmtId MethodBuilder::loadField(VarId To, VarId Base,
                                const std::string &FieldName) {
  FieldId F = P.resolveField(P.var(Base).DeclaredType, FieldName);
  assert(F != InvalidId && "unknown field");
  return load(To, Base, F);
}

StmtId MethodBuilder::store(VarId Base, FieldId F, VarId From) {
  Stmt S;
  S.Kind = StmtKind::Store;
  S.Base = Base;
  S.Field = F;
  S.From = From;
  return append(std::move(S));
}

StmtId MethodBuilder::storeField(VarId Base, const std::string &FieldName,
                                 VarId From) {
  FieldId F = P.resolveField(P.var(Base).DeclaredType, FieldName);
  assert(F != InvalidId && "unknown field");
  return store(Base, F, From);
}

StmtId MethodBuilder::arrayLoad(VarId To, VarId Base) {
  Stmt S;
  S.Kind = StmtKind::ArrayLoad;
  S.To = To;
  S.Base = Base;
  return append(std::move(S));
}

StmtId MethodBuilder::arrayStore(VarId Base, VarId From) {
  Stmt S;
  S.Kind = StmtKind::ArrayStore;
  S.Base = Base;
  S.From = From;
  return append(std::move(S));
}

StmtId MethodBuilder::staticLoad(VarId To, FieldId F) {
  // F may be InvalidId when the frontend defers resolution to finalize().
  assert((F == InvalidId || P.field(F).IsStatic) &&
         "staticLoad of instance field");
  Stmt S;
  S.Kind = StmtKind::StaticLoad;
  S.To = To;
  S.Field = F;
  return append(std::move(S));
}

StmtId MethodBuilder::staticStore(FieldId F, VarId From) {
  assert((F == InvalidId || P.field(F).IsStatic) &&
         "staticStore of instance field");
  Stmt S;
  S.Kind = StmtKind::StaticStore;
  S.Field = F;
  S.From = From;
  return append(std::move(S));
}

StmtId MethodBuilder::callVirtual(VarId To, VarId Base, std::string_view Name,
                                  std::vector<VarId> Args) {
  Stmt S;
  S.Kind = StmtKind::Invoke;
  S.IKind = InvokeKind::Virtual;
  S.To = To;
  S.Base = Base;
  S.Subsig = P.subsig(Name, Args.size());
  S.Args = std::move(Args);
  StmtId Id = append(std::move(S));
  P.stmtMut(Id).CallSite = P.addCallSite(Id, M);
  return Id;
}

StmtId MethodBuilder::callStatic(VarId To, MethodId Callee,
                                 std::vector<VarId> Args) {
  assert((Callee == InvalidId || P.method(Callee).IsStatic) &&
         "callStatic to instance method");
  Stmt S;
  S.Kind = StmtKind::Invoke;
  S.IKind = InvokeKind::Static;
  S.To = To;
  S.DirectCallee = Callee;
  S.Args = std::move(Args);
  StmtId Id = append(std::move(S));
  P.stmtMut(Id).CallSite = P.addCallSite(Id, M);
  return Id;
}

StmtId MethodBuilder::callSpecial(VarId To, VarId Base, MethodId Callee,
                                  std::vector<VarId> Args) {
  assert((Callee == InvalidId || !P.method(Callee).IsStatic) &&
         "callSpecial to static method");
  Stmt S;
  S.Kind = StmtKind::Invoke;
  S.IKind = InvokeKind::Special;
  S.To = To;
  S.Base = Base;
  S.DirectCallee = Callee;
  S.Args = std::move(Args);
  StmtId Id = append(std::move(S));
  P.stmtMut(Id).CallSite = P.addCallSite(Id, M);
  return Id;
}

StmtId MethodBuilder::ret(VarId V) {
  Stmt S;
  S.Kind = StmtKind::Return;
  S.From = V;
  return append(std::move(S));
}

void MethodBuilder::beginIf() {
  Stmt S;
  S.Kind = StmtKind::If;
  StmtId Id = append(std::move(S));
  Frame F;
  F.IfStmt = Id;
  Stack.push_back(std::move(F));
}

void MethodBuilder::elseBranch() {
  assert(!Stack.empty() && "elseBranch outside of if");
  Frame &F = Stack.back();
  assert(!F.InElse && "duplicate elseBranch");
  F.ThenSaved = std::move(F.Cur);
  F.Cur.clear();
  F.InElse = true;
}

void MethodBuilder::endIf() {
  assert(!Stack.empty() && "endIf outside of if");
  Frame F = std::move(Stack.back());
  Stack.pop_back();
  Stmt &S = P.stmtMut(F.IfStmt);
  if (F.InElse) {
    S.ThenBody = std::move(F.ThenSaved);
    S.ElseBody = std::move(F.Cur);
  } else {
    S.ThenBody = std::move(F.Cur);
  }
}

TypeId IRBuilder::cls(const std::string &Name, const std::string &Super,
                      bool IsAbstract) {
  TypeId SuperId =
      Super.empty() ? P.objectType() : P.getOrCreateType(Super);
  return P.defineClass(Name, SuperId, {}, TypeKind::Class, IsAbstract);
}

TypeId IRBuilder::iface(const std::string &Name) {
  return P.defineClass(Name, InvalidId, {}, TypeKind::Interface);
}

FieldId IRBuilder::field(TypeId Owner, const std::string &Name, TypeId Ty,
                         bool IsStatic) {
  return P.addField(Owner, Name, Ty, IsStatic);
}

MethodBuilder IRBuilder::method(TypeId Owner, const std::string &Name,
                                std::vector<TypeId> ParamTypes,
                                TypeId RetType, bool IsStatic) {
  MethodId M = P.addMethod(Owner, Name, std::move(ParamTypes), RetType,
                           IsStatic, /*IsAbstract=*/false);
  return MethodBuilder(P, M);
}

MethodId IRBuilder::abstractMethod(TypeId Owner, const std::string &Name,
                                   std::vector<TypeId> ParamTypes,
                                   TypeId RetType) {
  return P.addMethod(Owner, Name, std::move(ParamTypes), RetType,
                     /*IsStatic=*/false, /*IsAbstract=*/true);
}
