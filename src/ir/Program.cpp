//===- Program.cpp - IR program container ---------------------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include <cassert>

using namespace csc;

Program::Program() {
  // The root of the hierarchy; every type is a subtype of Object.
  ObjectTy = defineClass("Object", InvalidId);
  Types[ObjectTy].Super = InvalidId;
}

TypeId Program::getOrCreateType(std::string_view Name) {
  TypeId Id = TypeByName.find(Name);
  if (Id != InvalidId)
    return Id;
  Id = static_cast<TypeId>(Types.size());
  TypeInfo TI;
  TI.Name = Name;
  TI.Defined = false;
  Types.push_back(std::move(TI));
  TypeByName.add(Name);
  return Id;
}

TypeId Program::defineClass(std::string_view Name, TypeId Super,
                            std::vector<TypeId> Interfaces, TypeKind Kind,
                            bool IsAbstract) {
  TypeId Id = getOrCreateType(Name);
  TypeInfo &TI = Types[Id];
  assert(!TI.Defined && "class defined twice");
  TI.Kind = Kind;
  TI.IsAbstract = IsAbstract || Kind == TypeKind::Interface;
  TI.Interfaces = std::move(Interfaces);
  TI.Defined = true;
  if (Super == InvalidId && Kind == TypeKind::Class && Id != ObjectTy)
    Super = ObjectTy;
  TI.Super = Super;
  return Id;
}

TypeId Program::arrayOf(TypeId Elem) {
  std::string Name = Types[Elem].Name + "[]";
  if (TypeId Existing = TypeByName.find(Name); Existing != InvalidId)
    return Existing;
  TypeId Id = defineClass(Name, ObjectTy, {}, TypeKind::Array);
  Types[Id].ArrayElem = Elem;
  return Id;
}

TypeId Program::typeByName(std::string_view Name) const {
  return TypeByName.find(Name);
}

bool Program::isSubtype(TypeId Sub, TypeId Sup) const {
  if (Sub == Sup || Sup == ObjectTy)
    return true;
  const TypeInfo &SubTI = Types[Sub];
  // Covariant arrays: T[] <: S[] iff T <: S.
  if (SubTI.Kind == TypeKind::Array) {
    const TypeInfo &SupTI = Types[Sup];
    if (SupTI.Kind != TypeKind::Array)
      return false;
    return isSubtype(SubTI.ArrayElem, SupTI.ArrayElem);
  }
  // Walk the superclass chain and all transitively implemented interfaces.
  if (SubTI.Super != InvalidId && isSubtype(SubTI.Super, Sup))
    return true;
  for (TypeId I : SubTI.Interfaces)
    if (isSubtype(I, Sup))
      return true;
  return false;
}

FieldId Program::addField(TypeId Owner, std::string_view Name,
                          TypeId DeclaredType, bool IsStatic) {
  FieldId Id = static_cast<FieldId>(Fields.size());
  Fields.push_back({std::string(Name), Owner, DeclaredType, IsStatic});
  Types[Owner].Fields.push_back(Id);
  return Id;
}

FieldId Program::resolveField(TypeId T, std::string_view Name) const {
  for (TypeId Cur = T; Cur != InvalidId; Cur = Types[Cur].Super) {
    for (FieldId F : Types[Cur].Fields)
      if (Fields[F].Name == Name)
        return F;
  }
  return InvalidId;
}

MethodId Program::addMethod(TypeId Owner, std::string_view Name,
                            std::vector<TypeId> ParamTypes, TypeId RetType,
                            bool IsStatic, bool IsAbstract) {
  MethodId Id = static_cast<MethodId>(Methods.size());
  MethodInfo MI;
  MI.Name = Name;
  MI.Owner = Owner;
  MI.IsStatic = IsStatic;
  MI.IsAbstract = IsAbstract;
  MI.RetType = RetType;
  MI.Subsig = subsig(Name, ParamTypes.size());
  MI.ParamTypes = std::move(ParamTypes);
  Methods.push_back(std::move(MI));
  Types[Owner].Methods.push_back(Id);

  MethodInfo &M = Methods[Id];
  if (!IsStatic)
    M.Params.push_back(addVar(Id, "this", Owner));
  for (size_t I = 0, E = M.ParamTypes.size(); I != E; ++I) {
    std::string ParamName = "p";
    ParamName += std::to_string(I);
    M.Params.push_back(addVar(Id, ParamName, M.ParamTypes[I]));
  }
  return Id;
}

uint32_t Program::subsig(std::string_view Name, size_t Arity) {
  return Subsigs.intern(std::string(Name) + "/" + std::to_string(Arity));
}

MethodId Program::dispatch(TypeId T, uint32_t Subsig) const {
  for (TypeId Cur = T; Cur != InvalidId; Cur = Types[Cur].Super)
    for (MethodId M : Types[Cur].Methods)
      if (Methods[M].Subsig == Subsig && !Methods[M].IsAbstract)
        return M;
  return InvalidId;
}

MethodId Program::lookupMethod(TypeId T, std::string_view Name,
                               size_t Arity) const {
  for (TypeId Cur = T; Cur != InvalidId; Cur = Types[Cur].Super) {
    for (MethodId M : Types[Cur].Methods)
      if (Methods[M].Name == Name && Methods[M].ParamTypes.size() == Arity)
        return M;
  }
  return InvalidId;
}

VarId Program::addVar(MethodId M, std::string_view Name,
                      TypeId DeclaredType) {
  VarId Id = static_cast<VarId>(Vars.size());
  Vars.push_back({std::string(Name), M, DeclaredType, {}});
  Methods[M].Vars.push_back(Id);
  return Id;
}

StmtId Program::addStmt(Stmt S) {
  StmtId Id = static_cast<StmtId>(Stmts.size());
  assert(S.Method != InvalidId && "statement must have an owner method");
  // Record variable definitions: every statement with a To slot defines it.
  if (S.To != InvalidId && S.Kind != StmtKind::Return)
    Vars[S.To].Defs.push_back(Id);
  if (S.Kind == StmtKind::Return && S.From != InvalidId) {
    MethodInfo &M = Methods[S.Method];
    bool Known = false;
    for (VarId V : M.RetVars)
      Known = Known || V == S.From;
    if (!Known)
      M.RetVars.push_back(S.From);
  }
  Methods[S.Method].AllStmts.push_back(Id);
  Stmts.push_back(std::move(S));
  return Id;
}

ObjId Program::addObj(TypeId Type, StmtId Alloc, MethodId M, bool IsArray) {
  ObjId Id = static_cast<ObjId>(Objs.size());
  Objs.push_back({Type, Alloc, M, IsArray});
  return Id;
}

CallSiteId Program::addCallSite(StmtId S, MethodId Caller) {
  CallSiteId Id = static_cast<CallSiteId>(CallSites.size());
  CallSites.push_back({S, Caller});
  return Id;
}

VarId Program::callArg(const Stmt &S, size_t K) const {
  assert(S.Kind == StmtKind::Invoke && "not a call site");
  if (S.IKind == InvokeKind::Static)
    return K < S.Args.size() ? S.Args[K] : InvalidId;
  if (K == 0)
    return S.Base;
  return K - 1 < S.Args.size() ? S.Args[K - 1] : InvalidId;
}

size_t Program::numCallArgs(const Stmt &S) const {
  assert(S.Kind == StmtKind::Invoke && "not a call site");
  return S.Args.size() + (S.IKind == InvokeKind::Static ? 0 : 1);
}

std::string Program::methodString(MethodId M) const {
  const MethodInfo &MI = Methods[M];
  return Types[MI.Owner].Name + "." + MI.Name + "/" +
         std::to_string(MI.ParamTypes.size());
}

MethodId Program::methodByName(std::string_view Qualified) const {
  size_t Dot = Qualified.rfind('.');
  if (Dot == std::string_view::npos)
    return InvalidId;
  TypeId T = typeByName(std::string(Qualified.substr(0, Dot)));
  if (T == InvalidId)
    return InvalidId;
  std::string_view Name = Qualified.substr(Dot + 1);
  for (MethodId M : Types[T].Methods)
    if (Methods[M].Name == Name)
      return M;
  return InvalidId;
}

VarId Program::varByName(MethodId M, std::string_view Name) const {
  if (M == InvalidId)
    return InvalidId;
  for (VarId V : Methods[M].Vars)
    if (Vars[V].Name == Name)
      return V;
  return InvalidId;
}

VarId Program::varByName(std::string_view Qualified) const {
  size_t Dot = Qualified.rfind('.');
  if (Dot == std::string_view::npos)
    return InvalidId;
  return varByName(methodByName(Qualified.substr(0, Dot)),
                   Qualified.substr(Dot + 1));
}
