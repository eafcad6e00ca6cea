//===- IRBuilder.h - Programmatic IR construction ---------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience builders for constructing IR programs from C++ (used by the
/// unit tests, the workload generator, and the examples). The textual
/// frontend in src/frontend is an alternative producer of the same IR.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_IR_IRBUILDER_H
#define CSC_IR_IRBUILDER_H

#include "ir/Program.h"

#include <string>
#include <string_view>
#include <vector>

namespace csc {

/// Builds the body of one method. Statements are appended in order; \c
/// beginIf / \c elseBranch / \c endIf manage the nondeterministic branch
/// blocks used by the interpreter.
class MethodBuilder {
public:
  MethodBuilder(Program &P, MethodId M) : P(P), M(M) {}

  MethodId method() const { return M; }

  /// Declares a fresh local variable.
  VarId local(std::string_view Name, TypeId DeclaredType) {
    return P.addVar(M, Name, DeclaredType);
  }

  /// The receiver variable (instance methods only).
  VarId thisVar() const;

  /// The \p I-th declared parameter (excluding `this`).
  VarId param(size_t I) const;

  StmtId newObj(VarId To, TypeId T);
  StmtId newArray(VarId To, TypeId ArrayType);
  StmtId assign(VarId To, VarId From);
  StmtId cast(VarId To, TypeId T, VarId From);
  StmtId load(VarId To, VarId Base, FieldId F);
  StmtId loadField(VarId To, VarId Base, const std::string &FieldName);
  StmtId store(VarId Base, FieldId F, VarId From);
  StmtId storeField(VarId Base, const std::string &FieldName, VarId From);
  StmtId arrayLoad(VarId To, VarId Base);
  StmtId arrayStore(VarId Base, VarId From);
  StmtId staticLoad(VarId To, FieldId F);
  StmtId staticStore(FieldId F, VarId From);

  /// Virtual call `To = Base.Name(Args)`; To may be InvalidId.
  StmtId callVirtual(VarId To, VarId Base, std::string_view Name,
                     std::vector<VarId> Args);
  /// Static direct call `To = Callee(Args)`.
  StmtId callStatic(VarId To, MethodId Callee, std::vector<VarId> Args);
  /// Non-virtual call with receiver (constructors): `To = Base.Callee(Args)`.
  StmtId callSpecial(VarId To, VarId Base, MethodId Callee,
                     std::vector<VarId> Args);

  StmtId ret(VarId V = InvalidId);

  void beginIf();
  void elseBranch();
  void endIf();

private:
  StmtId append(Stmt S);

  Program &P;
  MethodId M;

  struct Frame {
    StmtId IfStmt;
    bool InElse = false;
    std::vector<StmtId> Cur;
    std::vector<StmtId> ThenSaved;
  };
  std::vector<Frame> Stack;
};

/// Program-level construction sugar.
class IRBuilder {
public:
  explicit IRBuilder(Program &P) : P(P) {}

  Program &program() { return P; }

  /// Defines a class extending \p Super (Object if empty).
  TypeId cls(const std::string &Name, const std::string &Super = "",
             bool IsAbstract = false);

  /// Defines an interface.
  TypeId iface(const std::string &Name);

  FieldId field(TypeId Owner, const std::string &Name, TypeId Ty,
                bool IsStatic = false);

  /// Creates a method and returns a builder for its body.
  MethodBuilder method(TypeId Owner, const std::string &Name,
                       std::vector<TypeId> ParamTypes, TypeId RetType,
                       bool IsStatic = false);

  /// Creates an abstract method (no body).
  MethodId abstractMethod(TypeId Owner, const std::string &Name,
                          std::vector<TypeId> ParamTypes, TypeId RetType);

private:
  Program &P;
};

} // namespace csc

#endif // CSC_IR_IRBUILDER_H
