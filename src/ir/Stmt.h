//===- Stmt.h - IR statements -----------------------------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statement representation of the Java-like IR. The statement vocabulary is
/// exactly what a Java pointer analysis consumes (cf. Fig. 7 of the paper):
/// allocation, local assignment, cast, instance field load/store, array
/// load/store (index-insensitive), static field load/store, invocation,
/// return, and a nondeterministic branch used only by the interpreter (the
/// analysis is flow-insensitive and simply visits all nested statements).
///
//===----------------------------------------------------------------------===//

#ifndef CSC_IR_STMT_H
#define CSC_IR_STMT_H

#include "support/Ids.h"

#include <vector>

namespace csc {

enum class StmtKind : uint8_t {
  New,         ///< To = new Type            (allocation site Obj)
  NewArray,    ///< To = new Type[]          (allocation site Obj)
  Assign,      ///< To = From
  Cast,        ///< To = (Type) From         (type-filtered assignment)
  Load,        ///< To = Base.Field
  Store,       ///< Base.Field = From
  ArrayLoad,   ///< To = Base[*]
  ArrayStore,  ///< Base[*] = From
  StaticLoad,  ///< To = Class::Field
  StaticStore, ///< Class::Field = From
  Invoke,      ///< [To =] call/scall/dcall ...
  Return,      ///< return [From]
  If,          ///< if ? { Then } else { Else }   (nondeterministic branch)
};

enum class InvokeKind : uint8_t {
  Virtual, ///< Dispatched on the dynamic type of the receiver.
  Static,  ///< Direct call, no receiver.
  Special, ///< Direct call with receiver (constructors, super calls).
};

/// One IR statement. A single struct with kind-dependent slots keeps the IR
/// simple to build, print, parse, and interpret; unused slots are InvalidId.
struct Stmt {
  StmtKind Kind;
  MethodId Method = InvalidId; ///< Enclosing method.
  uint32_t Line = 0;           ///< Source line (0 if built programmatically).

  VarId To = InvalidId;   ///< Defined variable (New/Assign/Cast/loads/Invoke).
  VarId From = InvalidId; ///< Source variable (Assign/Cast/stores/Return).
  VarId Base = InvalidId; ///< Receiver/base (field & array accesses, Invoke).

  TypeId Type = InvalidId;   ///< New/NewArray allocated type; Cast target.
  FieldId Field = InvalidId; ///< Load/Store/StaticLoad/StaticStore.
  ObjId Obj = InvalidId;     ///< Allocation site id (New/NewArray).

  // Invoke-only slots.
  CallSiteId CallSite = InvalidId;
  InvokeKind IKind = InvokeKind::Virtual;
  MethodId DirectCallee = InvalidId; ///< Static/Special resolved target.
  uint32_t Subsig = InvalidId;       ///< Virtual dispatch key (name/arity).
  std::vector<VarId> Args;           ///< Arguments, excluding the receiver.

  // If-only slots: ids of the nested statements of each branch.
  std::vector<StmtId> ThenBody;
  std::vector<StmtId> ElseBody;

  bool isAllocation() const {
    return Kind == StmtKind::New || Kind == StmtKind::NewArray;
  }
};

} // namespace csc

#endif // CSC_IR_STMT_H
