//===- Program.h - IR program container -------------------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Program owns every IR entity: the type table (classes, interfaces,
/// arrays), fields, methods, variables, statements, allocation sites and
/// call sites. It also answers the hierarchy queries the analysis needs:
/// subtyping, virtual dispatch, and field resolution.
///
/// Program has no lazily filled state: every const query computes its
/// answer from the tables without writing anything, so one Program can be
/// shared by any number of concurrent analyses. Mutation (parsing, IRBuilder,
/// a server delta) must not overlap with readers.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_IR_PROGRAM_H
#define CSC_IR_PROGRAM_H

#include "ir/Stmt.h"
#include "support/Ids.h"
#include "support/Interner.h"

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace csc {

enum class TypeKind : uint8_t { Class, Interface, Array };

/// A class, interface, or array type.
struct TypeInfo {
  std::string Name;
  TypeKind Kind = TypeKind::Class;
  TypeId Super = InvalidId;          ///< Superclass (InvalidId for Object).
  std::vector<TypeId> Interfaces;    ///< Directly implemented interfaces.
  TypeId ArrayElem = InvalidId;      ///< Element type for arrays.
  bool IsAbstract = false;
  bool Defined = false;              ///< False for forward references.
  std::vector<FieldId> Fields;       ///< Declared fields.
  std::vector<MethodId> Methods;     ///< Declared methods.
};

/// An instance or static field declaration.
struct FieldInfo {
  std::string Name;
  TypeId Owner = InvalidId;
  TypeId DeclaredType = InvalidId;
  bool IsStatic = false;
};

/// A local variable (parameters included).
struct VarInfo {
  std::string Name;
  MethodId Method = InvalidId;
  TypeId DeclaredType = InvalidId;
  std::vector<StmtId> Defs; ///< Statements assigning this variable.
};

/// A method. Parameters of instance methods include `this` at index 0.
struct MethodInfo {
  std::string Name;
  TypeId Owner = InvalidId;
  bool IsStatic = false;
  bool IsAbstract = false;
  TypeId RetType = InvalidId; ///< InvalidId means void.
  std::vector<TypeId> ParamTypes; ///< Declared types, excluding `this`.
  std::vector<VarId> Params;      ///< `this` first for instance methods.
  std::vector<VarId> Vars;        ///< All locals, parameters included.
  std::vector<VarId> RetVars;     ///< Variables returned by Return stmts.
  std::vector<StmtId> Body;       ///< Top-level statements, in order.
  std::vector<StmtId> AllStmts;   ///< Every statement, nesting flattened.
  uint32_t Subsig = InvalidId;    ///< Interned "name/arity" dispatch key.
};

/// An abstract heap object (one per allocation site).
struct ObjInfo {
  TypeId Type = InvalidId;
  StmtId AllocStmt = InvalidId;
  MethodId Method = InvalidId;
  bool IsArray = false;
};

/// A call site (one per Invoke statement).
struct CallSiteInfo {
  StmtId S = InvalidId;
  MethodId Caller = InvalidId;
};

/// The whole-program IR container.
class Program {
public:
  Program();

  //===--------------------------------------------------------------------===
  // Types
  //===--------------------------------------------------------------------===

  /// The root class type "Object" (created by the constructor).
  TypeId objectType() const { return ObjectTy; }

  /// Returns the type named \p Name, creating an undefined forward
  /// reference if it does not exist yet.
  TypeId getOrCreateType(std::string_view Name);

  /// Defines a class/interface. \p Super may be InvalidId (defaults to
  /// Object for classes). Returns the type id; reuses a forward reference.
  TypeId defineClass(std::string_view Name, TypeId Super,
                     std::vector<TypeId> Interfaces = {},
                     TypeKind Kind = TypeKind::Class, bool IsAbstract = false);

  /// Returns (creating on demand) the array type with element \p Elem.
  TypeId arrayOf(TypeId Elem);

  /// Returns the type named \p Name or InvalidId.
  TypeId typeByName(std::string_view Name) const;

  /// True if \p Sub is \p Sup or a subtype of it (classes, interfaces,
  /// covariant arrays; every type is a subtype of Object).
  bool isSubtype(TypeId Sub, TypeId Sup) const;

  //===--------------------------------------------------------------------===
  // Fields
  //===--------------------------------------------------------------------===

  FieldId addField(TypeId Owner, std::string_view Name, TypeId DeclaredType,
                   bool IsStatic = false);

  /// Finds the field named \p Name on \p T or its superclasses;
  /// InvalidId if absent.
  FieldId resolveField(TypeId T, std::string_view Name) const;

  //===--------------------------------------------------------------------===
  // Methods & dispatch
  //===--------------------------------------------------------------------===

  /// Creates an (initially empty) method; bodies are added via IRBuilder.
  MethodId addMethod(TypeId Owner, std::string_view Name,
                     std::vector<TypeId> ParamTypes, TypeId RetType,
                     bool IsStatic = false, bool IsAbstract = false);

  /// Interns the dispatch key "name/arity" (arity excludes `this`).
  uint32_t subsig(std::string_view Name, size_t Arity);

  /// Resolves a virtual call on receiver type \p T: walks the class chain
  /// for a concrete method with the given subsignature.
  MethodId dispatch(TypeId T, uint32_t Subsig) const;

  /// Finds a method by name and arity starting at \p T (used for direct
  /// calls and the frontend); may return an abstract method.
  MethodId lookupMethod(TypeId T, std::string_view Name, size_t Arity) const;

  //===--------------------------------------------------------------------===
  // Variables, statements, allocation sites, call sites
  //===--------------------------------------------------------------------===

  VarId addVar(MethodId M, std::string_view Name, TypeId DeclaredType);
  StmtId addStmt(Stmt S); ///< Appends; records var defs and ret vars.
  ObjId addObj(TypeId Type, StmtId Alloc, MethodId M, bool IsArray);
  CallSiteId addCallSite(StmtId S, MethodId Caller);

  //===--------------------------------------------------------------------===
  // Accessors
  //===--------------------------------------------------------------------===

  const TypeInfo &type(TypeId T) const { return Types[T]; }
  const FieldInfo &field(FieldId F) const { return Fields[F]; }
  const MethodInfo &method(MethodId M) const { return Methods[M]; }
  MethodInfo &methodMut(MethodId M) { return Methods[M]; }
  const VarInfo &var(VarId V) const { return Vars[V]; }
  VarInfo &varMut(VarId V) { return Vars[V]; }
  const Stmt &stmt(StmtId S) const { return Stmts[S]; }
  Stmt &stmtMut(StmtId S) { return Stmts[S]; }
  const ObjInfo &obj(ObjId O) const { return Objs[O]; }
  const CallSiteInfo &callSite(CallSiteId C) const { return CallSites[C]; }
  const std::string &subsigName(uint32_t S) const { return Subsigs.get(S); }

  uint32_t numTypes() const { return static_cast<uint32_t>(Types.size()); }
  uint32_t numFields() const { return static_cast<uint32_t>(Fields.size()); }
  uint32_t numMethods() const { return static_cast<uint32_t>(Methods.size()); }
  uint32_t numVars() const { return static_cast<uint32_t>(Vars.size()); }
  uint32_t numStmts() const { return static_cast<uint32_t>(Stmts.size()); }
  uint32_t numObjs() const { return static_cast<uint32_t>(Objs.size()); }
  uint32_t numCallSites() const {
    return static_cast<uint32_t>(CallSites.size());
  }

  /// Entry point (a static, parameterless method).
  MethodId entry() const { return Entry; }
  void setEntry(MethodId M) { Entry = M; }

  /// True if the argument variable of `Stmt.Args[K]`-style accesses exists;
  /// helper: the k-th "call argument" with receiver folded in at index 0.
  /// For a virtual/special call, arg 0 is the receiver; for static calls
  /// arg 0 is Args[0].
  VarId callArg(const Stmt &S, size_t K) const;

  /// Number of call arguments including the receiver slot (if any).
  size_t numCallArgs(const Stmt &S) const;

  /// Human-readable method signature "Owner.name/arity".
  std::string methodString(MethodId M) const;

  //===--------------------------------------------------------------------===
  // Name-based lookups
  //===--------------------------------------------------------------------===

  /// Finds a method "Class.name" (any arity); InvalidId if absent.
  MethodId methodByName(std::string_view Qualified) const;
  /// Finds a local variable by name within a method; InvalidId if absent.
  VarId varByName(MethodId M, std::string_view Name) const;
  /// Finds a variable "Class.method.var"; InvalidId if absent.
  VarId varByName(std::string_view Qualified) const;

private:
  /// Type ids by name, looked up by view without building a string. The
  /// keys view Names, indexed by TypeId: TypeInfo::Name moves whenever
  /// Types grows, but a deque never moves its elements. A copy re-points
  /// its keys at its own names.
  struct TypeNameIndex {
    std::deque<std::string> Names;
    std::unordered_map<std::string_view, TypeId> Ids;

    TypeNameIndex() = default;
    TypeNameIndex(const TypeNameIndex &O) : Names(O.Names) { reindex(); }
    TypeNameIndex &operator=(const TypeNameIndex &O) {
      Names = O.Names;
      reindex();
      return *this;
    }
    TypeNameIndex(TypeNameIndex &&) = default;
    TypeNameIndex &operator=(TypeNameIndex &&) = default;

    TypeId find(std::string_view Name) const {
      auto It = Ids.find(Name);
      return It == Ids.end() ? InvalidId : It->second;
    }
    /// Indexes \p Name as the next TypeId.
    void add(std::string_view Name) {
      TypeId Id = static_cast<TypeId>(Names.size());
      Ids.emplace(Names.emplace_back(Name), Id);
    }
    void reindex() {
      Ids.clear();
      for (size_t T = 0; T != Names.size(); ++T)
        Ids.emplace(Names[T], static_cast<TypeId>(T));
    }
  };

  std::vector<TypeInfo> Types;
  TypeNameIndex TypeByName;
  std::vector<FieldInfo> Fields;
  std::vector<MethodInfo> Methods;
  std::vector<VarInfo> Vars;
  std::vector<Stmt> Stmts;
  std::vector<ObjInfo> Objs;
  std::vector<CallSiteInfo> CallSites;
  Interner<std::string> Subsigs;
  TypeId ObjectTy = InvalidId;
  MethodId Entry = InvalidId;
};

} // namespace csc

#endif // CSC_IR_PROGRAM_H
