//===- Printer.cpp - Pretty printer for the textual IR --------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

using namespace csc;

namespace {

/// Appends `.jir` text to one output string. Names are appended by
/// reference; no statement or name is copied on the way.
class PrinterImpl {
public:
  PrinterImpl(const Program &P, std::string &Out) : P(P), Out(Out) {}

  void printAll();
  void printStmtText(StmtId S);

private:
  void printClass(TypeId T);
  void printMethod(MethodId M);
  void printBlock(const std::vector<StmtId> &Body, int Indent);
  void printStmtLine(StmtId S, int Indent);

  const std::string &typeName(TypeId T) const {
    static const std::string Void = "void";
    return T == InvalidId ? Void : P.type(T).Name;
  }
  const std::string &varName(VarId V) const { return P.var(V).Name; }
  const std::string &fieldName(FieldId F) const { return P.field(F).Name; }
  void indent(int N) { Out.append(2 * static_cast<size_t>(N), ' '); }

  const Program &P;
  std::string &Out;
};

void PrinterImpl::printAll() {
  for (TypeId T = 0; T < P.numTypes(); ++T) {
    const TypeInfo &TI = P.type(T);
    if (T == P.objectType() || TI.Kind == TypeKind::Array || !TI.Defined)
      continue;
    printClass(T);
  }
}

void PrinterImpl::printClass(TypeId T) {
  const TypeInfo &TI = P.type(T);
  if (TI.Kind == TypeKind::Interface) {
    Out += "interface ";
    Out += TI.Name;
  } else {
    if (TI.IsAbstract)
      Out += "abstract ";
    Out += "class ";
    Out += TI.Name;
    if (TI.Super != InvalidId && TI.Super != P.objectType()) {
      Out += " extends ";
      Out += typeName(TI.Super);
    }
  }
  if (!TI.Interfaces.empty()) {
    Out += TI.Kind == TypeKind::Interface ? " extends " : " implements ";
    for (size_t I = 0; I != TI.Interfaces.size(); ++I) {
      if (I)
        Out += ", ";
      Out += typeName(TI.Interfaces[I]);
    }
  }
  Out += " {\n";
  for (FieldId F : TI.Fields) {
    const FieldInfo &FI = P.field(F);
    Out += FI.IsStatic ? "  static field " : "  field ";
    Out += FI.Name;
    Out += ": ";
    Out += typeName(FI.DeclaredType);
    Out += ";\n";
  }
  for (MethodId M : TI.Methods)
    printMethod(M);
  Out += "}\n";
}

void PrinterImpl::printMethod(MethodId M) {
  const MethodInfo &MI = P.method(M);
  Out += "  ";
  if (MI.IsStatic)
    Out += "static ";
  if (MI.IsAbstract)
    Out += "abstract ";
  Out += "method ";
  Out += MI.Name;
  Out += '(';
  size_t FirstParam = MI.IsStatic ? 0 : 1;
  for (size_t I = FirstParam; I < MI.Params.size(); ++I) {
    if (I != FirstParam)
      Out += ", ";
    Out += varName(MI.Params[I]);
    Out += ": ";
    Out += typeName(P.var(MI.Params[I]).DeclaredType);
  }
  Out += "): ";
  Out += typeName(MI.RetType);
  if (MI.IsAbstract) {
    Out += ";\n";
    return;
  }
  Out += " {\n";
  // Declare non-parameter locals up front.
  for (VarId V : MI.Vars) {
    bool IsParam = false;
    for (VarId PV : MI.Params)
      IsParam = IsParam || PV == V;
    if (IsParam)
      continue;
    Out += "    var ";
    Out += varName(V);
    Out += ": ";
    Out += typeName(P.var(V).DeclaredType);
    Out += ";\n";
  }
  printBlock(MI.Body, 2);
  Out += "  }\n";
}

void PrinterImpl::printBlock(const std::vector<StmtId> &Body, int Indent) {
  for (StmtId S : Body)
    printStmtLine(S, Indent);
}

void PrinterImpl::printStmtLine(StmtId SId, int Indent) {
  const Stmt &S = P.stmt(SId);
  indent(Indent);
  if (S.Kind == StmtKind::If) {
    Out += "if ? {\n";
    printBlock(S.ThenBody, Indent + 1);
    indent(Indent);
    if (!S.ElseBody.empty()) {
      Out += "} else {\n";
      printBlock(S.ElseBody, Indent + 1);
      indent(Indent);
    }
    Out += "}\n";
    return;
  }
  printStmtText(SId);
  Out += '\n';
}

void PrinterImpl::printStmtText(StmtId SId) {
  const Stmt &S = P.stmt(SId);
  switch (S.Kind) {
  case StmtKind::New:
    Out += varName(S.To);
    Out += " = new ";
    Out += typeName(S.Type);
    Out += ';';
    break;
  case StmtKind::NewArray:
    Out += varName(S.To);
    Out += " = new ";
    Out += typeName(P.type(S.Type).ArrayElem);
    Out += "[];";
    break;
  case StmtKind::Assign:
    Out += varName(S.To);
    Out += " = ";
    Out += varName(S.From);
    Out += ';';
    break;
  case StmtKind::Cast:
    Out += varName(S.To);
    Out += " = (";
    Out += typeName(S.Type);
    Out += ") ";
    Out += varName(S.From);
    Out += ';';
    break;
  case StmtKind::Load:
    Out += varName(S.To);
    Out += " = ";
    Out += varName(S.Base);
    Out += '.';
    Out += fieldName(S.Field);
    Out += ';';
    break;
  case StmtKind::Store:
    Out += varName(S.Base);
    Out += '.';
    Out += fieldName(S.Field);
    Out += " = ";
    Out += varName(S.From);
    Out += ';';
    break;
  case StmtKind::ArrayLoad:
    Out += varName(S.To);
    Out += " = ";
    Out += varName(S.Base);
    Out += "[*];";
    break;
  case StmtKind::ArrayStore:
    Out += varName(S.Base);
    Out += "[*] = ";
    Out += varName(S.From);
    Out += ';';
    break;
  case StmtKind::StaticLoad:
    Out += varName(S.To);
    Out += " = ";
    Out += typeName(P.field(S.Field).Owner);
    Out += "::";
    Out += fieldName(S.Field);
    Out += ';';
    break;
  case StmtKind::StaticStore:
    Out += typeName(P.field(S.Field).Owner);
    Out += "::";
    Out += fieldName(S.Field);
    Out += " = ";
    Out += varName(S.From);
    Out += ';';
    break;
  case StmtKind::Invoke: {
    if (S.To != InvalidId) {
      Out += varName(S.To);
      Out += " = ";
    }
    switch (S.IKind) {
    case InvokeKind::Virtual: {
      // Subsig is "name/arity"; strip the arity suffix.
      const std::string &Sig = P.subsigName(S.Subsig);
      Out += "call ";
      Out += varName(S.Base);
      Out += '.';
      Out.append(Sig, 0, Sig.rfind('/'));
      break;
    }
    case InvokeKind::Static:
      Out += "scall ";
      Out += typeName(P.method(S.DirectCallee).Owner);
      Out += '.';
      Out += P.method(S.DirectCallee).Name;
      break;
    case InvokeKind::Special:
      Out += "dcall ";
      Out += varName(S.Base);
      Out += '.';
      Out += typeName(P.method(S.DirectCallee).Owner);
      Out += '.';
      Out += P.method(S.DirectCallee).Name;
      break;
    }
    Out += '(';
    for (size_t I = 0; I != S.Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += varName(S.Args[I]);
    }
    Out += ");";
    break;
  }
  case StmtKind::Return:
    if (S.From != InvalidId) {
      Out += "return ";
      Out += varName(S.From);
      Out += ';';
    } else {
      Out += "return;";
    }
    break;
  case StmtKind::If:
    Out += "if ? { ... }";
    break;
  }
}

} // namespace

std::string csc::printProgram(const Program &P) {
  std::string Out;
  PrinterImpl(P, Out).printAll();
  return Out;
}

std::string csc::printStmt(const Program &P, StmtId S) {
  std::string Out;
  PrinterImpl(P, Out).printStmtText(S);
  return Out;
}
