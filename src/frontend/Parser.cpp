//===- Parser.cpp - Recursive-descent parser for .jir ---------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <iterator>

using namespace csc;

namespace {

/// Concatenates the parts of a diagnostic message.
std::string cat(std::initializer_list<std::string_view> Parts) {
  std::string Out;
  for (std::string_view Part : Parts)
    Out += Part;
  return Out;
}

} // namespace

Parser::SourceLoc Parser::here() const {
  return {static_cast<uint32_t>(Files.size() - 1), cur().Line};
}

std::string Parser::diagnostic(SourceLoc L, const std::string &Msg) const {
  return Files[L.File] + ":" + std::to_string(L.Line) + ": error: " + Msg;
}

void Parser::error(const std::string &Msg) {
  Diags.push_back(diagnostic(here(), Msg));
}

void Parser::advance() {
  if (cur().Kind == TokKind::Eof)
    return;
  std::copy(std::begin(Look) + 1, std::end(Look), std::begin(Look));
  std::end(Look)[-1] = pull();
}

Token Parser::pull() {
  Token T = Lex.next();
  if (T.Kind == TokKind::Error)
    LexDiags.push_back(
        diagnostic({static_cast<uint32_t>(Files.size() - 1), T.Line},
                   std::string(T.Text)));
  return T;
}

bool Parser::accept(TokKind K) {
  if (!at(K))
    return false;
  advance();
  return true;
}

bool Parser::acceptIdent(std::string_view KW) {
  if (!atIdent(KW))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokKind K, std::string_view What) {
  if (accept(K))
    return true;
  error(cat({"expected ", What, ", found '", cur().Text, "'"}));
  return false;
}

std::string_view Parser::expectIdent(std::string_view What) {
  if (at(TokKind::Ident)) {
    std::string_view Name = cur().Text;
    advance();
    return Name;
  }
  error(cat({"expected ", What, ", found '", cur().Text, "'"}));
  return {};
}

void Parser::syncToStmtEnd() {
  while (!at(TokKind::Eof) && !at(TokKind::Semi) && !at(TokKind::RBrace))
    advance();
  accept(TokKind::Semi);
}

bool Parser::parseSource(const std::string &Source,
                         const std::string &FileName) {
  Files.push_back(FileName);
  DiagsAtSourceStart = Diags.size();
  Lex = Lexer(Source);
  for (Token &T : Look)
    T = pull();

  while (!at(TokKind::Eof)) {
    if (atIdent("class") || atIdent("interface") || atIdent("abstract")) {
      parseClassDecl();
      continue;
    }
    if (atIdent("extend")) {
      parseExtendDecl();
      continue;
    }
    error(cat({"expected class or interface declaration, found '",
               cur().Text, "'"}));
    advance();
  }
  // The parser stops only at Eof, so the whole source has been lexed.
  Diags.insert(Diags.begin() + DiagsAtSourceStart, LexDiags.begin(),
               LexDiags.end());
  LexDiags.clear();
  // Tokens and scope keys view Source; drop them with it.
  Lex = Lexer();
  std::fill(std::begin(Look), std::end(Look), Token());
  Scope.clear();
  return Diags.size() == DiagsAtSourceStart;
}

void Parser::skipBracedBlock() {
  while (!at(TokKind::Eof) && !at(TokKind::LBrace))
    advance();
  int Depth = 0;
  do {
    if (at(TokKind::LBrace))
      ++Depth;
    if (at(TokKind::RBrace))
      --Depth;
    advance();
  } while (!at(TokKind::Eof) && Depth > 0);
}

void Parser::parseClassDecl() {
  bool IsAbstract = acceptIdent("abstract");
  bool IsInterface = false;
  if (acceptIdent("interface"))
    IsInterface = true;
  else if (!acceptIdent("class")) {
    error("expected 'class' after 'abstract'");
    advance();
    return;
  }

  std::string_view Name = expectIdent("class name");
  if (Name.empty())
    return;

  TypeId Existing = P.typeByName(Name);
  if (Existing != InvalidId && P.type(Existing).Defined) {
    error(cat({"type '", Name, "' defined twice"}));
    // Skip the body to keep parsing.
    skipBracedBlock();
    return;
  }

  TypeId Super = InvalidId;
  std::vector<TypeId> Interfaces;
  if (IsInterface) {
    if (acceptIdent("extends")) {
      do {
        std::string_view IName = expectIdent("interface name");
        if (!IName.empty())
          Interfaces.push_back(P.getOrCreateType(IName));
      } while (accept(TokKind::Comma));
    }
  } else {
    if (acceptIdent("extends")) {
      std::string_view SName = expectIdent("superclass name");
      if (!SName.empty())
        Super = P.getOrCreateType(SName);
    }
    if (acceptIdent("implements")) {
      do {
        std::string_view IName = expectIdent("interface name");
        if (!IName.empty())
          Interfaces.push_back(P.getOrCreateType(IName));
      } while (accept(TokKind::Comma));
    }
  }

  TypeId T = P.defineClass(Name, Super, std::move(Interfaces),
                           IsInterface ? TypeKind::Interface
                                       : TypeKind::Class,
                           IsAbstract);

  if (!expect(TokKind::LBrace, "'{'"))
    return;
  if (IsInterface)
    parseInterfaceBody(T);
  else
    parseClassBody(T);
}

void Parser::parseInterfaceBody(TypeId T) {
  while (!at(TokKind::Eof) && !at(TokKind::RBrace)) {
    if (acceptIdent("method")) {
      parseMethodDecl(T, /*IsStatic=*/false, /*IsAbstract=*/true);
      continue;
    }
    error("interfaces may only declare methods");
    syncToStmtEnd();
  }
  expect(TokKind::RBrace, "'}'");
}

void Parser::parseClassBody(TypeId T) {
  while (!at(TokKind::Eof) && !at(TokKind::RBrace)) {
    bool IsStatic = acceptIdent("static");
    bool IsAbstract = acceptIdent("abstract");
    if (acceptIdent("field")) {
      if (IsAbstract)
        error("fields cannot be abstract");
      parseFieldDecl(T, IsStatic);
      continue;
    }
    if (acceptIdent("method")) {
      parseMethodDecl(T, IsStatic, IsAbstract);
      continue;
    }
    error(cat({"expected field or method declaration, found '", cur().Text,
               "'"}));
    syncToStmtEnd();
  }
  expect(TokKind::RBrace, "'}'");
}

void Parser::parseExtendDecl() {
  advance(); // 'extend'
  if (!acceptIdent("class")) {
    error("expected 'class' after 'extend'");
    advance();
    return;
  }
  std::string_view Name = expectIdent("class name");
  if (Name.empty())
    return;
  TypeId T = P.typeByName(Name);
  if (T == InvalidId || !P.type(T).Defined) {
    error(cat({"cannot extend undefined class '", Name, "'"}));
    skipBracedBlock();
    return;
  }
  if (P.type(T).Kind != TypeKind::Class) {
    error(cat({"'extend class' target '", Name, "' is not a class"}));
    skipBracedBlock();
    return;
  }
  if (!expect(TokKind::LBrace, "'{'"))
    return;
  while (!at(TokKind::Eof) && !at(TokKind::RBrace)) {
    if (acceptIdent("append")) {
      if (!acceptIdent("method")) {
        error("expected 'method' after 'append'");
        syncToStmtEnd();
        continue;
      }
      parseAppendMethod(T);
      continue;
    }
    bool IsStatic = acceptIdent("static");
    bool IsAbstract = acceptIdent("abstract");
    if (acceptIdent("field")) {
      if (IsAbstract)
        error("fields cannot be abstract");
      parseFieldDecl(T, IsStatic);
      continue;
    }
    if (acceptIdent("method")) {
      parseMethodDecl(T, IsStatic, IsAbstract);
      continue;
    }
    error(cat({"expected field, method, or append declaration, found '",
               cur().Text, "'"}));
    syncToStmtEnd();
  }
  expect(TokKind::RBrace, "'}'");
}

void Parser::parseAppendMethod(TypeId T) {
  std::string_view Name = expectIdent("method name");
  if (Name.empty())
    return;
  MethodId Target = InvalidId;
  bool Ambiguous = false;
  for (MethodId M : P.type(T).Methods)
    if (P.method(M).Name == Name) {
      if (Target != InvalidId)
        Ambiguous = true;
      Target = M;
    }
  if (Target == InvalidId) {
    error(cat({"class '", P.type(T).Name, "' has no method '", Name,
               "' to append to"}));
    skipBracedBlock();
    return;
  }
  if (Ambiguous) {
    error(cat({"method '", Name, "' is overloaded in '", P.type(T).Name,
               "'; append is ambiguous"}));
    skipBracedBlock();
    return;
  }
  if (P.method(Target).IsAbstract) {
    error(cat({"cannot append to abstract method '", Name, "'"}));
    skipBracedBlock();
    return;
  }

  // The method's existing locals (parameters and `this` included) come
  // back into scope; new `var` declarations extend the method. Their
  // names are copied whole before any key views them.
  Scope.clear();
  const std::vector<VarId> &Locals = P.method(Target).Vars;
  AppendNames.clear();
  for (VarId V : Locals)
    AppendNames.push_back(P.var(V).Name);
  for (size_t I = 0; I != Locals.size(); ++I)
    Scope[AppendNames[I]] = Locals[I];

  MethodBuilder MB(P, Target);
  expect(TokKind::LBrace, "'{'");
  while (!at(TokKind::Eof) && !at(TokKind::RBrace))
    parseStmt(MB);
  expect(TokKind::RBrace, "'}'");
}

void Parser::parseFieldDecl(TypeId T, bool IsStatic) {
  std::string_view Name = expectIdent("field name");
  expect(TokKind::Colon, "':'");
  TypeId FT = parseType(/*AllowVoid=*/false);
  expect(TokKind::Semi, "';'");
  if (Name.empty() || FT == InvalidId)
    return;
  if (P.resolveField(T, Name) != InvalidId) {
    error(cat({"field '", Name, "' already declared in '", P.type(T).Name,
               "' or a superclass"}));
    return;
  }
  P.addField(T, Name, FT, IsStatic);
}

TypeId Parser::parseType(bool AllowVoid) {
  std::string_view Name = expectIdent("type name");
  if (Name.empty())
    return InvalidId;
  if (Name == "void") {
    if (!AllowVoid)
      error("'void' is only valid as a return type");
    return InvalidId;
  }
  TypeId T = P.getOrCreateType(Name);
  while (at(TokKind::LBracket) && peek().Kind == TokKind::RBracket) {
    advance();
    advance();
    T = P.arrayOf(T);
  }
  return T;
}

void Parser::parseMethodDecl(TypeId T, bool IsStatic, bool IsAbstract) {
  std::string_view Name = expectIdent("method name");
  expect(TokKind::LParen, "'('");
  std::vector<std::string_view> ParamNames;
  std::vector<TypeId> ParamTypes;
  if (!at(TokKind::RParen)) {
    do {
      std::string_view PName = expectIdent("parameter name");
      expect(TokKind::Colon, "':'");
      TypeId PT = parseType(/*AllowVoid=*/false);
      if (!PName.empty() && PT != InvalidId) {
        ParamNames.push_back(PName);
        ParamTypes.push_back(PT);
      }
    } while (accept(TokKind::Comma));
  }
  expect(TokKind::RParen, "')'");
  expect(TokKind::Colon, "':'");
  TypeId RetType = parseType(/*AllowVoid=*/true);

  if (Name.empty())
    return;
  if (P.lookupMethod(T, Name, ParamTypes.size()) != InvalidId &&
      P.type(T).Methods.size() > 0) {
    // Overriding a superclass method is fine; redefining within the same
    // class is an error.
    for (MethodId M : P.type(T).Methods)
      if (P.method(M).Name == Name &&
          P.method(M).ParamTypes.size() == ParamTypes.size()) {
        error(cat({"method '", Name, "' defined twice in '",
                   P.type(T).Name, "'"}));
        break;
      }
  }

  MethodId M = P.addMethod(T, Name, ParamTypes, RetType, IsStatic,
                           IsAbstract);

  if (IsAbstract) {
    expect(TokKind::Semi, "';' after abstract method");
    return;
  }

  // Rename parameter variables to their declared names and build the scope.
  Scope.clear();
  const MethodInfo &MI = P.method(M);
  size_t FirstParam = IsStatic ? 0 : 1;
  if (!IsStatic)
    Scope["this"] = MI.Params[0];
  for (size_t I = 0; I != ParamNames.size(); ++I) {
    VarId V = MI.Params[FirstParam + I];
    P.varMut(V).Name = ParamNames[I];
    if (Scope.count(ParamNames[I]))
      error(cat({"duplicate parameter name '", ParamNames[I], "'"}));
    Scope[ParamNames[I]] = V;
  }

  MethodBuilder MB(P, M);
  expect(TokKind::LBrace, "'{'");
  while (!at(TokKind::Eof) && !at(TokKind::RBrace))
    parseStmt(MB);
  expect(TokKind::RBrace, "'}'");
}

void Parser::parseBlock(MethodBuilder &MB) {
  expect(TokKind::LBrace, "'{'");
  while (!at(TokKind::Eof) && !at(TokKind::RBrace))
    parseStmt(MB);
  expect(TokKind::RBrace, "'}'");
}

VarId Parser::lookupVar(std::string_view Name) {
  auto It = Scope.find(Name);
  if (It != Scope.end())
    return It->second;
  error(cat({"use of undeclared variable '", Name, "'"}));
  return InvalidId;
}

std::vector<VarId> Parser::parseArgs() {
  std::vector<VarId> Args;
  expect(TokKind::LParen, "'('");
  if (!at(TokKind::RParen)) {
    do {
      std::string_view Name = expectIdent("argument");
      if (!Name.empty()) {
        VarId V = lookupVar(Name);
        if (V != InvalidId)
          Args.push_back(V);
      }
    } while (accept(TokKind::Comma));
  }
  expect(TokKind::RParen, "')'");
  return Args;
}

void Parser::parseCall(MethodBuilder &MB, VarId To, uint32_t Line) {
  std::string_view Kind = cur().Text;
  advance();
  std::string_view A = expectIdent("name");
  expect(TokKind::Dot, "'.'");
  std::string_view B = expectIdent("name");
  std::string_view C;
  if (Kind == "dcall") {
    expect(TokKind::Dot, "'.'");
    C = expectIdent("method name");
  }
  std::vector<VarId> Args = parseArgs();
  expect(TokKind::Semi, "';'");
  StmtId S;
  if (Kind == "call") {
    VarId Base = lookupVar(A);
    if (Base == InvalidId)
      return;
    S = MB.callVirtual(To, Base, B, std::move(Args));
  } else if (Kind == "scall") {
    size_t N = Args.size();
    S = MB.callStatic(To, InvalidId, std::move(Args));
    PendingCalls.push_back(
        {S, std::string(A), std::string(B), N, false, here()});
  } else {
    VarId Base = lookupVar(A);
    if (Base == InvalidId)
      return;
    size_t N = Args.size();
    S = MB.callSpecial(To, Base, InvalidId, std::move(Args));
    PendingCalls.push_back(
        {S, std::string(B), std::string(C), N, true, here()});
  }
  P.stmtMut(S).Line = Line;
}

void Parser::parseStmt(MethodBuilder &MB) {
  uint32_t Line = cur().Line;

  // var ID : Type ;
  if (atIdent("var") && peek().Kind == TokKind::Ident &&
      peek(2).Kind == TokKind::Colon) {
    advance();
    std::string_view Name = expectIdent("variable name");
    expect(TokKind::Colon, "':'");
    TypeId T = parseType(/*AllowVoid=*/false);
    expect(TokKind::Semi, "';'");
    if (Name.empty() || T == InvalidId)
      return;
    auto [It, Fresh] = Scope.try_emplace(Name, InvalidId);
    if (!Fresh) {
      error(cat({"variable '", Name, "' already declared"}));
      return;
    }
    It->second = MB.local(Name, T);
    return;
  }

  // return [ID] ;
  if (atIdent("return")) {
    advance();
    VarId V = InvalidId;
    if (at(TokKind::Ident)) {
      V = lookupVar(cur().Text);
      advance();
    }
    expect(TokKind::Semi, "';'");
    StmtId S = MB.ret(V);
    P.stmtMut(S).Line = Line;
    return;
  }

  // if ? { ... } [else { ... }]
  if (atIdent("if")) {
    advance();
    expect(TokKind::Question, "'?'");
    MB.beginIf();
    parseBlock(MB);
    if (acceptIdent("else")) {
      MB.elseBranch();
      parseBlock(MB);
    }
    MB.endIf();
    return;
  }

  // Calls without a left-hand side.
  if (atIdent("call") || atIdent("scall") || atIdent("dcall")) {
    parseCall(MB, InvalidId, Line);
    return;
  }

  // Remaining statements start with an identifier.
  if (!at(TokKind::Ident)) {
    error(cat({"expected statement, found '", cur().Text, "'"}));
    syncToStmtEnd();
    return;
  }

  std::string_view First = cur().Text;

  // ID . field = ID ;   (store)
  if (peek().Kind == TokKind::Dot && peek(3).Kind == TokKind::Eq) {
    advance();
    advance();
    std::string_view FieldName = expectIdent("field name");
    expect(TokKind::Eq, "'='");
    std::string_view SrcName = expectIdent("source variable");
    expect(TokKind::Semi, "';'");
    VarId Base = lookupVar(First);
    VarId From = SrcName.empty() ? InvalidId : lookupVar(SrcName);
    if (Base == InvalidId || From == InvalidId)
      return;
    StmtId S = MB.store(Base, InvalidId, From);
    P.stmtMut(S).Line = Line;
    PendingFields.push_back({S, std::string(FieldName), here()});
    return;
  }

  // ID [ * ] = ID ;  (array store)
  if (peek().Kind == TokKind::LBracket) {
    advance();
    advance();
    expect(TokKind::Star, "'*'");
    expect(TokKind::RBracket, "']'");
    expect(TokKind::Eq, "'='");
    std::string_view SrcName = expectIdent("source variable");
    expect(TokKind::Semi, "';'");
    VarId Base = lookupVar(First);
    VarId From = SrcName.empty() ? InvalidId : lookupVar(SrcName);
    if (Base == InvalidId || From == InvalidId)
      return;
    StmtId S = MB.arrayStore(Base, From);
    P.stmtMut(S).Line = Line;
    return;
  }

  // Class :: field = ID ;  (static store)
  if (peek().Kind == TokKind::ColonColon && peek(3).Kind == TokKind::Eq) {
    advance();
    advance();
    std::string_view FieldName = expectIdent("field name");
    expect(TokKind::Eq, "'='");
    std::string_view SrcName = expectIdent("source variable");
    expect(TokKind::Semi, "';'");
    VarId From = SrcName.empty() ? InvalidId : lookupVar(SrcName);
    if (From == InvalidId)
      return;
    StmtId S = MB.staticStore(InvalidId, From);
    P.stmtMut(S).Line = Line;
    PendingStaticFields.push_back(
        {S, std::string(First), std::string(FieldName), here()});
    return;
  }

  // Everything else: ID = <rhs> ;
  if (peek().Kind != TokKind::Eq) {
    error(cat({"expected statement, found '", cur().Text, "'"}));
    syncToStmtEnd();
    return;
  }
  VarId To = lookupVar(First);
  advance();
  advance();
  if (To == InvalidId) {
    syncToStmtEnd();
    return;
  }

  // x = new Type ;  or  x = new Type[] ;
  if (atIdent("new")) {
    advance();
    TypeId T = parseType(/*AllowVoid=*/false);
    expect(TokKind::Semi, "';'");
    if (T == InvalidId)
      return;
    StmtId S;
    // parseType already folded "[]" suffixes into an array type.
    if (P.type(T).Kind == TypeKind::Array)
      S = MB.newArray(To, T);
    else
      S = MB.newObj(To, T);
    P.stmtMut(S).Line = Line;
    return;
  }

  // x = ( Type ) y ;
  if (at(TokKind::LParen)) {
    advance();
    TypeId T = parseType(/*AllowVoid=*/false);
    expect(TokKind::RParen, "')'");
    std::string_view SrcName = expectIdent("source variable");
    expect(TokKind::Semi, "';'");
    VarId From = SrcName.empty() ? InvalidId : lookupVar(SrcName);
    if (T == InvalidId || From == InvalidId)
      return;
    StmtId S = MB.cast(To, T, From);
    P.stmtMut(S).Line = Line;
    return;
  }

  // x = call/scall/dcall ...
  if (atIdent("call") || atIdent("scall") || atIdent("dcall")) {
    parseCall(MB, To, Line);
    return;
  }

  // x = y ... (assign, load, array load, static load)
  std::string_view SrcName = expectIdent("source");
  if (SrcName.empty()) {
    syncToStmtEnd();
    return;
  }

  if (at(TokKind::Dot)) {
    advance();
    std::string_view FieldName = expectIdent("field name");
    expect(TokKind::Semi, "';'");
    VarId Base = lookupVar(SrcName);
    if (Base == InvalidId)
      return;
    StmtId S = MB.load(To, Base, InvalidId);
    P.stmtMut(S).Line = Line;
    PendingFields.push_back({S, std::string(FieldName), here()});
    return;
  }
  if (at(TokKind::LBracket)) {
    advance();
    expect(TokKind::Star, "'*'");
    expect(TokKind::RBracket, "']'");
    expect(TokKind::Semi, "';'");
    VarId Base = lookupVar(SrcName);
    if (Base == InvalidId)
      return;
    StmtId S = MB.arrayLoad(To, Base);
    P.stmtMut(S).Line = Line;
    return;
  }
  if (at(TokKind::ColonColon)) {
    advance();
    std::string_view FieldName = expectIdent("field name");
    expect(TokKind::Semi, "';'");
    StmtId S = MB.staticLoad(To, InvalidId);
    P.stmtMut(S).Line = Line;
    PendingStaticFields.push_back(
        {S, std::string(SrcName), std::string(FieldName), here()});
    return;
  }
  expect(TokKind::Semi, "';'");
  VarId From = lookupVar(SrcName);
  if (From == InvalidId)
    return;
  StmtId S = MB.assign(To, From);
  P.stmtMut(S).Line = Line;
}

bool Parser::finalize() {
  size_t DiagsBefore = Diags.size();

  // Forward references that never materialized.
  for (TypeId T = 0; T < P.numTypes(); ++T)
    if (!P.type(T).Defined)
      Diags.push_back("error: type '" + P.type(T).Name +
                      "' referenced but never defined");

  // Instance field accesses: resolve via the base variable's declared type.
  for (const PendingField &PF : PendingFields) {
    Stmt &S = P.stmtMut(PF.S);
    VarId Base = S.Kind == StmtKind::Load ? S.Base : S.Base;
    TypeId BT = P.var(Base).DeclaredType;
    FieldId F = P.resolveField(BT, PF.Name);
    if (F == InvalidId) {
      Diags.push_back(diagnostic(PF.Where, "type '" + P.type(BT).Name +
                                               "' has no field '" + PF.Name +
                                               "'"));
      continue;
    }
    if (P.field(F).IsStatic) {
      Diags.push_back(diagnostic(
          PF.Where, "field '" + PF.Name + "' is static; use '::'"));
      continue;
    }
    S.Field = F;
  }
  PendingFields.clear();

  // Static and special calls.
  for (const PendingCall &PC : PendingCalls) {
    TypeId T = P.typeByName(PC.ClassName);
    if (T == InvalidId || !P.type(T).Defined) {
      Diags.push_back(
          diagnostic(PC.Where, "unknown class '" + PC.ClassName + "'"));
      continue;
    }
    MethodId M = P.lookupMethod(T, PC.Name, PC.Arity);
    if (M == InvalidId) {
      Diags.push_back(diagnostic(PC.Where, "class '" + PC.ClassName +
                                               "' has no method '" + PC.Name +
                                               "/" + std::to_string(PC.Arity) +
                                               "'"));
      continue;
    }
    const MethodInfo &MI = P.method(M);
    if (PC.IsSpecial && MI.IsStatic) {
      Diags.push_back(
          diagnostic(PC.Where, "'dcall' target '" + PC.Name + "' is static"));
      continue;
    }
    if (!PC.IsSpecial && !MI.IsStatic) {
      Diags.push_back(diagnostic(PC.Where, "'scall' target '" + PC.Name +
                                               "' is not static"));
      continue;
    }
    if (MI.IsAbstract) {
      Diags.push_back(diagnostic(
          PC.Where, "direct call to abstract method '" + PC.Name + "'"));
      continue;
    }
    P.stmtMut(PC.S).DirectCallee = M;
  }
  PendingCalls.clear();

  // Static field references.
  for (const PendingStaticField &PSF : PendingStaticFields) {
    TypeId T = P.typeByName(PSF.ClassName);
    if (T == InvalidId || !P.type(T).Defined) {
      Diags.push_back(
          diagnostic(PSF.Where, "unknown class '" + PSF.ClassName + "'"));
      continue;
    }
    FieldId F = P.resolveField(T, PSF.Name);
    if (F == InvalidId || !P.field(F).IsStatic) {
      Diags.push_back(diagnostic(PSF.Where, "class '" + PSF.ClassName +
                                                "' has no static field '" +
                                                PSF.Name + "'"));
      continue;
    }
    P.stmtMut(PSF.S).Field = F;
  }
  PendingStaticFields.clear();

  // Entry point: the unique static `main()` if present.
  if (P.entry() == InvalidId) {
    MethodId Main = InvalidId;
    for (MethodId M = 0; M < P.numMethods(); ++M) {
      const MethodInfo &MI = P.method(M);
      if (MI.IsStatic && MI.Name == "main" && MI.ParamTypes.empty()) {
        if (Main != InvalidId) {
          Diags.push_back("error: multiple static main() methods");
          break;
        }
        Main = M;
      }
    }
    if (Main != InvalidId)
      P.setEntry(Main);
  }

  return Diags.size() == DiagsBefore;
}

bool csc::parseProgram(
    Program &P,
    const std::vector<std::pair<std::string, std::string>> &NamedSources,
    std::vector<std::string> &Diags) {
  Parser Psr(P);
  bool Ok = true;
  for (const auto &[Name, Source] : NamedSources)
    Ok = Psr.parseSource(Source, Name) && Ok;
  Ok = Psr.finalize() && Ok;
  Diags.insert(Diags.end(), Psr.diagnostics().begin(),
               Psr.diagnostics().end());
  return Ok;
}
