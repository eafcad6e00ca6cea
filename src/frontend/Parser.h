//===- Parser.h - Recursive-descent parser for .jir -------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses `.jir` sources into a Program. Multiple sources may be parsed
/// into the same program (the modelled standard library first, then user
/// code); cross-source references are resolved by finalize().
///
/// Grammar sketch:
/// \code
///   program   := (classDecl | extendDecl)*
///   classDecl := ["abstract"] "class" ID ["extends" ID]
///                  ["implements" ID ("," ID)*] "{" member* "}"
///              | "interface" ID ["extends" ID ("," ID)*] "{" sig* "}"
///   member    := ["static"] "field" ID ":" type ";"
///              | ["static"] ["abstract"] "method" ID "(" params? ")"
///                  ":" type (block | ";")
///   type      := ID ("[]")*              -- "void" only as return type
///   stmt      := "var" ID ":" type ";"
///              | ID "=" "new" type ";"
///              | ID "=" "(" type ")" ID ";"
///              | ID "=" ID ";"
///              | ID "=" ID "." ID ";"        | ID "." ID "=" ID ";"
///              | ID "=" ID "[" "*" "]" ";"   | ID "[" "*" "]" "=" ID ";"
///              | ID "=" ID "::" ID ";"       | ID "::" ID "=" ID ";"
///              | [ID "="] "call"  ID "." ID "(" args? ")" ";"
///              | [ID "="] "scall" ID "." ID "(" args? ")" ";"
///              | [ID "="] "dcall" ID "." ID "." ID "(" args? ")" ";"
///              | "return" [ID] ";"
///              | "if" "?" block ["else" block]
///
///   -- Delta form (analysis server add-delta; also valid in any source
///   -- parsed after the class's definition):
///   extendDecl := "extend" "class" ID "{" extendMember* "}"
///   extendMember := member
///                 | "append" "method" ID block
/// \endcode
///
/// `extend class` reopens an already-defined class to add fields and
/// methods; `append method` appends statements to the body of the named
/// (non-overloaded, concrete) method, with the method's existing locals
/// back in scope. A delta source parsed after the base sources produces
/// exactly the entity ids a from-scratch parse of the concatenation
/// would — the property the incremental solver's equivalence contract
/// rests on.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_FRONTEND_PARSER_H
#define CSC_FRONTEND_PARSER_H

#include "frontend/Lexer.h"
#include "ir/IRBuilder.h"
#include "ir/Program.h"

#include <cassert>
#include <iterator>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace csc {

/// Builds IR from `.jir` text. Collects diagnostics instead of throwing.
class Parser {
public:
  explicit Parser(Program &P) : P(P) {}

  /// Parses one source buffer; returns false if any diagnostic was emitted.
  bool parseSource(const std::string &Source, const std::string &FileName);

  /// Resolves deferred references (fields, static/special callees, entry
  /// point). Must be called once after all sources are parsed.
  bool finalize();

  const std::vector<std::string> &diagnostics() const { return Diags; }

private:
  // Token stream helpers: the current token and up to three lookahead
  // tokens. Past the end, every position holds the Eof token.
  const Token &cur() const { return Look[0]; }
  const Token &peek(size_t N = 1) const {
    assert(N < std::size(Look) && "lookahead is three tokens");
    return Look[N];
  }
  void advance();
  /// The lexer's next token; an Error token's diagnostic is kept aside.
  Token pull();
  bool at(TokKind K) const { return cur().Kind == K; }
  bool atIdent(std::string_view KW) const {
    return cur().Kind == TokKind::Ident && cur().Text == KW;
  }
  bool accept(TokKind K);
  bool acceptIdent(std::string_view KW);
  bool expect(TokKind K, std::string_view What);
  /// The identifier at the cursor, or an empty view after a diagnostic.
  std::string_view expectIdent(std::string_view What);
  void error(const std::string &Msg);
  void syncToStmtEnd();

  // Grammar productions.
  void parseClassDecl();
  void parseExtendDecl();
  void parseAppendMethod(TypeId T);
  void skipBracedBlock();
  void parseInterfaceBody(TypeId T);
  void parseClassBody(TypeId T);
  void parseFieldDecl(TypeId T, bool IsStatic);
  void parseMethodDecl(TypeId T, bool IsStatic, bool IsAbstract);
  TypeId parseType(bool AllowVoid);
  void parseBlock(MethodBuilder &MB);
  void parseStmt(MethodBuilder &MB);
  void parseCall(MethodBuilder &MB, VarId To, uint32_t Line);
  std::vector<VarId> parseArgs();
  VarId lookupVar(std::string_view Name);

  /// A line of a parsed file. Deferred references keep one and format it
  /// only if they fail to resolve.
  struct SourceLoc {
    uint32_t File; ///< Index into Files.
    uint32_t Line;
  };
  SourceLoc here() const;
  /// "file:line: error: Msg".
  std::string diagnostic(SourceLoc L, const std::string &Msg) const;

  // Deferred resolutions. Their names outlive the source, so they own
  // copies.
  struct PendingField {
    StmtId S;
    std::string Name;
    SourceLoc Where;
  };
  struct PendingCall {
    StmtId S;
    std::string ClassName;
    std::string Name;
    size_t Arity;
    bool IsSpecial;
    SourceLoc Where;
  };
  struct PendingStaticField {
    StmtId S;
    std::string ClassName;
    std::string Name;
    SourceLoc Where;
  };

  Program &P;
  /// The lexer of the source being parsed. It and the lookahead view that
  /// source, so both are reset before parseSource() returns.
  Lexer Lex;
  Token Look[4];
  std::vector<std::string> Files; ///< Every parsed file name, in order.
  std::vector<std::string> Diags;
  size_t DiagsAtSourceStart = 0;
  /// The current source's lexical errors. They precede its parse errors
  /// in Diags, as if the whole source had been lexed first.
  std::vector<std::string> LexDiags;

  /// Current method scope. Keys view the source, or AppendNames for an
  /// `append method` (whose locals' names live in Program, which may move
  /// them while the method grows).
  std::unordered_map<std::string_view, VarId> Scope;
  std::vector<std::string> AppendNames;
  std::vector<PendingField> PendingFields;
  std::vector<PendingCall> PendingCalls;
  std::vector<PendingStaticField> PendingStaticFields;
};

/// Convenience: parse sources in order into \p P and finalize.
/// Appends diagnostics to \p Diags; returns true on success.
bool parseProgram(Program &P,
                  const std::vector<std::pair<std::string, std::string>>
                      &NamedSources,
                  std::vector<std::string> &Diags);

} // namespace csc

#endif // CSC_FRONTEND_PARSER_H
