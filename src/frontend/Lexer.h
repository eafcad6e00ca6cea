//===- Lexer.h - Tokenizer for the .jir textual IR --------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written tokenizer for the `.jir` syntax. The parser pulls tokens
/// one at a time, so no token stream is ever stored: a source costs its
/// own bytes and a few tokens of lookahead.
///
/// Tokens do not copy their text: a token's Text is a view into the lexed
/// source (or, for an Error token, into a message the Lexer owns). A token
/// is therefore valid only while both its source and its Lexer live. The
/// Lexer refuses a temporary source at compile time, and it is move-only,
/// so neither a dangling source view nor a copy viewing another lexer's
/// messages can be written.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_FRONTEND_LEXER_H
#define CSC_FRONTEND_LEXER_H

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

namespace csc {

enum class TokKind : uint8_t {
  Ident,      // identifiers and keywords (parser distinguishes)
  LBrace,     // {
  RBrace,     // }
  LParen,     // (
  RParen,     // )
  LBracket,   // [
  RBracket,   // ]
  Comma,      // ,
  Semi,       // ;
  Colon,      // :
  ColonColon, // ::
  Dot,        // .
  Eq,         // =
  Question,   // ?
  Star,       // *
  Eof,
  Error,
};

struct Token {
  TokKind Kind = TokKind::Eof;
  uint32_t Line = 0;
  uint32_t Col = 0;
  std::string_view Text;
};

/// Tokenizes one source on demand. Lexical errors become TokKind::Error
/// tokens whose Text holds the message; once the source is exhausted,
/// every call returns the same Eof token.
class Lexer {
public:
  /// A lexer over an empty source.
  Lexer() = default;
  /// \p Source must outlive the lexer and every token it returns.
  explicit Lexer(const std::string &Source)
      : P(Source.data()), End(Source.data() + Source.size()), LineStart(P) {}
  explicit Lexer(std::string &&Source) = delete;

  Lexer(Lexer &&) = default;
  Lexer &operator=(Lexer &&) = default;
  Lexer(const Lexer &) = delete;
  Lexer &operator=(const Lexer &) = delete;

  Token next();

private:
  uint32_t col(const char *At) const {
    return static_cast<uint32_t>(At - LineStart + 1);
  }
  Token error(std::string Msg, uint32_t Line, uint32_t Col);

  const char *P = nullptr;
  const char *End = nullptr;
  const char *LineStart = nullptr;
  uint32_t Line = 1;
  /// Error-token texts. A deque never moves its elements, so the views
  /// into them survive later insertions and moves of the lexer.
  std::deque<std::string> Messages;
};

} // namespace csc

#endif // CSC_FRONTEND_LEXER_H
