//===- Lexer.cpp - Tokenizer for the .jir textual IR ----------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

using namespace csc;

namespace {

/// What a byte can begin.
enum class Lead : uint8_t { Other, Space, Newline, Slash, Ident, Colon, Punct };

/// Per-byte tables, so the hot loop tests one entry per byte.
struct CharTable {
  Lead Leads[256] = {};
  bool IdentChar[256] = {};
  /// The kind of a one-byte punctuation token (Lead::Punct bytes only).
  TokKind Punct[256] = {};

  constexpr void punct(char C, TokKind K) {
    Leads[static_cast<unsigned char>(C)] = Lead::Punct;
    Punct[static_cast<unsigned char>(C)] = K;
  }

  constexpr CharTable() {
    for (int C = 0; C < 256; ++C) {
      bool IdentStart = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                        C == '_' || C == '$' || C == '<' || C == '>';
      IdentChar[C] = IdentStart || (C >= '0' && C <= '9');
      Leads[C] = IdentStart ? Lead::Ident : Lead::Other;
    }
    Leads[' '] = Leads['\t'] = Leads['\r'] = Lead::Space;
    Leads['\n'] = Lead::Newline;
    Leads['/'] = Lead::Slash;
    Leads[':'] = Lead::Colon;
    punct('{', TokKind::LBrace);
    punct('}', TokKind::RBrace);
    punct('(', TokKind::LParen);
    punct(')', TokKind::RParen);
    punct('[', TokKind::LBracket);
    punct(']', TokKind::RBracket);
    punct(',', TokKind::Comma);
    punct(';', TokKind::Semi);
    punct('.', TokKind::Dot);
    punct('=', TokKind::Eq);
    punct('?', TokKind::Question);
    punct('*', TokKind::Star);
  }
};

constexpr CharTable Chars;

} // namespace

Token Lexer::error(std::string Msg, uint32_t L, uint32_t C) {
  Messages.push_back(std::move(Msg));
  return {TokKind::Error, L, C, Messages.back()};
}

Token Lexer::next() {
  auto byte = [](const char *At) { return static_cast<unsigned char>(*At); };
  auto token = [&](TokKind K, const char *Start, size_t Len) {
    return Token{K, Line, col(Start), std::string_view(Start, Len)};
  };

  while (P != End) {
    switch (Chars.Leads[byte(P)]) {
    case Lead::Space:
      ++P;
      break;
    case Lead::Newline:
      ++Line;
      LineStart = ++P;
      break;
    case Lead::Ident: {
      const char *Start = P;
      while (++P != End && Chars.IdentChar[byte(P)])
        ;
      return token(TokKind::Ident, Start, P - Start);
    }
    case Lead::Punct:
      ++P;
      return token(Chars.Punct[byte(P - 1)], P - 1, 1);
    case Lead::Colon:
      if (P + 1 != End && P[1] == ':') {
        P += 2;
        return token(TokKind::ColonColon, P - 2, 2);
      }
      ++P;
      return token(TokKind::Colon, P - 1, 1);
    case Lead::Slash:
      if (P + 1 != End && P[1] == '/') {
        while (P != End && *P != '\n')
          ++P;
        break;
      }
      if (P + 1 != End && P[1] == '*') {
        uint32_t StartLine = Line, StartCol = col(P);
        P += 2;
        while (P + 1 < End && !(P[0] == '*' && P[1] == '/')) {
          if (*P == '\n') {
            ++Line;
            LineStart = P + 1;
          }
          ++P;
        }
        if (P + 1 < End) {
          P += 2;
          break;
        }
        P = End;
        return error("unterminated block comment", StartLine, StartCol);
      }
      [[fallthrough]];
    case Lead::Other:
      ++P;
      return error(std::string("unexpected character '") + P[-1] + "'", Line,
                   col(P - 1));
    }
  }
  return token(TokKind::Eof, End, 0);
}
