//===- JsonParse.h - Minimal JSON parser ------------------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON reader — the counterpart of the
/// JsonWriter in Json.h — used by the batch executor to load
/// `--batch <manifest.json>` files. Parses a complete document into a
/// JsonValue tree; object members keep their insertion order. Numbers are
/// stored as double (the manifests carry no 64-bit-precision integers);
/// \uXXXX escapes outside ASCII are preserved as-is rather than decoded
/// (manifest content is file paths and spec strings).
///
//===----------------------------------------------------------------------===//

#ifndef CSC_SUPPORT_JSONPARSE_H
#define CSC_SUPPORT_JSONPARSE_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace csc {

/// One parsed JSON value; a tagged union over the six JSON kinds.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj; ///< In file order.

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Member \p Key of an object, or null if absent (or not an object).
  const JsonValue *get(std::string_view Key) const {
    for (const auto &[MemberKey, V] : Obj)
      if (MemberKey == Key)
        return &V;
    return nullptr;
  }
};

/// Parses \p Text as one JSON document (trailing whitespace allowed,
/// trailing content not). Returns false with a "line N: ..." message in
/// \p Error on malformed input. Container nesting is capped (256 levels)
/// so pathological documents fail cleanly instead of overflowing the
/// stack.
bool parseJson(std::string_view Text, JsonValue &Out, std::string &Error);

} // namespace csc

#endif // CSC_SUPPORT_JSONPARSE_H
