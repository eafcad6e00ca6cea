//===- AnalysisNames.h - Kind enum and its one name table -------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis-kind enum of the evaluation and the single kind<->name
/// table shared by analysisName() and the registry's built-in registrations
/// (canonical names and aliases) — so the enum and the strings can never
/// drift.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_CLIENT_ANALYSISNAMES_H
#define CSC_CLIENT_ANALYSISNAMES_H

#include <cstddef>

namespace csc {

enum class AnalysisKind { CI, CSC, ZipperE, TwoObj, TwoType, TwoCallSite };

/// One row of the kind<->name table: the canonical spec name, accepted
/// aliases (all matched case-insensitively), and the registry description
/// — everything about a kind lives in this one row.
struct AnalysisNameEntry {
  AnalysisKind Kind;
  const char *Canonical;
  const char *Aliases[3]; ///< Null-terminated; fewer than 3 allowed.
  const char *Description;
};

/// The shared table, in enum order.
const AnalysisNameEntry *analysisNameTable(size_t &Count);

/// Canonical spec name of a kind ("ci", "csc", "zipper-e", "2obj",
/// "2type", "2cs").
const char *analysisName(AnalysisKind K);

} // namespace csc

#endif // CSC_CLIENT_ANALYSISNAMES_H
