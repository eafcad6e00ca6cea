//===- Zipper.h - Selective context sensitivity (Zipper-e) ------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reimplementation, in spirit, of Zipper-e [Li et al. 2020a], the
/// state-of-the-art selective context-sensitivity baseline the paper
/// compares against (§5.3). Zipper-e consists of:
///
///  1. a context-insensitive pre-analysis — the program's ci fixpoint,
///     which the caller supplies (AnalysisSession solves it at most once
///     per session and shares it across zipper-e runs),
///  2. a selection phase that finds "precision-critical" classes — classes
///     exhibiting IN→OUT object flows through their methods (direct
///     parameter-to-return flow, wrapped flow through a field store, or
///     unwrapped flow through a field load) — and selects their methods,
///  3. an efficiency guard that unselects classes whose estimated
///     context-sensitive cost threatens scalability,
///  4. a main analysis applying k-object sensitivity only to the selected
///     methods.
///
/// The exact flow-graph construction of the original differs in detail;
/// this version preserves the architecture (pre-analysis → per-class
/// IN/OUT flow detection → cost guard → selective main analysis) and the
/// efficiency/precision trade-off position the paper reports: more
/// precise than CI, cheaper than 2obj, slower than Cut-Shortcut.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_ZIPPER_ZIPPER_H
#define CSC_ZIPPER_ZIPPER_H

#include "ir/Program.h"
#include "pta/PTAResult.h"

#include <unordered_set>

namespace csc {

struct ZipperOptions {
  /// Classes whose estimated cost exceeds this fraction of the whole
  /// program's points-to volume are unselected (the "e" in Zipper-e).
  double CostFraction = 0.5;
  /// Classes below this absolute cost are never unselected; keeps the
  /// guard from firing on small programs where every class is a large
  /// fraction of a tiny total.
  uint64_t MinCostFloor = 10000;
};

struct ZipperSelection {
  std::unordered_set<MethodId> Selected;
  uint32_t CriticalClasses = 0;
  uint32_t UnselectedByCostGuard = 0;
};

/// Computes the method selection from \p CI, the context-insensitive
/// result of \p P. A pure function: it reads only CI's reachable methods
/// and variable points-to sets.
ZipperSelection runZipperSelection(const Program &P, const PTAResult &CI,
                                   const ZipperOptions &Opts = {});

} // namespace csc

#endif // CSC_ZIPPER_ZIPPER_H
