//===- Report.h - JSON serialization of analysis runs -----------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-readable reports: serializes metrics, solver statistics, phase
/// timings, whole analysis runs and points-to answers to JSON. Shared by
/// the cscpta driver, the analysis server and the bench harnesses' --json
/// output.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_CLIENT_REPORT_H
#define CSC_CLIENT_REPORT_H

#include "client/AnalysisSession.h"
#include "support/Json.h"

#include <string>

namespace csc {

/// Appends {"fail_casts":..,"reach_methods":..,...} (one object).
/// Thread-safe for distinct writers (all functions here only touch the
/// passed-in JsonWriter and read the run).
void appendMetricsJson(JsonWriter &J, const PrecisionMetrics &M);

/// Appends the solver work counters (one object).
void appendStatsJson(JsonWriter &J, const SolverStats &S);

/// Appends one run as an object: name, status, timings, and — when the
/// run completed — metrics, stats, and per-analysis extras (cut/shortcut
/// statistics, Zipper selection size). With \p IncludeTimings false the
/// wall-clock fields (and the cache flag) are omitted, making the output
/// a pure function of (program, spec, budgets) as long as the run's
/// outcome is deterministic (work budgets are; wall-clock budgets can
/// flip boundary runs) — the batch executor relies on this for its
/// byte-identical-across---jobs aggregate reports and cached-result
/// reuse.
void appendRunJson(JsonWriter &J, const AnalysisRun &Run,
                   bool IncludeTimings = true);

/// Appends a program summary object (classes/methods/stmts/...).
void appendProgramSummaryJson(JsonWriter &J, const Program &P);

/// Appends the member "objects": [{"obj":id,"type":name},...] for a
/// points-to set — the answer shape of `cscpta --points-to` and of the
/// server's points-to query.
void appendObjectsJson(JsonWriter &J, const Program &P,
                       const PointsToSet &Pts);

/// One run as a standalone JSON document (timings included).
std::string runJson(const AnalysisRun &Run);

} // namespace csc

#endif // CSC_CLIENT_REPORT_H
