//===- Report.cpp - JSON serialization of analysis runs -------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "client/Report.h"

using namespace csc;

void csc::appendMetricsJson(JsonWriter &J, const PrecisionMetrics &M) {
  J.beginObject()
      .kv("fail_casts", M.FailCasts)
      .kv("reach_methods", M.ReachMethods)
      .kv("poly_calls", M.PolyCalls)
      .kv("call_edges", M.CallEdges)
      .endObject();
}

void csc::appendStatsJson(JsonWriter &J, const SolverStats &S) {
  // Only fixpoint-determined counters are serialized: the report must be
  // a pure function of the computed result, byte-identical across solver
  // scheduling choices (worklist order, cycle elimination on/off).
  // Scheduling diagnostics — WorklistPops, the SccStats block — are
  // surfaced via `cscpta --stats` instead.
  J.beginObject()
      .kv("pts_insertions", S.PtsInsertions)
      .kv("pfg_edges", S.PFGEdges)
      .kv("call_edges_cs", S.CallEdgesCS)
      .kv("pointers", S.NumPtrs)
      .kv("cs_objects", S.NumCSObjs)
      .kv("contexts", S.NumContexts)
      .kv("reachable_cs", S.ReachableCS)
      .kv("reachable_ci", S.ReachableCI)
      .endObject();
}

void csc::appendRunJson(JsonWriter &J, const AnalysisRun &Run,
                        bool IncludeTimings) {
  J.beginObject();
  J.kv("analysis", Run.Name);
  J.kv("status", runStatusName(Run.Status));
  if (Run.Status == RunStatus::SpecError) {
    J.kv("error", Run.Error);
    J.endObject();
    return;
  }
  if (IncludeTimings)
    J.key("timings")
        .beginObject()
        .kv("pre_ms", Run.Timings.PreMs)
        .kv("main_ms", Run.Timings.MainMs)
        .kv("total_ms", Run.Timings.TotalMs)
        .kv("pre_from_cache", Run.PreFromCache)
        .endObject();
  if (Run.completed()) {
    J.key("metrics");
    appendMetricsJson(J, Run.Metrics);
    J.key("stats");
    appendStatsJson(J, Run.Result.Stats);
  }
  if (Run.Csc.CutStores || Run.Csc.CutReturns || Run.Csc.ShortcutEdges)
    J.key("cut_shortcut")
        .beginObject()
        .kv("cut_stores", Run.Csc.CutStores)
        .kv("cut_returns", Run.Csc.CutReturns)
        .kv("shortcut_edges", Run.Csc.ShortcutEdges)
        .kv("involved_methods", static_cast<uint64_t>(Run.Csc.Involved.size()))
        .endObject();
  if (Run.SelectedMethods)
    J.key("zipper")
        .beginObject()
        .kv("selected_methods", Run.SelectedMethods)
        .endObject();
  J.endObject();
}

void csc::appendProgramSummaryJson(JsonWriter &J, const Program &P) {
  J.beginObject()
      .kv("classes", P.numTypes())
      .kv("fields", P.numFields())
      .kv("methods", P.numMethods())
      .kv("vars", P.numVars())
      .kv("stmts", P.numStmts())
      .kv("alloc_sites", P.numObjs())
      .kv("call_sites", P.numCallSites())
      .endObject();
}

void csc::appendObjectsJson(JsonWriter &J, const Program &P,
                            const PointsToSet &Pts) {
  J.key("objects").beginArray();
  Pts.forEach([&](ObjId O) {
    J.beginObject()
        .kv("obj", O)
        .kv("type", P.type(P.obj(O).Type).Name)
        .endObject();
  });
  J.endArray();
}

std::string csc::runJson(const AnalysisRun &Run) {
  JsonWriter J;
  appendRunJson(J, Run);
  return J.take();
}
