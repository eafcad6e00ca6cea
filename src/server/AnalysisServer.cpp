//===- AnalysisServer.cpp - Long-lived NDJSON analysis service ------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "server/AnalysisServer.h"

#include "client/Report.h"
#include "frontend/Parser.h"
#include "ir/Verifier.h"
#include "stdlib/Stdlib.h"
#include "store/ResultStore.h"
#include "support/Json.h"

#include <cassert>
#include <istream>
#include <ostream>

using namespace csc;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

namespace {

std::string errorResponse(const std::string &Msg) {
  JsonWriter W;
  W.beginObject().kv("ok", false).kv("error", Msg).endObject();
  return W.take();
}

/// Fetches a required string member; null with a pinned diagnostic.
const std::string *stringField(const JsonValue &Req, const char *Key,
                               std::string &Error) {
  const JsonValue *V = Req.get(Key);
  if (!V || !V->isString()) {
    Error = std::string("missing or non-string '") + Key + "'";
    return nullptr;
  }
  return &V->Str;
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction / loading
//===----------------------------------------------------------------------===//

AnalysisServer::AnalysisServer() : AnalysisServer(Options()) {}
AnalysisServer::AnalysisServer(Options O) : Opts(std::move(O)) {}
AnalysisServer::~AnalysisServer() = default;

bool AnalysisServer::load(
    const std::vector<std::pair<std::string, std::string>> &NamedSources,
    std::vector<std::string> &Diags) {
  auto NewProg = std::make_unique<Program>();
  std::vector<std::pair<std::string, std::string>> All;
  if (Opts.WithStdlib)
    All.emplace_back("<stdlib>", stdlibSource());
  All.insert(All.end(), NamedSources.begin(), NamedSources.end());
  if (!parseProgram(*NewProg, All, Diags) ||
      !verifyRunnable(*NewProg, Diags))
    return false;
  Prog = std::move(NewProg);
  Specs.clear();
  Version = 1;
  Deltas = 0;
  return true;
}

bool AnalysisServer::loadFiles(const std::vector<std::string> &Paths,
                               std::vector<std::string> &Diags) {
  std::vector<std::pair<std::string, std::string>> Named;
  return readSourceFiles(Paths, Named, Diags) && load(Named, Diags);
}

//===----------------------------------------------------------------------===//
// Per-spec resident state
//===----------------------------------------------------------------------===//

AnalysisServer::SpecState *
AnalysisServer::specState(const std::string &SpecText, std::string &Error) {
  SpecState St;
  if (!AnalysisRegistry::global().build(SpecText, St.Recipe, Error))
    return nullptr;
  auto It = Specs.find(St.Recipe.Canonical);
  if (It != Specs.end())
    return &It->second;

  if (IncrementalSolver::eligible(St.Recipe)) {
    IncrementalSolver::Options IOpts;
    IOpts.WorkBudget = Opts.WorkBudget;
    IOpts.TimeBudgetMs = Opts.TimeBudgetMs;
    St.Inc = std::make_unique<IncrementalSolver>(*Prog, St.Recipe, IOpts);
  }
  std::string Key = St.Recipe.Canonical;
  return &Specs.emplace(std::move(Key), std::move(St)).first->second;
}

//===----------------------------------------------------------------------===//
// query
//===----------------------------------------------------------------------===//

std::string AnalysisServer::handleQuery(const JsonValue &Req) {
  std::string Error;
  const std::string *Kind = stringField(Req, "kind", Error);
  if (!Kind)
    return errorResponse(Error);
  bool IsPointsTo = *Kind == "points-to";
  bool IsMayAlias = *Kind == "may-alias";
  bool IsCallees = *Kind == "callees";
  if (!IsPointsTo && !IsMayAlias && !IsCallees)
    return errorResponse("unknown query kind '" + *Kind + "'");

  std::string SpecText = Opts.DefaultSpec;
  if (const JsonValue *V = Req.get("spec")) {
    if (!V->isString())
      return errorResponse("missing or non-string 'spec'");
    SpecText = V->Str;
  }
  std::string Mode = "auto";
  if (const JsonValue *V = Req.get("mode")) {
    if (!V->isString())
      return errorResponse("missing or non-string 'mode'");
    Mode = V->Str;
  }
  if (Mode != "auto" && Mode != "full")
    return errorResponse("unknown query mode '" + Mode + "'");

  // Resolve names before solving anything.
  VarId QueryVar = InvalidId, AliasA = InvalidId, AliasB = InvalidId;
  MethodId QueryMethod = InvalidId;
  std::string VarName, AName, BName, MethodName;
  if (IsPointsTo) {
    const std::string *S = stringField(Req, "var", Error);
    if (!S)
      return errorResponse(Error);
    VarName = *S;
    QueryVar = Prog->varByName(VarName);
    if (QueryVar == InvalidId)
      return errorResponse("unknown variable '" + VarName + "'");
  } else if (IsMayAlias) {
    const std::string *A = stringField(Req, "a", Error);
    if (!A)
      return errorResponse(Error);
    const std::string *B = stringField(Req, "b", Error);
    if (!B)
      return errorResponse(Error);
    AName = *A;
    BName = *B;
    AliasA = Prog->varByName(AName);
    if (AliasA == InvalidId)
      return errorResponse("unknown variable '" + AName + "'");
    AliasB = Prog->varByName(BName);
    if (AliasB == InvalidId)
      return errorResponse("unknown variable '" + BName + "'");
  } else {
    const std::string *S = stringField(Req, "method", Error);
    if (!S)
      return errorResponse(Error);
    MethodName = *S;
    QueryMethod = Prog->methodByName(MethodName);
    if (QueryMethod == InvalidId)
      return errorResponse("unknown method '" + MethodName + "'");
  }

  SpecState *St = specState(SpecText, Error);
  if (!St)
    return errorResponse(Error);
  const std::string &Canonical = St->Recipe.Canonical;

  // Mode resolution. A "full" query makes the spec's fixpoint resident,
  // and from then on every query keeps it current by warm resume. Until
  // then "auto" answers from one from-scratch run per program version, as
  // csc and zipper-e always do: a session that never asks "full" holds no
  // solver between requests.
  bool Resident = St->Inc && (Mode == "full" || St->Inc->fullSolves() > 0);

  const PTAResult *R = nullptr;
  bool WarmStart = false;
  if (Resident) {
    if (St->RunVersion != 0) { // superseded by the resident fixpoint
      St->Run = AnalysisRun();
      St->RunVersion = 0;
    }
    R = &St->Inc->ensureCurrent();
    WarmStart = St->Inc->lastWasWarm();
  } else {
    if (St->RunVersion != Version) {
      // Release the previous version's result before solving this one,
      // so the two never coexist.
      St->Run = AnalysisRun();
      AnalysisSession::Options SOpts;
      SOpts.WithStdlib = Opts.WithStdlib;
      SOpts.WorkBudget = Opts.WorkBudget;
      SOpts.TimeBudgetMs = Opts.TimeBudgetMs;
      AnalysisSession Sess(*Prog, SOpts);
      // The persistent store holds results of the loaded program only
      // (see Options::Store): a batch, a single run or an earlier server
      // session over it may already hold this exact result.
      ResultStore *Store = Version == 1 ? Opts.Store.get() : nullptr;
      if (Store) {
        ResultKeys Keys(Sess);
        ResultKeys::Outcome Out =
            Keys.lookupOrRun(Sess, Store, SpecText, Keys.key(St->Recipe));
        St->Run = std::move(Out.Run);
        St->FullRuns += !Out.Served;
      } else {
        St->Run = Sess.run(St->Recipe);
        ++St->FullRuns;
      }
      St->RunVersion = Version;
    }
    if (St->Run.Status != RunStatus::Completed)
      return errorResponse("analysis budget exhausted");
    R = &St->Run.Result;
  }
  if (R->Exhausted)
    return errorResponse("analysis budget exhausted");

  JsonWriter W;
  W.beginObject()
      .kv("ok", true)
      .kv("op", "query")
      .kv("kind", *Kind)
      .kv("spec", Canonical);
  if (IsPointsTo) {
    W.kv("var", VarName);
    const PointsToSet &Pts = R->pt(QueryVar);
    W.kv("size", static_cast<uint64_t>(Pts.size()));
    appendObjectsJson(W, *Prog, Pts);
  } else if (IsMayAlias) {
    W.kv("a", AName).kv("b", BName).kv("alias", R->mayAlias(AliasA, AliasB));
  } else {
    W.kv("method", MethodName)
        .kv("reachable", R->isReachable(QueryMethod));
    W.key("sites").beginArray();
    for (StmtId SId : Prog->method(QueryMethod).AllStmts) {
      const Stmt &S = Prog->stmt(SId);
      if (S.Kind != StmtKind::Invoke)
        continue;
      W.beginObject().kv("line", S.Line).key("callees").beginArray();
      for (MethodId Callee : R->calleesOf(S.CallSite))
        W.value(Prog->methodString(Callee));
      W.endArray().endObject();
    }
    W.endArray();
  }

  // Diagnostics: session version, warm start, timing. Everything in here
  // may legitimately differ between a warm resume, a per-version run and
  // a cold oracle run — CI strips it (with timings) before diffing answers.
  W.key("meta")
      .beginObject()
      .kv("version", Version)
      .kv("warm_start", WarmStart)
      .kv("time_ms", Resident ? R->TimeMs : St->Run.Timings.TotalMs)
      .endObject()
      .endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// add-delta
//===----------------------------------------------------------------------===//

std::string AnalysisServer::handleAddDelta(const JsonValue &Req) {
  std::string Error;
  const std::string *Source = stringField(Req, "source", Error);
  if (!Source)
    return errorResponse(Error);
  std::string Name = "<delta-" + std::to_string(Deltas + 1) + ">";
  if (const JsonValue *V = Req.get("name")) {
    if (!V->isString())
      return errorResponse("missing or non-string 'name'");
    Name = V->Str;
  }

  uint32_t OldTypes = Prog->numTypes();
  uint32_t OldMethods = Prog->numMethods();
  uint32_t OldStmts = Prog->numStmts();
  // Parse into the live program, keeping a copy to restore if the delta
  // is rejected. Requests are served one at a time on this thread, and
  // solvers borrow the Program object (which keeps its address) and hold
  // only ids into it, so none of them sees the state in between. The live
  // tables grow in place: moving a parsed copy in instead would free them
  // on every delta and fragment the heap, which raises a long session's
  // peak RSS.
  Program Backup = *Prog;
  std::vector<std::string> Errs;
  {
    Parser LP(*Prog);
    if (!LP.parseSource(*Source, Name) || !LP.finalize())
      Errs = LP.diagnostics();
    else
      for (const std::string &E : verifyProgram(*Prog))
        Errs.push_back("verifier: " + E);
  }
  if (!Errs.empty()) {
    *Prog = std::move(Backup);
    JsonWriter W;
    W.beginObject().kv("ok", false).kv("error", "delta rejected");
    W.key("errors").beginArray();
    for (const std::string &E : Errs)
      W.value(E);
    W.endArray().endObject();
    return W.take();
  }

  // Monotonicity classification: a new method on a pre-existing class can
  // change dispatch for objects already flowing through the fixpoint —
  // the retained solution is no longer a valid starting point. Methods
  // owned by types the delta itself introduced cannot be dispatch targets
  // of any pre-delta points-to fact.
  bool Warm = true;
  for (MethodId M = OldMethods; M < Prog->numMethods(); ++M)
    if (Prog->method(M).Owner < OldTypes)
      Warm = false;

  ++Version;
  ++Deltas;
  for (auto &[Key, St] : Specs)
    if (St.Inc)
      St.Inc->noteDelta(Warm);

  JsonWriter W;
  W.beginObject()
      .kv("ok", true)
      .kv("op", "add-delta")
      .kv("name", Name)
      .kv("version", Version)
      .kv("warm_start", Warm)
      .kv("new_types", Prog->numTypes() - OldTypes)
      .kv("new_methods", Prog->numMethods() - OldMethods)
      .kv("new_stmts", Prog->numStmts() - OldStmts)
      .endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// stats / dispatch / serve
//===----------------------------------------------------------------------===//

std::string AnalysisServer::handleStats() {
  JsonWriter W;
  W.beginObject()
      .kv("ok", true)
      .kv("op", "stats")
      .kv("version", Version)
      .kv("deltas", Deltas);
  W.key("program")
      .beginObject()
      .kv("types", Prog->numTypes())
      .kv("methods", Prog->numMethods())
      .kv("vars", Prog->numVars())
      .kv("stmts", Prog->numStmts())
      .kv("call_sites", Prog->numCallSites())
      .endObject();
  W.key("specs").beginArray();
  for (const auto &[Key, St] : Specs) {
    // full_solves counts every from-scratch solve: per-version runs plus
    // the resident solver's cold solves.
    W.beginObject()
        .kv("spec", Key)
        .kv("incremental", St.Inc != nullptr)
        .kv("full_solves",
            St.FullRuns + (St.Inc ? St.Inc->fullSolves() : 0));
    if (St.Inc)
      W.kv("warm_resumes", St.Inc->warmResumes());
    W.kv("current", (St.Inc && St.Inc->current()) || St.RunVersion == Version)
        .endObject();
  }
  W.endArray();
  if (Opts.Store) {
    ResultStore::Counters C = Opts.Store->counters();
    W.key("store")
        .beginObject()
        .kv("hits", C.Hits)
        .kv("misses", C.Misses)
        .kv("publishes", C.Publishes)
        .kv("corrupt_evictions", C.CorruptEvictions)
        .kv("gc_evictions", C.GcEvictions)
        .endObject();
  }
  W.endObject();
  return W.take();
}

std::string AnalysisServer::handleLine(const std::string &Line,
                                       bool *Shutdown) {
  assert(Prog && "handleLine before load()");
  JsonValue Req;
  std::string Error;
  if (!parseJson(Line, Req, Error))
    return errorResponse("parse error: " + Error);
  if (!Req.isObject())
    return errorResponse("request is not a JSON object");
  std::string OpError;
  const std::string *Op = stringField(Req, "op", OpError);
  if (!Op)
    return errorResponse(OpError);
  if (*Op == "query")
    return handleQuery(Req);
  if (*Op == "add-delta")
    return handleAddDelta(Req);
  if (*Op == "stats")
    return handleStats();
  if (*Op == "shutdown") {
    if (Shutdown)
      *Shutdown = true;
    JsonWriter W;
    W.beginObject().kv("ok", true).kv("op", "shutdown").endObject();
    return W.take();
  }
  return errorResponse("unknown op '" + *Op + "'");
}

int AnalysisServer::serve(std::istream &In, std::ostream &Out) {
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    bool Shutdown = false;
    Out << handleLine(Line, &Shutdown) << "\n" << std::flush;
    if (Shutdown)
      break;
  }
  return 0;
}
