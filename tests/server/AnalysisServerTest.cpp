//===- AnalysisServerTest.cpp - NDJSON protocol & answer identity ---------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
//
// The analysis server's request/response protocol: query answers across
// modes (per-version run, resident warm resume) must be
// byte-identical outside the "meta" object to a fresh oracle server that
// loaded the post-delta program from scratch — the contract CI's server
// smoke job diffs. Also pins delta classification (warm vs full), the
// rejected-delta transaction guarantee, the stats document, the serve()
// loop, and the exact error diagnostics documented in docs/CLI.md.
//
//===----------------------------------------------------------------------===//

#include "server/AnalysisServer.h"

#include "TestUtil.h"
#include "ir/Printer.h"
#include "store/ResultStore.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace csc;
using csc::test::figure1Source;

namespace {

// Grows figure1: a fresh class plus appended entry statements routing a
// third Item through it. Additive and dispatch-preserving (warm).
const char *WarmDelta =
    "class Crate {\n"
    "  field it: Item;\n"
    "  method put(i: Item): Item {\n"
    "    var r: Item;\n"
    "    this.it = i;\n"
    "    r = this.it;\n"
    "    return r;\n"
    "  }\n"
    "}\n"
    "extend class Main {\n"
    "  append method main {\n"
    "    var k1: Crate;\n"
    "    var i3: Item;\n"
    "    var got: Item;\n"
    "    k1 = new Crate;\n"
    "    i3 = new Item;\n"
    "    got = call k1.put(i3);\n"
    "    call c1.setItem(i3);\n"
    "  }\n"
    "}\n";

// A new method on the pre-existing Carton: dispatch-changing, not warm.
const char *DispatchDelta = "extend class Carton {\n"
                            "  method wipe(): void {\n"
                            "  }\n"
                            "}\n";

std::unique_ptr<AnalysisServer>
makeServer(const std::vector<std::pair<std::string, std::string>> &Sources,
           AnalysisServer::Options Opts = {}) {
  auto S = std::make_unique<AnalysisServer>(std::move(Opts));
  std::vector<std::string> Diags;
  if (!S->load(Sources, Diags)) {
    for (const std::string &D : Diags)
      ADD_FAILURE() << D;
    return nullptr;
  }
  return S;
}

JsonValue parsed(const std::string &Response) {
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(parseJson(Response, V, Error))
      << Error << " in: " << Response;
  return V;
}

bool okOf(const JsonValue &V) {
  const JsonValue *Ok = V.get("ok");
  return Ok && Ok->isBool() && Ok->B;
}

std::string errorOf(const JsonValue &V) {
  const JsonValue *E = V.get("error");
  return E && E->isString() ? E->Str : "";
}

/// The member names of a JSON object, in order.
std::vector<std::string> keysOf(const JsonValue &V) {
  std::vector<std::string> Keys;
  for (const auto &[Key, Member] : V.Obj)
    Keys.push_back(Key);
  return Keys;
}

/// The members of a stats entry for an incremental-eligible spec: the
/// from-scratch solve count, warm resumes and currency, nothing else.
const std::vector<std::string> IncrementalSpecKeys = {
    "spec", "incremental", "full_solves", "warm_resumes", "current"};

/// Drops the trailing "meta" member — the diagnostics CI strips before
/// diffing answers (meta is always the last member of a query response).
std::string stripMeta(const std::string &Response) {
  size_t Pos = Response.find(",\"meta\":");
  if (Pos == std::string::npos)
    return Response;
  return Response.substr(0, Pos) + "}";
}

} // namespace

//===----------------------------------------------------------------------===//
// Query answers and modes
//===----------------------------------------------------------------------===//

TEST(AnalysisServerTest, PointsToAnswersAgreeAcrossModes) {
  auto S = makeServer({{"fig.jir", figure1Source()}});
  ASSERT_NE(S, nullptr);
  // An "auto" query on a spec never queried "full" is answered from the
  // per-version run; meta says only version, warm start and time.
  std::string Auto = S->handleLine(
      R"({"op":"query","kind":"points-to","var":"Main.main.result1"})");
  JsonValue AutoV = parsed(Auto);
  ASSERT_TRUE(okOf(AutoV)) << Auto;
  const JsonValue *Meta = AutoV.get("meta");
  ASSERT_TRUE(Meta && Meta->isObject());
  ASSERT_EQ(keysOf(*Meta),
            (std::vector<std::string>{"version", "warm_start", "time_ms"}));
  EXPECT_EQ(Meta->get("version")->Num, 1);
  EXPECT_FALSE(Meta->get("warm_start")->B);
  EXPECT_EQ(AutoV.get("spec")->Str, "ci");
  EXPECT_EQ(AutoV.get("size")->Num, 2); // ci merges both cartons' items
  EXPECT_EQ(AutoV.get("objects")->Arr.size(), 2u);
  EXPECT_EQ(AutoV.get("objects")->Arr[0].get("type")->Str, "Item");

  std::string Full = S->handleLine(
      R"({"op":"query","kind":"points-to","var":"Main.main.result1","mode":"full"})");
  EXPECT_EQ(parsed(Full).get("meta")->get("mode"), nullptr);
  EXPECT_EQ(stripMeta(Auto), stripMeta(Full));

  // Context-sensitive specs answer through the same machinery, precisely.
  std::string Cs = S->handleLine(
      R"({"op":"query","kind":"points-to","var":"Main.main.result1","spec":"2obj"})");
  JsonValue CsV = parsed(Cs);
  ASSERT_TRUE(okOf(CsV)) << Cs;
  EXPECT_EQ(CsV.get("spec")->Str, "2obj");
  EXPECT_EQ(CsV.get("size")->Num, 1);
}

TEST(AnalysisServerTest, MayAliasAndCalleesQueries) {
  auto S = makeServer({{"fig.jir", figure1Source()}});
  ASSERT_NE(S, nullptr);
  JsonValue A = parsed(S->handleLine(
      R"({"op":"query","kind":"may-alias","a":"Main.main.result1","b":"Main.main.item1"})"));
  ASSERT_TRUE(okOf(A));
  EXPECT_TRUE(A.get("alias")->B); // ci: result1 ⊇ {item1, item2}
  JsonValue B = parsed(S->handleLine(
      R"({"op":"query","kind":"may-alias","a":"Main.main.c1","b":"Main.main.item1"})"));
  ASSERT_TRUE(okOf(B));
  EXPECT_FALSE(B.get("alias")->B); // a Carton is never an Item

  JsonValue C = parsed(S->handleLine(
      R"({"op":"query","kind":"callees","method":"Main.main"})"));
  ASSERT_TRUE(okOf(C));
  EXPECT_TRUE(C.get("reachable")->B);
  const JsonValue *Sites = C.get("sites");
  ASSERT_TRUE(Sites && Sites->isArray());
  ASSERT_EQ(Sites->Arr.size(), 4u); // four call sites in main
  for (const JsonValue &Site : Sites->Arr) {
    ASSERT_EQ(Site.get("callees")->Arr.size(), 1u);
    const std::string &Callee = Site.get("callees")->Arr[0].Str;
    EXPECT_TRUE(Callee == "Carton.setItem/1" ||
                Callee == "Carton.getItem/0")
        << Callee;
  }
}

//===----------------------------------------------------------------------===//
// add-delta: classification, transactionality, answer identity
//===----------------------------------------------------------------------===//

TEST(AnalysisServerTest, AdditiveDeltaWarmStartsAndMatchesOracle) {
  auto Warm = makeServer({{"fig.jir", figure1Source()}});
  ASSERT_NE(Warm, nullptr);
  // Solve fully first so the post-delta query exercises the warm resume
  // (a spec never queried "full" would run from scratch instead).
  for (const char *Spec : {"ci", "2obj"}) {
    std::string Line =
        std::string(R"({"op":"query","kind":"points-to",)") +
        R"("var":"Main.main.result1","mode":"full","spec":")" + Spec +
        R"("})";
    ASSERT_TRUE(okOf(parsed(Warm->handleLine(Line))));
  }

  std::string DeltaReq = R"({"op":"add-delta","name":"d1","source":")";
  {
    JsonWriter W; // JSON-escape the delta source through the writer
    W.beginObject()
        .kv("op", "add-delta")
        .kv("name", "d1")
        .kv("source", WarmDelta)
        .endObject();
    DeltaReq = W.take();
  }
  JsonValue D = parsed(Warm->handleLine(DeltaReq));
  ASSERT_TRUE(okOf(D));
  EXPECT_EQ(D.get("version")->Num, 2);
  EXPECT_TRUE(D.get("warm_start")->B);
  EXPECT_EQ(D.get("new_types")->Num, 1);
  EXPECT_EQ(D.get("new_methods")->Num, 1);
  EXPECT_GT(D.get("new_stmts")->Num, 0);
  EXPECT_EQ(Warm->version(), 2u);

  // Oracle: a fresh server that loaded base + delta from scratch.
  auto Oracle =
      makeServer({{"fig.jir", figure1Source()}, {"d1", WarmDelta}});
  ASSERT_NE(Oracle, nullptr);

  const char *Queries[] = {
      // result1 now also sees i3 through the appended setItem call.
      R"({"op":"query","kind":"points-to","var":"Main.main.result1"})",
      R"({"op":"query","kind":"points-to","var":"Main.main.got","spec":"2obj"})",
      R"({"op":"query","kind":"may-alias","a":"Main.main.got","b":"Main.main.i3"})",
      R"({"op":"query","kind":"callees","method":"Main.main","spec":"2obj"})",
      R"({"op":"query","kind":"callees","method":"Crate.put"})",
  };
  for (const char *Q : Queries) {
    std::string A = Warm->handleLine(Q);
    std::string B = Oracle->handleLine(Q);
    ASSERT_TRUE(okOf(parsed(A))) << A;
    EXPECT_EQ(stripMeta(A), stripMeta(B)) << Q;
  }

  // The ci answer above came from a warm resume, not a re-solve.
  JsonValue R = parsed(Warm->handleLine(
      R"({"op":"query","kind":"points-to","var":"Main.main.result1"})"));
  EXPECT_TRUE(R.get("meta")->get("warm_start")->B);
  EXPECT_EQ(R.get("size")->Num, 3);
}

TEST(AnalysisServerTest, DispatchChangingDeltaForcesFullResolve) {
  auto S = makeServer({{"fig.jir", figure1Source()}});
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(okOf(parsed(S->handleLine(
      R"({"op":"query","kind":"points-to","var":"Main.main.result1","mode":"full"})"))));
  JsonWriter W;
  W.beginObject()
      .kv("op", "add-delta")
      .kv("source", DispatchDelta)
      .endObject();
  JsonValue D = parsed(S->handleLine(W.take()));
  ASSERT_TRUE(okOf(D));
  EXPECT_FALSE(D.get("warm_start")->B);

  JsonValue Q = parsed(S->handleLine(
      R"({"op":"query","kind":"points-to","var":"Main.main.result1"})"));
  ASSERT_TRUE(okOf(Q));
  EXPECT_FALSE(Q.get("meta")->get("warm_start")->B);
  EXPECT_EQ(Q.get("size")->Num, 2);
}

TEST(AnalysisServerTest, RejectedDeltaLeavesTheSessionUntouched) {
  auto S = makeServer({{"fig.jir", figure1Source()}});
  ASSERT_NE(S, nullptr);
  std::string Before = stripMeta(S->handleLine(
      R"({"op":"query","kind":"points-to","var":"Main.main.result1"})"));
  std::string ProgramBefore = printProgram(S->program());

  // References an unknown class: fails the parse. The second delta adds a
  // whole class before it fails, so the parse has grown the program.
  for (const char *Source :
       {"extend class Nope { }",
        "class Fresh { field f: Item; } extend class Nope { }"}) {
    JsonWriter Req;
    Req.beginObject().kv("op", "add-delta").kv("source", Source).endObject();
    JsonValue Bad = parsed(S->handleLine(Req.take()));
    EXPECT_FALSE(okOf(Bad)) << Source;
    EXPECT_EQ(errorOf(Bad), "delta rejected") << Source;
    const JsonValue *Errs = Bad.get("errors");
    ASSERT_TRUE(Errs && Errs->isArray()) << Source;
    EXPECT_FALSE(Errs->Arr.empty()) << Source;
  }

  // Nothing changed: same version, same program, same answers.
  EXPECT_EQ(S->version(), 1u);
  EXPECT_EQ(printProgram(S->program()), ProgramBefore);
  JsonValue Stats = parsed(S->handleLine(R"({"op":"stats"})"));
  EXPECT_EQ(Stats.get("deltas")->Num, 0);
  std::string After = stripMeta(S->handleLine(
      R"({"op":"query","kind":"points-to","var":"Main.main.result1"})"));
  EXPECT_EQ(Before, After);
}

//===----------------------------------------------------------------------===//
// stats, serve loop, budgets
//===----------------------------------------------------------------------===//

TEST(AnalysisServerTest, StatsDocumentTracksSpecsAndSolves) {
  auto S = makeServer({{"fig.jir", figure1Source()}});
  ASSERT_NE(S, nullptr);
  // A per-version run (auto), then a resident solve (full), then a csc
  // run: full_solves counts both of ci's from-scratch solves.
  S->handleLine(
      R"({"op":"query","kind":"points-to","var":"Main.main.result1"})");
  S->handleLine(
      R"({"op":"query","kind":"points-to","var":"Main.main.result1","mode":"full"})");
  S->handleLine(
      R"({"op":"query","kind":"points-to","var":"Main.main.result1","spec":"csc"})");

  JsonValue V = parsed(S->handleLine(R"({"op":"stats"})"));
  ASSERT_TRUE(okOf(V));
  EXPECT_EQ(V.get("version")->Num, 1);
  EXPECT_EQ(V.get("program")->get("stmts")->Num,
            static_cast<double>(S->program().numStmts()));
  const JsonValue *Specs = V.get("specs");
  ASSERT_TRUE(Specs && Specs->isArray());
  ASSERT_EQ(Specs->Arr.size(), 2u); // "ci" and "csc", sorted
  const JsonValue &Ci = Specs->Arr[0];
  EXPECT_EQ(Ci.get("spec")->Str, "ci");
  EXPECT_TRUE(Ci.get("incremental")->B);
  EXPECT_EQ(keysOf(Ci), IncrementalSpecKeys);
  EXPECT_EQ(Ci.get("full_solves")->Num, 2);
  EXPECT_EQ(Ci.get("warm_resumes")->Num, 0);
  EXPECT_TRUE(Ci.get("current")->B);
  const JsonValue &Csc = Specs->Arr[1];
  EXPECT_EQ(Csc.get("spec")->Str, "csc");
  EXPECT_FALSE(Csc.get("incremental")->B);
  EXPECT_EQ(Csc.get("full_solves")->Num, 1);
  EXPECT_TRUE(Csc.get("current")->B);
}

TEST(AnalysisServerTest, AutoQueriesSolveOncePerVersion) {
  // A session that never asks "full" solves ci once per program version,
  // however many queries it asks, and answers exactly as a session whose
  // every query asks "full" (resident solve, then warm resume).
  auto Auto = makeServer({{"fig.jir", figure1Source()}});
  auto Full = makeServer({{"fig.jir", figure1Source()}});
  ASSERT_NE(Auto, nullptr);
  ASSERT_NE(Full, nullptr);
  auto CiSpec = [](AnalysisServer &S) {
    JsonValue V = parsed(S.handleLine(R"({"op":"stats"})"));
    const JsonValue *Specs = V.get("specs");
    EXPECT_TRUE(Specs && Specs->Arr.size() == 1u);
    return Specs && !Specs->Arr.empty() ? Specs->Arr[0] : JsonValue();
  };
  auto Ask = [&](const std::string &Q) {
    std::string A = Auto->handleLine(Q);
    std::string F =
        Full->handleLine(Q.substr(0, Q.size() - 1) + R"(,"mode":"full"})");
    ASSERT_TRUE(okOf(parsed(A))) << A;
    EXPECT_EQ(stripMeta(A), stripMeta(F)) << Q;
  };

  Ask(R"({"op":"query","kind":"points-to","var":"Main.main.result1"})");
  Ask(R"({"op":"query","kind":"points-to","var":"Main.main.result2"})");
  Ask(R"({"op":"query","kind":"may-alias","a":"Main.main.result1","b":"Main.main.result2"})");
  JsonValue Ci = CiSpec(*Auto);
  EXPECT_EQ(Ci.get("full_solves")->Num, 1);
  EXPECT_EQ(keysOf(Ci), IncrementalSpecKeys);

  JsonWriter W;
  W.beginObject().kv("op", "add-delta").kv("source", WarmDelta).endObject();
  std::string Delta = W.take();
  ASSERT_TRUE(okOf(parsed(Auto->handleLine(Delta))));
  ASSERT_TRUE(okOf(parsed(Full->handleLine(Delta))));
  Ask(R"({"op":"query","kind":"points-to","var":"Main.main.got"})");
  Ask(R"({"op":"query","kind":"may-alias","a":"Main.main.got","b":"Main.main.i3"})");
  Ci = CiSpec(*Auto);
  EXPECT_EQ(Ci.get("full_solves")->Num, 2);
  EXPECT_EQ(Ci.get("warm_resumes")->Num, 0);
  EXPECT_TRUE(Ci.get("current")->B);
  // The all-"full" session solved once and warm-resumed once.
  JsonValue FullCi = CiSpec(*Full);
  EXPECT_EQ(FullCi.get("full_solves")->Num, 1);
  EXPECT_EQ(FullCi.get("warm_resumes")->Num, 1);
}

TEST(AnalysisServerTest, FallbackFullSolvesCountEveryRecompute) {
  // csc has no incremental solver: every program version re-runs it from
  // scratch, and each of those runs is a full solve.
  auto S = makeServer({{"fig.jir", figure1Source()}});
  ASSERT_NE(S, nullptr);
  const char *Query =
      R"({"op":"query","kind":"points-to","var":"Main.main.result1","spec":"csc"})";
  EXPECT_TRUE(okOf(parsed(S->handleLine(Query))));
  JsonWriter W;
  W.beginObject().kv("op", "add-delta").kv("source", WarmDelta);
  W.endObject();
  EXPECT_TRUE(okOf(parsed(S->handleLine(W.take()))));
  EXPECT_TRUE(okOf(parsed(S->handleLine(Query))));
  EXPECT_TRUE(okOf(parsed(S->handleLine(Query)))); // same version: cached

  JsonValue V = parsed(S->handleLine(R"({"op":"stats"})"));
  const JsonValue *Specs = V.get("specs");
  ASSERT_TRUE(Specs && Specs->isArray());
  ASSERT_EQ(Specs->Arr.size(), 1u);
  EXPECT_EQ(Specs->Arr[0].get("spec")->Str, "csc");
  EXPECT_EQ(Specs->Arr[0].get("full_solves")->Num, 2);
  EXPECT_TRUE(Specs->Arr[0].get("current")->B);
}

TEST(AnalysisServerTest, StoreIsUsedOnlyAtTheLoadedProgram) {
  // Post-delta results are not whole-program facts of an on-disk input:
  // the csc and "auto" ci queries after a delta recompute without
  // touching the store, while at the loaded program both publish, and a
  // later session over the same store reuses them.
  char Template[] = "server-store-XXXXXX";
  ASSERT_NE(::mkdtemp(Template), nullptr);
  std::string Dir = Template;
  ResultStore::Options SO;
  SO.Dir = Dir + "/store";
  AnalysisServer::Options Opts;
  Opts.Store = std::make_shared<ResultStore>(SO);
  auto S = makeServer({{"fig.jir", figure1Source()}}, Opts);
  ASSERT_NE(S, nullptr);
  const char *Queries[] = {
      R"({"op":"query","kind":"points-to","var":"Main.main.result1","spec":"csc"})",
      R"({"op":"query","kind":"points-to","var":"Main.main.result1"})"};
  for (const char *Q : Queries)
    EXPECT_TRUE(okOf(parsed(S->handleLine(Q))));
  JsonWriter W;
  W.beginObject().kv("op", "add-delta").kv("source", DispatchDelta);
  W.endObject();
  EXPECT_TRUE(okOf(parsed(S->handleLine(W.take()))));
  for (const char *Q : Queries)
    EXPECT_TRUE(okOf(parsed(S->handleLine(Q))));

  JsonValue V = parsed(S->handleLine(R"({"op":"stats"})"));
  const JsonValue *Store = V.get("store");
  ASSERT_TRUE(Store && Store->isObject());
  EXPECT_EQ(Store->get("hits")->Num, 0);
  EXPECT_EQ(Store->get("misses")->Num, 2);
  EXPECT_EQ(Store->get("publishes")->Num, 2);
  const JsonValue *Specs = V.get("specs");
  ASSERT_TRUE(Specs && Specs->Arr.size() == 2u); // "ci" and "csc", sorted
  EXPECT_EQ(Specs->Arr[0].get("full_solves")->Num, 2);
  EXPECT_EQ(Specs->Arr[1].get("full_solves")->Num, 2);
  ResultStore::ScrubReport R = Opts.Store->scrub();
  EXPECT_EQ(R.Valid, 2u);

  // A fresh session at the loaded program is served from the store.
  auto Again = makeServer({{"fig.jir", figure1Source()}}, Opts);
  ASSERT_NE(Again, nullptr);
  EXPECT_EQ(stripMeta(Again->handleLine(Queries[1])),
            stripMeta(makeServer({{"fig.jir", figure1Source()}})
                          ->handleLine(Queries[1])));
  V = parsed(Again->handleLine(R"({"op":"stats"})"));
  EXPECT_EQ(V.get("store")->get("hits")->Num, 1);
  EXPECT_EQ(V.get("specs")->Arr[0].get("full_solves")->Num, 0);
  S.reset();
  Again.reset();
  Opts.Store.reset();
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisServerTest, ServeLoopStopsAtShutdown) {
  auto S = makeServer({{"fig.jir", figure1Source()}});
  ASSERT_NE(S, nullptr);
  std::istringstream In(
      "{\"op\":\"query\",\"kind\":\"points-to\",\"var\":\"Main.main.result1\"}\n"
      "\n" // blank lines are skipped, not answered
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"stats\"}\n"); // never reached
  std::ostringstream Out;
  EXPECT_EQ(S->serve(In, Out), 0);
  std::istringstream Lines(Out.str());
  std::vector<std::string> Responses;
  for (std::string L; std::getline(Lines, L);)
    Responses.push_back(L);
  ASSERT_EQ(Responses.size(), 3u);
  EXPECT_TRUE(okOf(parsed(Responses[0])));
  EXPECT_EQ(parsed(Responses[1]).get("op")->Str, "stats");
  EXPECT_EQ(parsed(Responses[2]).get("op")->Str, "shutdown");
}

TEST(AnalysisServerTest, ExhaustedBudgetIsReportedNotAnswered) {
  AnalysisServer::Options O;
  O.WorkBudget = 1;
  auto S = makeServer({{"fig.jir", figure1Source()}}, O);
  ASSERT_NE(S, nullptr);
  // The "auto" query takes the per-version run, then "full" the resident
  // solver: both must report the exhausted budget.
  for (const char *Mode : {"auto", "full"}) {
    JsonValue V = parsed(S->handleLine(
        std::string(
            R"({"op":"query","kind":"points-to","var":"Main.main.result1","mode":")") +
        Mode + R"("})"));
    EXPECT_FALSE(okOf(V)) << Mode;
    EXPECT_EQ(errorOf(V), "analysis budget exhausted") << Mode;
  }
}

//===----------------------------------------------------------------------===//
// Pinned error diagnostics (documented in docs/CLI.md)
//===----------------------------------------------------------------------===//

TEST(AnalysisServerTest, PinnedErrorDiagnostics) {
  auto S = makeServer({{"fig.jir", figure1Source()}});
  ASSERT_NE(S, nullptr);
  auto ErrorFor = [&](const std::string &Line) {
    JsonValue V = parsed(S->handleLine(Line));
    EXPECT_FALSE(okOf(V)) << Line;
    return errorOf(V);
  };

  EXPECT_EQ(ErrorFor("nonsense").rfind("parse error: ", 0), 0u);
  EXPECT_EQ(ErrorFor("[1,2]"), "request is not a JSON object");
  EXPECT_EQ(ErrorFor(R"({"kind":"points-to"})"),
            "missing or non-string 'op'");
  EXPECT_EQ(ErrorFor(R"({"op":"reload"})"), "unknown op 'reload'");
  EXPECT_EQ(ErrorFor(R"({"op":"query","kind":"pt","var":"x"})"),
            "unknown query kind 'pt'");
  EXPECT_EQ(ErrorFor(R"({"op":"query","kind":"points-to"})"),
            "missing or non-string 'var'");
  EXPECT_EQ(
      ErrorFor(
          R"({"op":"query","kind":"points-to","var":"Main.main.nope"})"),
      "unknown variable 'Main.main.nope'");
  EXPECT_EQ(ErrorFor(R"({"op":"query","kind":"callees","method":"Main.nope"})"),
            "unknown method 'Main.nope'");
  EXPECT_EQ(
      ErrorFor(
          R"({"op":"query","kind":"points-to","var":"Main.main.result1","mode":"lazy"})"),
      "unknown query mode 'lazy'");
  EXPECT_EQ(
      ErrorFor(
          R"({"op":"query","kind":"points-to","var":"Main.main.result1","spec":"nope"})")
          .rfind("unknown analysis 'nope'", 0),
      0u);
  EXPECT_EQ(
      ErrorFor(
          R"({"op":"query","kind":"points-to","var":"Main.main.result1","spec":"csc","mode":"demand"})"),
      "unknown query mode 'demand'");
  EXPECT_EQ(ErrorFor(R"({"op":"add-delta"})"),
            "missing or non-string 'source'");
}
