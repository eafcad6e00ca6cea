//===- driver.cpp - Seeded inputs and traced per-layer replay -------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end benchmark's own C++ driver (see perfbench/README.md).
///
///   perfbench_driver emit --seed N --dir D [--workload W]
///       Writes the seeded inputs of workload W (oneshot, batch-store,
///       serve, or all) into D together with D/plan.json, which names
///       every file and how the workloads use it, and prints the plan.
///
///   perfbench_driver replay --dir D [--trace-out F]
///       Calls each layer's public functions over the inputs emit wrote
///       (workload all), with a span around every call, and prints one
///       JSON line of per-layer metrics. The spans stay in memory and are
///       written to F when the replay ends.
///
/// The programs are the repository's scaling tiers (scalingSuite) with
/// their WorkloadConfig.Seed shifted by the benchmark seed, so one seed
/// always yields the same inputs and different seeds yield different,
/// equally shaped programs.
///
//===----------------------------------------------------------------------===//

#include "client/AnalysisRegistry.h"
#include "client/AnalysisSession.h"
#include "client/BatchExecutor.h"
#include "client/Report.h"
#include "frontend/Parser.h"
#include "ir/Verifier.h"
#include "server/AnalysisServer.h"
#include "server/DemandSlicer.h"
#include "stdlib/Stdlib.h"
#include "store/ResultCodec.h"
#include "store/ResultStore.h"
#include "store/TaskLedger.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "workload/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

using namespace csc;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// The input plan: everything the workloads run is decided here.
//===----------------------------------------------------------------------===//

/// oneshot: one `cscpta <program> --analyses <spec> --json` process per
/// item, all on scale-xl. On scale-xxl a rotation takes ~4 s (zipper-e
/// alone ~3 s), so a run held ~6 samples per spec, and its 430 MB working
/// set made the figures swing with the host's load by up to 40% between
/// runs; on scale-xl a rotation takes ~1.3 s. The traced replay runs these
/// items; the measured runs add the OneshotVariants.
struct OneshotItem {
  const char *Spec;
  const char *Tier;
};
const OneshotItem OneshotPlan[] = {{"ci", "scale-xl"},
                                   {"csc", "scale-xl"},
                                   {"2obj", "scale-xl"},
                                   {"zipper-e", "scale-xl"}};

/// Every oneshot item runs on the tier and on these redraws of it. The
/// work of one generated scale-xl program varies by up to ±15% from seed
/// to seed (2obj points-to insertions), so a figure over one program moves
/// with the seed; over four it moves half as much.
const char *const OneshotVariants[] = {"", "#1", "#2", "#3"};

/// batch-store: the tiers up to scale-l plus two redraws of scale-l, times
/// ci/csc/2obj = 18 runs per pass. With scale-xl in the manifest a pass
/// took 1.3–3 s and a 30 s run held 5 samples per pass, too few for a
/// steady median; scale-xxl would stretch one iteration to ~25 s.
const char *const BatchTiers[] = {"scale-xs", "scale-s",   "scale-m",
                                  "scale-l",  "scale-l#1", "scale-l#2"};
const char *const BatchSpecs[] = {"ci", "csc", "2obj"};

/// serve: resident sessions driven in fixed-shape rounds, one per program:
/// scale-l and five redraws of it, each with its own round stream. Answer
/// times depend on the program: over three programs the round and query
/// medians still moved by 10-16% from seed to seed, while one seed run
/// again moved them by 1%. The traced replay serves the first. A 25 s run
/// asks 20-32 rounds of each session; 48 leave a margin on a fast host.
const char *const ServeTiers[] = {"scale-l",   "scale-l#1", "scale-l#2",
                                  "scale-l#3", "scale-l#4", "scale-l#5"};
const unsigned ServeRounds = 48;

/// Benchmark seed N shifts every tier's generator seed by N * SeedStride.
const uint64_t SeedStride = 1000;

std::string fileFor(std::string Tier) {
  std::replace(Tier.begin(), Tier.end(), '#', '-');
  return Tier + ".jir";
}

/// The tier's configuration under benchmark seed \p Seed. "name#k" is
/// tier "name" drawn again with a different generator seed.
WorkloadConfig tierConfig(const std::string &Tier, uint64_t Seed) {
  std::string Base = Tier.substr(0, Tier.find('#'));
  uint64_t Variant = Base.size() == Tier.size()
                         ? 0
                         : std::strtoull(Tier.c_str() + Base.size() + 1,
                                         nullptr, 10);
  for (WorkloadConfig C : scalingSuite())
    if (C.Name == Base) {
      C.Name = Tier;
      C.Seed += Seed * SeedStride + Variant * 7919;
      return C;
    }
  std::fprintf(stderr, "error: unknown tier '%s'\n", Tier.c_str());
  std::exit(2);
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out);
}

std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Parses stdlib + \p Text into a fresh program; null on failure.
std::unique_ptr<Program> parseWithStdlib(const std::string &Name,
                                         const std::string &Text,
                                         std::vector<std::string> &Diags) {
  auto P = std::make_unique<Program>();
  if (!parseProgram(*P, {{"<stdlib>", stdlibSource()}, {Name, Text}}, Diags))
    return nullptr;
  return P;
}

ResultStore::Options storeAt(const std::string &Dir) {
  ResultStore::Options O;
  O.Dir = Dir;
  return O;
}

//===----------------------------------------------------------------------===//
// serve: the round stream
//===----------------------------------------------------------------------===//

/// Names the round generator draws from: scenario run() methods with
/// their locals, entity classes, and the shared hub lists.
struct ServeVocabulary {
  std::vector<std::string> Scenarios;           ///< "Scen_3"
  std::vector<std::vector<std::string>> Locals; ///< Per scenario.
  std::vector<std::string> Entities;            ///< "Ent_4"
  std::vector<std::string> Hubs;                ///< "Hub::list_2"
};

ServeVocabulary vocabulary(const Program &P) {
  ServeVocabulary V;
  for (TypeId T = 0; T != P.numTypes(); ++T) {
    const TypeInfo &TI = P.type(T);
    if (TI.Name.rfind("Ent_", 0) == 0)
      V.Entities.push_back(TI.Name);
    if (TI.Name == "Hub")
      for (FieldId F : TI.Fields)
        if (P.field(F).IsStatic && P.field(F).Name.rfind("list_", 0) == 0)
          V.Hubs.push_back("Hub::" + P.field(F).Name);
    if (TI.Name.rfind("Scen_", 0) != 0)
      continue;
    for (MethodId M : TI.Methods) {
      if (P.method(M).Name != "run" || P.method(M).Vars.empty())
        continue;
      std::vector<std::string> Names;
      for (VarId Var : P.method(M).Vars)
        Names.push_back(P.var(Var).Name);
      V.Scenarios.push_back(TI.Name);
      V.Locals.push_back(std::move(Names));
    }
  }
  return V;
}

std::string queryLine(
    const char *Kind, const char *Spec,
    std::initializer_list<std::pair<const char *, std::string>> Fields) {
  JsonWriter J;
  J.beginObject().kv("op", "query").kv("kind", Kind);
  if (Spec)
    J.kv("spec", Spec);
  for (const auto &[K, Val] : Fields)
    J.kv(K, Val);
  return J.endObject().take();
}

struct ServeStream {
  std::vector<std::string> Warmup;              ///< One query per spec.
  std::vector<std::vector<std::string>> Rounds; ///< Request lines.
};

/// One round: a warm-startable add-delta (statements appended to a
/// scenario's run()), then points-to on default-spec ci twice (an
/// existing local and the delta's result), on csc and on 2obj, then one
/// ci may-alias between the delta's result and an existing local. \p Index
/// is the program's place in ServeTiers.
ServeStream serveStream(const Program &P, uint64_t Seed, unsigned Index) {
  ServeVocabulary V = vocabulary(P);
  std::mt19937_64 R(Seed * 0x9E3779B97F4A7C15ULL + 0x5EEDULL + Index);
  auto Pick = [&R](size_t N) { return static_cast<size_t>(R() % N); };
  auto AnyVar = [&] {
    size_t S = Pick(V.Scenarios.size());
    const std::vector<std::string> &L = V.Locals[S];
    return V.Scenarios[S] + ".run." + L[Pick(L.size())];
  };

  ServeStream S;
  std::string Anchor = AnyVar();
  S.Warmup = {queryLine("points-to", nullptr, {{"var", Anchor}}),
              queryLine("points-to", "csc", {{"var", Anchor}}),
              queryLine("points-to", "2obj", {{"var", Anchor}})};
  for (unsigned K = 0; K != ServeRounds; ++K) {
    const std::string &Scen = V.Scenarios[Pick(V.Scenarios.size())];
    const std::string &EntA = V.Entities[Pick(V.Entities.size())];
    const std::string &EntB = V.Entities[Pick(V.Entities.size())];
    std::string N = "pb" + std::to_string(K);
    std::string Src = "extend class " + Scen + " { append method run {\n";
    Src += "  var " + N + "e: " + EntA + ";\n  " + N + "e = new " + EntA +
           ";\n";
    Src += "  var " + N + "v: " + EntB + ";\n  " + N + "v = new " + EntB +
           ";\n";
    Src += "  call " + N + "e.setVal(" + N + "v);\n";
    Src += "  var " + N + "g: Object;\n  " + N + "g = call " + N +
           "e.getVal();\n";
    if (!V.Hubs.empty()) {
      const std::string &Hub = V.Hubs[Pick(V.Hubs.size())];
      Src += "  var " + N + "l: ArrayList;\n  " + N + "l = " + Hub + ";\n";
      Src += "  call " + N + "l.add(" + N + "v);\n";
    }
    Src += "} }\n";

    JsonWriter D;
    D.beginObject()
        .kv("op", "add-delta")
        .kv("name", N)
        .kv("source", Src)
        .endObject();
    std::string Fresh = Scen + ".run." + N + "g";
    S.Rounds.push_back(
        {D.take(), queryLine("points-to", nullptr, {{"var", AnyVar()}}),
         queryLine("points-to", nullptr, {{"var", Fresh}}),
         queryLine("points-to", "csc", {{"var", AnyVar()}}),
         queryLine("points-to", "2obj", {{"var", AnyVar()}}),
         queryLine("may-alias", nullptr, {{"a", Fresh}, {"b", AnyVar()}})});
  }
  return S;
}

//===----------------------------------------------------------------------===//
// emit
//===----------------------------------------------------------------------===//

int emit(const std::string &Dir, uint64_t Seed, const std::string &Workload) {
  bool All = Workload == "all";
  bool Oneshot = All || Workload == "oneshot";
  bool Batch = All || Workload == "batch-store";
  bool Serve = All || Workload == "serve";
  if (!Oneshot && !Batch && !Serve) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Workload.c_str());
    return 2;
  }
  std::error_code EC;
  fs::create_directories(Dir + "/batch", EC);
  std::map<std::string, uint64_t> Written; // relative path -> bytes
  auto Emit = [&](const std::string &Tier, const std::string &Rel) {
    std::string Text = generateWorkload(tierConfig(Tier, Seed));
    if (!writeFile(Dir + "/" + Rel, Text)) {
      std::fprintf(stderr, "error: cannot write '%s/%s'\n", Dir.c_str(),
                   Rel.c_str());
      std::exit(1);
    }
    Written[Rel] = Text.size();
    return Text;
  };

  JsonWriter Plan;
  Plan.beginObject().kv("seed", Seed).kv("workload", Workload);
  if (Oneshot) {
    Plan.key("oneshot").beginArray();
    for (const char *Variant : OneshotVariants)
      for (const OneshotItem &I : OneshotPlan) {
        std::string Tier = std::string(I.Tier) + Variant;
        std::string File = fileFor(Tier);
        if (!Written.count(File))
          Emit(Tier, File);
        Plan.beginObject().kv("spec", I.Spec).kv("program", File).endObject();
      }
    Plan.endArray();
  }
  if (Batch) {
    JsonWriter M;
    M.beginObject().key("entries").beginArray();
    for (const char *Tier : BatchTiers) {
      std::string File = fileFor(Tier);
      Emit(Tier, "batch/" + File);
      M.beginObject().kv("label", Tier).kv("program", File);
      M.key("specs").beginArray();
      for (const char *S : BatchSpecs)
        M.value(S);
      M.endArray().endObject();
    }
    M.endArray().endObject();
    if (!writeFile(Dir + "/batch/batch.json", M.str() + "\n"))
      return 1;
    Plan.kv("batch_manifest", "batch/batch.json");
  }
  if (Serve) {
    Plan.key("serve").beginArray();
    for (unsigned K = 0; K != std::size(ServeTiers); ++K) {
      std::string Stem = "serve" + std::to_string(K);
      std::string Text = Emit(ServeTiers[K], Stem + ".jir");
      std::vector<std::string> Diags;
      std::unique_ptr<Program> P = parseWithStdlib(Stem + ".jir", Text, Diags);
      if (!P) {
        std::fprintf(stderr, "error: the serve program does not parse\n");
        return 1;
      }
      ServeStream S = serveStream(*P, Seed, K);
      std::string Rounds, Warmup;
      for (const std::vector<std::string> &Round : S.Rounds) {
        JsonWriter J;
        J.beginArray();
        for (const std::string &Req : Round)
          J.value(Req);
        Rounds += J.endArray().take() + "\n";
      }
      for (const std::string &Req : S.Warmup)
        Warmup += Req + "\n";
      if (!writeFile(Dir + "/" + Stem + "-rounds.ndjson", Rounds) ||
          !writeFile(Dir + "/" + Stem + "-warmup.ndjson", Warmup))
        return 1;
      Plan.beginObject()
          .kv("program", Stem + ".jir")
          .kv("rounds", Stem + "-rounds.ndjson")
          .kv("warmup", Stem + "-warmup.ndjson")
          .endObject();
    }
    Plan.endArray();
  }
  Plan.key("bytes").beginObject();
  for (const auto &[File, Bytes] : Written)
    Plan.kv(File, Bytes);
  Plan.endObject().endObject();
  if (!writeFile(Dir + "/plan.json", Plan.str() + "\n"))
    return 1;
  std::printf("%s\n", Plan.str().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Tracing: spans and counts recorded by the replay
//===----------------------------------------------------------------------===//

/// In-memory span recorder. A span names the layer call it wraps
/// ("<layer>.<call>"), its parent (the span open when it began) and the
/// request id shared by every span of one operation.
class Tracer {
public:
  /// Starts a new operation: later spans carry a fresh request id.
  void newRequest() { ++Request; }

  /// Runs \p F inside a span and returns its duration in milliseconds.
  template <typename Fn> double span(const std::string &Name, Fn &&F) {
    size_t Id = Spans.size();
    Spans.push_back({Name, now(), 0, Open.empty() ? -1 : Open.back(),
                     Request});
    Open.push_back(static_cast<int64_t>(Id));
    F();
    Open.pop_back();
    Spans[Id].EndMs = now();
    return Spans[Id].EndMs - Spans[Id].StartMs;
  }

  /// Self time per layer: each span's duration minus the part of it its
  /// child spans cover (the replay is sequential, so children of one
  /// parent never overlap).
  std::map<std::string, double> selfMsByLayer() const {
    std::vector<double> Covered(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Covered[static_cast<size_t>(S.Parent)] += S.EndMs - S.StartMs;
    std::map<std::string, double> Out;
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out[S.Name.substr(0, S.Name.find('.'))] +=
          S.EndMs - S.StartMs - Covered[I];
    }
    return Out;
  }

  std::string json() const {
    JsonWriter J;
    J.beginArray();
    for (const Span &S : Spans)
      J.beginObject()
          .kv("name", S.Name)
          .kv("start_ms", S.StartMs)
          .kv("end_ms", S.EndMs)
          .kv("parent", S.Parent)
          .kv("request", S.Request)
          .endObject();
    return J.endArray().take();
  }

private:
  struct Span {
    std::string Name;
    double StartMs;
    double EndMs;
    int64_t Parent;
    uint64_t Request;
  };

  double now() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  std::vector<Span> Spans;
  std::vector<int64_t> Open;
  uint64_t Request = 0;
};

/// Per-layer metric sink plus the replay's operation accounting.
class LayerMetrics {
public:
  void set(const std::string &Name, double V, const char *Unit) {
    Values[Name] = {V, Unit};
  }
  void count(const std::string &Name, uint64_t V) {
    set(Name, static_cast<double>(V), "count");
  }
  void attempt() { ++Attempted; }
  void fail(const std::string &Why) {
    ++Failed;
    std::fprintf(stderr, "replay: %s\n", Why.c_str());
  }

  std::string json(const Tracer &T) const {
    JsonWriter J;
    J.beginObject()
        .kv("correct", Failed == 0)
        .kv("attempted", Attempted)
        .kv("failed", Failed);
    J.key("metrics").beginObject();
    for (const auto &[Name, V] : Values) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", V.first);
      J.key(Name).beginObject().key("value").raw(Buf);
      J.kv("unit", V.second).endObject();
    }
    J.endObject().key("self_ms").beginObject();
    for (const auto &[Layer, Ms] : T.selfMsByLayer())
      J.kv(Layer, Ms);
    return J.endObject().endObject().take();
  }

private:
  std::map<std::string, std::pair<double, const char *>> Values;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// replay
//===----------------------------------------------------------------------===//

struct Replay {
  std::string Dir;
  uint64_t Seed = 0;
  JsonValue Plan;
  Tracer T;
  LayerMetrics M;

  std::string planPath(const char *Key) const {
    const JsonValue *V = Plan.get(Key);
    return V ? Dir + "/" + V->Str : std::string();
  }

  /// A file of the first serve session's inputs.
  std::string servePath(const char *Key) const {
    const JsonValue *S = Plan.get("serve");
    const JsonValue *V = S && !S->Arr.empty() ? S->Arr[0].get(Key) : nullptr;
    return V ? Dir + "/" + V->Str : std::string();
  }
};

/// workload: regenerates every planned program in memory.
void replayWorkload(Replay &C) {
  std::vector<std::string> Tiers;
  for (const char *Variant : OneshotVariants)
    for (const OneshotItem &I : OneshotPlan)
      Tiers.push_back(std::string(I.Tier) + Variant);
  Tiers.insert(Tiers.end(), std::begin(BatchTiers), std::end(BatchTiers));
  Tiers.insert(Tiers.end(), std::begin(ServeTiers), std::end(ServeTiers));
  std::sort(Tiers.begin(), Tiers.end());
  Tiers.erase(std::unique(Tiers.begin(), Tiers.end()), Tiers.end());
  C.T.newRequest();
  double Ms = 0;
  for (const std::string &Tier : Tiers) {
    WorkloadConfig Cfg = tierConfig(Tier, C.Seed);
    Ms += C.T.span("workload.generate", [&] { (void)generateWorkload(Cfg); });
  }
  C.M.set("workload.generate_ms", Ms, "ms");
}

/// oneshot: per item what one `cscpta <prog> --analyses S --json` process
/// does — parse, verify, pre-analysis (zipper-e), solve, report, tear
/// down. Then, on the largest program, what batch and store clients add
/// to a load: the session's own load path and the program fingerprint.
void replayOneshot(Replay &C) {
  double ParseMs = 0, VerifyMs = 0, ReportMs = 0;
  for (const OneshotItem &I : OneshotPlan) {
    std::string Spec = I.Spec;
    std::string Path = C.Dir + "/" + fileFor(I.Tier);
    C.T.newRequest();
    C.M.attempt();
    double Total = C.T.span("replay.oneshot." + Spec, [&] {
      std::optional<std::string> Text = readFile(Path);
      std::vector<std::string> Diags;
      std::unique_ptr<Program> P;
      ParseMs += C.T.span("frontend.parse", [&] {
        if (Text)
          P = parseWithStdlib(Path, *Text, Diags);
      });
      if (!P)
        return C.M.fail("cannot parse " + Path);
      VerifyMs += C.T.span("ir.verify", [&] { Diags = verifyProgram(*P); });
      if (!Diags.empty())
        return C.M.fail("verify failed: " + Path);

      AnalysisSession S(*P, AnalysisSession::Options{});
      AnalysisRecipe Recipe;
      std::string Err;
      if (!S.registry().build(Spec, Recipe, Err))
        return C.M.fail("bad spec " + Spec + ": " + Err);
      if (Recipe.UseZipper) {
        // The run below reuses this selection from the session's cache.
        size_t Selected = 0;
        C.M.set("zipper.pre_ms", C.T.span("zipper.selection", [&] {
          Selected = S.zipperSelection(Recipe.Zipper).Selected.size();
        }), "ms");
        C.M.count("zipper.selected_methods", Selected);
      }
      auto Run = std::make_unique<AnalysisRun>();
      C.M.set("pta.solve_ms." + Spec,
              C.T.span("pta.solve", [&] { *Run = S.run(Recipe); }), "ms");
      if (!Run->completed())
        return C.M.fail("run did not complete: " + Spec);
      const SolverStats &St = Run->Result.Stats;
      C.M.count("pta.pts_insertions." + Spec, St.PtsInsertions);
      C.M.count("pta.pfg_edges." + Spec, St.PFGEdges);
      C.M.count("pta.worklist_pops." + Spec, St.WorklistPops);
      C.M.count("pta.scc_members." + Spec, St.Scc.MembersCollapsed);
      if (Spec == "2obj")
        C.M.count("pta.contexts.2obj", St.NumContexts);
      if (Recipe.UseCsc) {
        C.M.count("csc.cut_stores", Run->Csc.CutStores);
        C.M.count("csc.cut_returns", Run->Csc.CutReturns);
        C.M.count("csc.shortcut_edges", Run->Csc.ShortcutEdges);
        C.M.count("csc.involved_methods", Run->Csc.Involved.size());
      }
      ReportMs += C.T.span("client.report", [&] {
        JsonWriter J;
        appendRunJson(J, *Run);
      });
      C.M.set("pta.teardown_ms." + Spec,
              C.T.span("pta.teardown", [&] { Run.reset(); }), "ms");
    });
    C.M.set("replay.oneshot_ms." + Spec, Total, "ms");
  }
  C.M.set("frontend.parse_ms", ParseMs, "ms");
  C.M.set("ir.verify_ms", VerifyMs, "ms");
  C.M.set("client.report_ms", ReportMs, "ms");

  std::string Largest = C.Dir + "/" + fileFor(OneshotPlan[0].Tier);
  std::unique_ptr<AnalysisSession> S;
  std::vector<std::string> Diags;
  C.T.newRequest();
  C.M.attempt();
  C.M.set("client.load_ms", C.T.span("client.load", [&] {
    S = AnalysisSession::fromFiles({Largest}, {}, Diags);
  }), "ms");
  if (!S)
    return C.M.fail("client load failed: " + Largest);
  C.M.count("ir.stmts", S->program().numStmts());
  C.M.set("ir.fingerprint_ms", C.T.span("ir.fingerprint", [&] {
    (void)programFingerprint(S->program());
  }), "ms");
}

/// batch-store: BatchExecutor passes (storeless, then repeated on the
/// same executor for the result cache; cold and warm through a fresh
/// store), then the store layer's own calls over the same 18 results and
/// one worker's lease cycle through the task ledger.
void replayBatch(Replay &C) {
  std::vector<BatchEntry> Entries;
  std::string Err;
  if (!loadBatchManifest(C.planPath("batch_manifest"), Entries, Err))
    return C.M.fail("manifest: " + Err);
  std::string StoreDir = C.Dir + "/replay-store";
  std::error_code EC;
  fs::remove_all(StoreDir, EC);

  std::string Reference;
  auto Pass = [&](const std::string &Name, BatchExecutor &Exec) {
    C.T.newRequest();
    C.M.attempt();
    BatchReport R;
    double Ms =
        C.T.span("client.batch." + Name, [&] { R = Exec.run(Entries); });
    std::string Agg = R.aggregateJson();
    if (R.exitCode() != 0)
      C.M.fail("batch pass failed: " + Name);
    if (Reference.empty())
      Reference = Agg;
    else if (Agg != Reference)
      C.M.fail("batch aggregate differs: " + Name);
    return Ms;
  };
  // One job, as the batch-store workload runs it (see perfbench/run.py).
  BatchExecutor::Options O;
  {
    BatchExecutor Exec(O);
    C.M.set("client.batch_ms.storeless", Pass("storeless", Exec), "ms");
    Pass("repeat", Exec);
    C.M.count("client.cache_hits", Exec.cache().hits());
    C.M.count("client.cache_misses", Exec.cache().misses());
  }
  for (const char *Name : {"cold", "warm"}) {
    BatchExecutor::Options SO = O;
    SO.Store = std::make_shared<ResultStore>(storeAt(StoreDir));
    BatchExecutor Exec(SO);
    C.M.set(std::string("client.batch_ms.") + Name, Pass(Name, Exec), "ms");
  }
  fs::remove_all(StoreDir, EC);

  // The store layer on its own: encode, decode, publish and look up each
  // of the batch's results in a fresh store.
  double EncMs = 0, DecMs = 0, PubMs = 0, LookMs = 0;
  uint64_t Bytes = 0;
  ResultStore::Counters SC;
  {
    ResultStore Store(storeAt(StoreDir));
    uint64_t RegFp = registryFingerprint(AnalysisRegistry::global());
    for (const BatchEntry &E : Entries) {
      std::vector<std::string> Diags;
      auto S = AnalysisSession::fromFiles(E.Files, {}, Diags);
      if (!S) {
        C.M.fail("cannot load " + E.Label);
        continue;
      }
      uint64_t Fp = programFingerprint(S->program());
      for (const std::string &Spec : E.Specs) {
        C.T.newRequest();
        C.M.attempt();
        AnalysisRun Run = S->run(Spec);
        JsonWriter J;
        appendRunJson(J, Run, /*IncludeTimings=*/false);
        StoredResult Value = storedFromRun(Run, J.take());
        std::string Key = resultStoreKey(Fp, ~0ULL, 0, RegFp, Spec), Enc;
        StoredResult Back, Hit;
        bool Decoded = false, Before = true, After = false;
        EncMs += C.T.span("store.encode",
                          [&] { Enc = serializeStoredResult(Value); });
        Bytes += Enc.size();
        DecMs += C.T.span("store.decode", [&] {
          Decoded = deserializeStoredResult(Enc, Back);
        });
        LookMs += C.T.span("store.lookup",
                           [&] { Before = Store.lookup(Key, Hit); });
        PubMs += C.T.span("store.publish",
                          [&] { Store.publish(Key, Value); });
        LookMs += C.T.span("store.lookup",
                           [&] { After = Store.lookup(Key, Hit); });
        if (!Decoded || Before || !After || Hit.RunJson != Value.RunJson)
          C.M.fail("store round trip failed: " + E.Label + " " + Spec);
      }
    }
    SC = Store.counters();
  }
  fs::remove_all(StoreDir, EC);
  C.M.set("store.encode_ms", EncMs, "ms");
  C.M.set("store.decode_ms", DecMs, "ms");
  C.M.set("store.publish_ms", PubMs, "ms");
  C.M.set("store.lookup_ms", LookMs, "ms");
  C.M.set("store.entry_bytes", static_cast<double>(Bytes), "bytes");
  C.M.count("store.hits", SC.Hits);
  C.M.count("store.misses", SC.Misses);

  fs::create_directories(StoreDir, EC);
  TaskLedger::Options LO;
  LO.Path = StoreDir + "/ledger.bin";
  TaskLedger L(LO);
  TaskLedger::Config Cfg;
  Cfg.BatchFingerprint = batchFingerprint(Entries);
  Cfg.TaskCount = static_cast<uint32_t>(countBatchTasks(Entries));
  uint32_t Done = 0;
  C.T.newRequest();
  C.M.set("store.ledger_ms", C.T.span("store.ledger", [&] {
    if (!L.create(Cfg))
      return;
    TaskLedger::Lease Lease;
    uint64_t RetryMs = 0;
    while (L.acquire(1, Lease, RetryMs) ==
           TaskLedger::AcquireStatus::Acquired)
      Done += L.complete(Lease, 1, "") ? 1 : 0;
  }), "ms");
  if (Done != Cfg.TaskCount)
    C.M.fail("ledger completed " + std::to_string(Done) + " of " +
             std::to_string(Cfg.TaskCount) + " tasks");
  fs::remove_all(StoreDir, EC);
}

/// A parsed response or request line (Null on malformed input).
JsonValue parsed(const std::string &Line) {
  JsonValue V;
  std::string Err;
  if (!parseJson(Line, V, Err))
    return JsonValue();
  return V;
}

std::string strField(const JsonValue &V, const char *Key) {
  const JsonValue *F = V.get(Key);
  return F && F->isString() ? F->Str : std::string();
}

/// serve: an in-process AnalysisServer fed the warm-up and rounds the
/// `cscpta --serve` sessions get, then DemandSlicer slices of every
/// default-spec points-to root on the final program.
void replayServe(Replay &C) {
  std::optional<std::string> RoundText = readFile(C.servePath("rounds"));
  std::optional<std::string> WarmText = readFile(C.servePath("warmup"));
  if (!RoundText || !WarmText)
    return C.M.fail("cannot read the serve stream");
  AnalysisServer Server;
  bool Loaded = false;
  std::vector<std::string> Diags;
  C.T.newRequest();
  C.M.set("server.load_ms", C.T.span("server.load", [&] {
    Loaded = Server.loadFiles({C.servePath("program")}, Diags);
  }), "ms");
  if (!Loaded)
    return C.M.fail("server load failed");

  std::string Ans;
  auto Handle = [&](const std::string &Req) {
    C.M.attempt();
    double Ms =
        C.T.span("server.handle", [&] { Ans = Server.handleLine(Req); });
    JsonValue Resp = parsed(Ans);
    const JsonValue *Ok = Resp.get("ok");
    if (!Ok || !Ok->isBool() || !Ok->B)
      C.M.fail("server answer not ok: " + Ans.substr(0, 200));
    return Ms;
  };
  std::istringstream Warm(*WarmText);
  std::string Line;
  while (std::getline(Warm, Line)) {
    C.T.newRequest();
    Handle(Line);
  }

  std::vector<double> DeltaMs, DemandMs, FallbackMs, RoundMs;
  std::vector<std::string> Roots;
  std::istringstream In(*RoundText);
  while (std::getline(In, Line)) {
    JsonValue Round = parsed(Line);
    C.T.newRequest();
    RoundMs.push_back(C.T.span("replay.round", [&] {
      for (const JsonValue &ReqV : Round.Arr) {
        double Ms = Handle(ReqV.Str);
        JsonValue Req = parsed(ReqV.Str), Resp = parsed(Ans);
        const JsonValue *Meta = Resp.get("meta");
        if (strField(Req, "op") == "add-delta")
          DeltaMs.push_back(Ms);
        else if (Meta && strField(*Meta, "mode") == "demand")
          DemandMs.push_back(Ms);
        else
          FallbackMs.push_back(Ms);
        if (strField(Req, "kind") == "points-to" && !Req.get("spec"))
          Roots.push_back(strField(Req, "var"));
      }
    }));
  }
  C.M.set("server.delta_ms", median(DeltaMs), "ms");
  C.M.set("server.query_ms.demand", median(DemandMs), "ms");
  C.M.set("server.query_ms.fallback", median(FallbackMs), "ms");
  C.M.set("replay.round_ms", median(RoundMs), "ms");

  uint64_t Demand = 0, Full = 0, Resumes = 0;
  JsonValue Stats = parsed(Server.handleLine("{\"op\":\"stats\"}"));
  if (const JsonValue *Specs = Stats.get("specs"))
    for (const JsonValue &S : Specs->Arr) {
      auto Num = [&S](const char *K) {
        const JsonValue *V = S.get(K);
        return V ? static_cast<uint64_t>(V->Num) : 0;
      };
      Demand += Num("demand_solves");
      Full += Num("full_solves");
      Resumes += Num("warm_resumes");
    }
  C.M.count("server.demand_solves", Demand);
  C.M.count("server.full_solves", Full);
  C.M.count("server.warm_resumes", Resumes);

  const Program &P = Server.program();
  std::unordered_map<std::string, VarId> ByName;
  for (VarId V = 0; V != P.numVars(); ++V) {
    const MethodInfo &M = P.method(P.var(V).Method);
    ByName[P.type(M.Owner).Name + "." + M.Name + "." + P.var(V).Name] = V;
  }
  std::vector<double> SliceMs;
  uint64_t SliceStmts = 0;
  C.T.newRequest();
  C.T.span("server.slicer", [&] {
    DemandSlicer Slicer(P);
    for (const std::string &Root : Roots) {
      auto It = ByName.find(Root);
      if (It == ByName.end()) {
        C.M.fail("unknown root " + Root);
        continue;
      }
      DemandSlicer::Slice Sl;
      SliceMs.push_back(C.T.span(
          "server.slice", [&] { Sl = Slicer.sliceFor({It->second}); }));
      SliceStmts += Sl.EnabledStmts;
    }
  });
  C.M.set("server.slice_ms", median(SliceMs), "ms");
  C.M.count("server.slice_stmts", SliceStmts);
}

int replay(const std::string &Dir, const std::string &TraceOut) {
  Replay C;
  C.Dir = Dir;
  std::optional<std::string> PlanText = readFile(Dir + "/plan.json");
  std::string Err;
  if (!PlanText || !parseJson(*PlanText, C.Plan, Err) ||
      !C.Plan.get("seed") || !C.Plan.get("oneshot") ||
      !C.Plan.get("batch_manifest") || C.servePath("program").empty()) {
    std::fprintf(stderr,
                 "error: %s/plan.json is missing or was not written by "
                 "'emit --workload all'\n",
                 Dir.c_str());
    return 2;
  }
  C.Seed = static_cast<uint64_t>(C.Plan.get("seed")->Num);
  replayWorkload(C);
  replayOneshot(C);
  replayBatch(C);
  replayServe(C);
  if (!TraceOut.empty() && !writeFile(TraceOut, C.T.json() + "\n"))
    std::fprintf(stderr, "warning: cannot write '%s'\n", TraceOut.c_str());
  std::printf("%s\n", C.M.json(C.T).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *Usage =
      "usage: perfbench_driver emit --seed N --dir D "
      "[--workload oneshot|batch-store|serve|all]\n"
      "       perfbench_driver replay --dir D [--trace-out F]\n";
  if (Argc < 2 || Argc % 2 != 0) {
    std::fputs(Usage, stderr);
    return 2;
  }
  std::string Cmd = Argv[1], Dir, Workload = "all", TraceOut;
  uint64_t Seed = 0;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Arg = Argv[I], Val = Argv[I + 1];
    if (Arg == "--seed")
      Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Arg == "--dir")
      Dir = Val;
    else if (Arg == "--workload")
      Workload = Val;
    else if (Arg == "--trace-out")
      TraceOut = Val;
    else {
      std::fprintf(stderr, "error: unknown argument '%s'\n%s", Arg.c_str(),
                   Usage);
      return 2;
    }
  }
  if (Dir.empty()) {
    std::fputs(Usage, stderr);
    return 2;
  }
  if (Cmd == "emit")
    return emit(Dir, Seed, Workload);
  if (Cmd == "replay")
    return replay(Dir, TraceOut);
  std::fputs(Usage, stderr);
  return 2;
}
