//===- BatchExecutorTest.cpp - Batch engine, cache, manifest --------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Covers the batch analysis engine: determinism across --jobs (the
// aggregate report must be byte-identical for 1 vs 8 threads, and each
// result key is solved once per run at any --jobs), result-cache
// behavior within and across run() calls, program
// fingerprinting, manifest parsing, and failure sequencing.
//
//===----------------------------------------------------------------------===//

#include "client/BatchExecutor.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

using namespace csc;

namespace {

// Fig. 1-shaped program: two Cartons storing distinct Items.
const char *FigSource = R"(
class Item { }
class Carton {
  field item: Item;
  method setItem(item: Item): void {
    this.item = item;
  }
  method getItem(): Item {
    var r: Item;
    r = this.item;
    return r;
  }
}
class Main {
  static method main(): void {
    var c1: Carton;
    var c2: Carton;
    var i1: Item;
    var i2: Item;
    var r1: Item;
    var r2: Item;
    c1 = new Carton;
    c2 = new Carton;
    i1 = new Item;
    i2 = new Item;
    call c1.setItem(i1);
    call c2.setItem(i2);
    r1 = call c1.getItem();
    r2 = call c2.getItem();
  }
}
)";

// A second, structurally different program.
const char *OtherSource = R"(
class Payload { }
class Box {
  field v: Payload;
  method set(x: Payload): void {
    this.v = x;
  }
}
class Main {
  static method main(): void {
    var b: Box;
    var o: Payload;
    b = new Box;
    o = new Payload;
    call b.set(o);
  }
}
)";

std::vector<BatchEntry> twoProgramBatch() {
  BatchEntry A;
  A.Label = "fig";
  A.SourceName = "fig.jir";
  A.SourceText = FigSource;
  A.Specs = {"ci", "csc", "2obj"};
  BatchEntry B;
  B.Label = "other";
  B.SourceName = "other.jir";
  B.SourceText = OtherSource;
  B.Specs = {"ci", "csc"};
  return {A, B};
}

BatchExecutor::Options withJobs(unsigned Jobs) {
  BatchExecutor::Options O;
  O.Jobs = Jobs;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Determinism and correctness
//===----------------------------------------------------------------------===//

TEST(BatchExecutorTest, AggregateIsByteIdenticalAcrossJobs) {
  std::vector<BatchEntry> Entries = twoProgramBatch();
  BatchExecutor Seq(withJobs(1));
  BatchExecutor Par(withJobs(8));
  BatchReport R1 = Seq.run(Entries);
  BatchReport R8 = Par.run(Entries);
  EXPECT_EQ(R1.Jobs, 1u);
  EXPECT_EQ(R8.Jobs, 8u);
  EXPECT_EQ(R1.aggregateJson(), R8.aggregateJson());
  EXPECT_EQ(R1.totalRuns(), 5u);
  EXPECT_EQ(R1.exitCode(), 0);
}

TEST(BatchExecutorTest, BatchMatchesDirectSessionRuns) {
  std::vector<BatchEntry> Entries = twoProgramBatch();
  BatchReport R = BatchExecutor(withJobs(4)).run(Entries);
  ASSERT_EQ(R.Entries.size(), 2u);
  ASSERT_EQ(R.Entries[0].Runs.size(), 3u);

  std::vector<std::string> Diags;
  auto S = AnalysisSession::fromSource("fig.jir", FigSource, {}, Diags);
  ASSERT_NE(S, nullptr);
  for (size_t I = 0; I != 3; ++I) {
    AnalysisRun Direct = S->run(R.Entries[0].Runs[I].Spec);
    EXPECT_EQ(R.Entries[0].Runs[I].Status, Direct.Status);
    EXPECT_EQ(R.Entries[0].Runs[I].Metrics.FailCasts,
              Direct.Metrics.FailCasts);
    EXPECT_EQ(R.Entries[0].Runs[I].Metrics.ReachMethods,
              Direct.Metrics.ReachMethods);
    EXPECT_EQ(R.Entries[0].Runs[I].Metrics.CallEdges,
              Direct.Metrics.CallEdges);
  }
}

TEST(BatchExecutorTest, SecondIdenticalRunIsServedFromCache) {
  std::vector<BatchEntry> Entries = twoProgramBatch();
  BatchExecutor Exec(withJobs(2));
  BatchReport First = Exec.run(Entries);
  EXPECT_EQ(First.CacheHits, 0u);
  EXPECT_EQ(First.CacheMisses, First.totalRuns());

  BatchReport Second = Exec.run(Entries);
  EXPECT_EQ(Second.CacheHits, Second.totalRuns());
  EXPECT_EQ(Second.CacheMisses, 0u);
  for (const BatchEntryResult &E : Second.Entries)
    for (const BatchRunResult &R : E.Runs)
      EXPECT_TRUE(R.FromCache) << E.Label << " " << R.Spec;
  // Cached results serialize identically to computed ones.
  EXPECT_EQ(First.aggregateJson(), Second.aggregateJson());
}

TEST(BatchExecutorTest, DuplicateWorkWithinOneBatchHitsTheCache) {
  // The same (program, spec) pair under two labels and spec spellings:
  // content fingerprint + canonical spec dedupe them. However the two
  // tasks are scheduled, the key is solved and published once and the
  // second task is served from the first's row.
  BatchEntry A;
  A.Label = "a";
  A.SourceName = "fig.jir";
  A.SourceText = FigSource;
  A.Specs = {"csc"};
  BatchEntry B = A;
  B.Label = "b";
  B.SourceName = "fig-copy.jir"; // different identity, same content
  B.Specs = {" CSC "};
  char Template[] = "duplicate-work-XXXXXX";
  ASSERT_NE(::mkdtemp(Template), nullptr);
  for (unsigned Jobs : {1u, 4u}) {
    for (int Rep = 0; Rep != 20; ++Rep) {
      SCOPED_TRACE("jobs " + std::to_string(Jobs) + ", run " +
                   std::to_string(Rep));
      BatchExecutor::Options O = withJobs(Jobs);
      ResultStore::Options SO;
      SO.Dir = std::string(Template) + "/" + std::to_string(Jobs) + "-" +
               std::to_string(Rep);
      O.Store = std::make_shared<ResultStore>(SO);
      BatchReport R = BatchExecutor(O).run({A, B});
      EXPECT_EQ(R.CacheMisses, 1u);
      EXPECT_EQ(R.CacheHits, 1u);
      EXPECT_EQ(O.Store->counters().Publishes, 1u);
      ASSERT_EQ(R.Entries[1].Runs.size(), 1u);
      EXPECT_TRUE(R.Entries[1].Runs[0].FromCache);
      EXPECT_FALSE(R.Entries[1].Runs[0].FromStore);
      EXPECT_EQ(R.Entries[1].Runs[0].StoreKey,
                R.Entries[0].Runs[0].StoreKey);
      // Both report under the canonical name regardless of spelling.
      EXPECT_EQ(R.Entries[0].Runs[0].RunJson,
                R.Entries[1].Runs[0].RunJson);
    }
  }
  std::filesystem::remove_all(Template);
}

TEST(BatchExecutorTest, RepeatedPairsSolveOnceAtAnyJobs) {
  // Three tiers, each listed twice with alias spellings (k-obj is 2obj):
  // 18 tasks over 9 keys. Each key is solved once whatever the schedule,
  // so the cache counters, like the aggregate, do not depend on --jobs.
  std::vector<WorkloadConfig> Tiers = scalingSuite();
  std::vector<std::string> Sources;
  for (size_t T = 1; T != 4; ++T) // scale-s, -m, -l
    Sources.push_back(generateWorkload(Tiers[T]));
  std::vector<BatchEntry> Entries;
  for (const char *Specs : {"ci,csc,2obj", "ci,k-obj,csc"}) {
    for (size_t T = 1; T != 4; ++T) {
      BatchEntry E;
      E.Label = Tiers[T].Name;
      E.SourceName = Tiers[T].Name + ".jir";
      E.SourceText = Sources[T - 1];
      E.Specs = splitSpecList(Specs);
      Entries.push_back(std::move(E));
    }
  }
  BatchReport R1 = BatchExecutor(withJobs(1)).run(Entries);
  BatchReport R4 = BatchExecutor(withJobs(4)).run(Entries);
  for (const BatchReport *R : {&R1, &R4}) {
    EXPECT_EQ(R->CacheHits, 9u);
    EXPECT_EQ(R->CacheMisses, 9u);
    EXPECT_EQ(R->exitCode(), 0);
  }
  EXPECT_EQ(R1.aggregateJson(), R4.aggregateJson());
}

TEST(BatchExecutorTest, SpecAndLoadFailuresAreSequenced) {
  BatchEntry Bad;
  Bad.Label = "bad-program";
  Bad.SourceName = "bad.jir";
  Bad.SourceText = "class Broken {"; // parse error
  Bad.Specs = {"ci"};
  BatchEntry BadSpec;
  BadSpec.Label = "bad-spec";
  BadSpec.SourceName = "fig.jir";
  BadSpec.SourceText = FigSource;
  BadSpec.Specs = {"no-such-analysis", "ci"};
  BatchReport R = BatchExecutor(withJobs(4)).run({Bad, BadSpec});

  ASSERT_EQ(R.Entries.size(), 2u);
  EXPECT_TRUE(R.Entries[0].LoadFailed);
  EXPECT_FALSE(R.Entries[0].LoadDiags.empty());
  EXPECT_TRUE(R.Entries[0].Runs.empty());

  EXPECT_FALSE(R.Entries[1].LoadFailed);
  ASSERT_EQ(R.Entries[1].Runs.size(), 2u);
  EXPECT_EQ(R.Entries[1].Runs[0].Status, RunStatus::SpecError);
  EXPECT_NE(R.Entries[1].Runs[0].Error.find("unknown analysis"),
            std::string::npos);
  EXPECT_EQ(R.Entries[1].Runs[1].Status, RunStatus::Completed);

  EXPECT_TRUE(R.anyLoadFailed());
  EXPECT_TRUE(R.anySpecError());
  EXPECT_EQ(R.exitCode(), 1);
}

TEST(BatchExecutorTest, AliasedSpellingsShareOneCacheKey) {
  // "k-type" is a registry alias of "2type": identical configuration,
  // so the second entry must be a cache hit and both must serialize
  // under the one canonical name.
  BatchEntry A;
  A.Label = "canonical";
  A.SourceName = "fig.jir";
  A.SourceText = FigSource;
  A.Specs = {"2type;k=3"};
  BatchEntry B = A;
  B.Label = "aliased";
  B.Specs = {"k-type;k=3"};
  BatchReport R = BatchExecutor(withJobs(1)).run({A, B});
  EXPECT_EQ(R.CacheMisses, 1u);
  EXPECT_EQ(R.CacheHits, 1u);
  ASSERT_EQ(R.Entries[1].Runs.size(), 1u);
  EXPECT_TRUE(R.Entries[1].Runs[0].FromCache);
  EXPECT_EQ(R.Entries[0].Runs[0].Canonical, "2type;k=3");
  EXPECT_EQ(R.Entries[1].Runs[0].Canonical, "2type;k=3");
  EXPECT_EQ(R.Entries[0].Runs[0].RunJson, R.Entries[1].Runs[0].RunJson);
}

TEST(BatchExecutorTest, WallClockExhaustionIsNotCached) {
  // The one reuse rule, through both layers. Completed runs and
  // work-budget exhaustions are exact: the second run hits the cache and
  // the store took the entry. A wall-clock timeout depends on machine
  // load, and a spec error carries no result: neither is cached nor
  // published. (CacheKeyCoversSessionBudgets relies on the second row.)
  struct Case {
    const char *Name;
    const char *Spec;
    uint64_t WorkBudget;
    double TimeBudgetMs;
    RunStatus Status;
    bool Reused;
  };
  const Case Cases[] = {
      {"completed", "ci", ~0ULL, 0, RunStatus::Completed, true},
      {"work-budget", "ci", 1, 0, RunStatus::BudgetExhausted, true},
      // Exhausts at the solver's first budget check.
      {"wall-clock", "ci", ~0ULL, 1e-9, RunStatus::BudgetExhausted, false},
      {"spec-error", "no-such-analysis", ~0ULL, 0, RunStatus::SpecError,
       false},
  };
  char Template[] = "reuse-rule-XXXXXX";
  ASSERT_NE(::mkdtemp(Template), nullptr);
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    BatchExecutor::Options O;
    O.WorkBudget = C.WorkBudget;
    O.TimeBudgetMs = C.TimeBudgetMs;
    ResultStore::Options SO;
    SO.Dir = std::string(Template) + "/" + C.Name;
    O.Store = std::make_shared<ResultStore>(SO);
    BatchExecutor Exec(O);
    BatchEntry E;
    E.Label = C.Name;
    E.SourceName = "fig.jir";
    E.SourceText = FigSource;
    E.Specs = {C.Spec};
    BatchReport First = Exec.run({E});
    ASSERT_EQ(First.Entries[0].Runs.size(), 1u);
    EXPECT_EQ(First.Entries[0].Runs[0].Status, C.Status);
    BatchReport Second = Exec.run({E});
    ASSERT_EQ(Second.Entries[0].Runs.size(), 1u);
    EXPECT_EQ(Second.Entries[0].Runs[0].Status, C.Status);
    EXPECT_EQ(Second.CacheHits, C.Reused ? 1u : 0u);
    EXPECT_EQ(Second.Entries[0].Runs[0].FromCache, C.Reused);
    EXPECT_EQ(O.Store->counters().Publishes, C.Reused ? 1u : 0u);
    if (C.Reused) {
      EXPECT_EQ(First.aggregateJson(), Second.aggregateJson());
    }
  }
  std::filesystem::remove_all(Template);
}

TEST(BatchExecutorTest, WallClockExhaustedKeyIsSolvedOncePerRun) {
  // Within one run a key is solved once whatever its outcome: the
  // repeated task copies the exhausted row. Nothing outlives the run, so
  // the next run solves the key again.
  BatchExecutor::Options O;
  O.TimeBudgetMs = 1e-9; // exhausts at the solver's first budget check
  BatchExecutor Exec(O);
  BatchEntry E;
  E.Label = "wall-clock";
  E.SourceName = "fig.jir";
  E.SourceText = FigSource;
  E.Specs = {"ci", "ci"};
  for (int Run = 0; Run != 2; ++Run) {
    SCOPED_TRACE("run " + std::to_string(Run));
    BatchReport R = Exec.run({E});
    ASSERT_EQ(R.Entries[0].Runs.size(), 2u);
    EXPECT_EQ(R.CacheMisses, 1u);
    EXPECT_EQ(R.CacheHits, 1u);
    EXPECT_FALSE(R.Entries[0].Runs[0].FromCache);
    EXPECT_TRUE(R.Entries[0].Runs[1].FromCache);
    EXPECT_EQ(R.Entries[0].Runs[1].Status, RunStatus::BudgetExhausted);
  }
  EXPECT_EQ(Exec.cache().size(), 0u);
}

TEST(BatchExecutorTest, SpecThatDoesNotBuildSkipsTheStore) {
  // "foo;x=1" parses but names no analysis. It is never published, so no
  // pass looks it up: the warm pass hits ci and misses nothing.
  char Template[] = "unbuilt-spec-XXXXXX";
  ASSERT_NE(::mkdtemp(Template), nullptr);
  BatchExecutor::Options O;
  ResultStore::Options SO;
  SO.Dir = Template;
  O.Store = std::make_shared<ResultStore>(SO);
  BatchEntry E;
  E.Label = "unbuilt";
  E.SourceName = "fig.jir";
  E.SourceText = FigSource;
  E.Specs = {"ci", "foo;x=1"};
  BatchReport Cold = BatchExecutor(O).run({E});
  EXPECT_EQ(Cold.StoreHits, 0u);
  EXPECT_EQ(Cold.StoreMisses, 1u);
  BatchReport Warm = BatchExecutor(O).run({E});
  EXPECT_EQ(Warm.StoreHits, 1u);
  EXPECT_EQ(Warm.StoreMisses, 0u);
  ASSERT_EQ(Warm.Entries[0].Runs.size(), 2u);
  EXPECT_EQ(Warm.Entries[0].Runs[1].Status, RunStatus::SpecError);
  EXPECT_EQ(Cold.aggregateJson(), Warm.aggregateJson());
  std::filesystem::remove_all(Template);
}

TEST(BatchExecutorTest, DirectoryAsProgramOrManifestIsUnreadable) {
  // A directory opens like a file but cannot be read; it must fail the
  // entry (or the manifest) by name, not parse as an empty source.
  char Dir[] = "dir-input-XXXXXX";
  ASSERT_NE(::mkdtemp(Dir), nullptr);
  BatchEntry E;
  E.Label = "dir";
  E.Files = {Dir};
  E.Specs = {"ci"};
  BatchReport R = BatchExecutor(withJobs(1)).run({E});
  ASSERT_EQ(R.Entries.size(), 1u);
  EXPECT_TRUE(R.Entries[0].LoadFailed);
  EXPECT_EQ(R.Entries[0].LoadDiags,
            std::vector<std::string>{"error: cannot read '" +
                                     std::string(Dir) + "'"});

  std::vector<BatchEntry> Out;
  std::string Error;
  EXPECT_FALSE(loadBatchManifest(Dir, Out, Error));
  EXPECT_EQ(Error, "cannot read manifest '" + std::string(Dir) + "'");
  EXPECT_FALSE(loadBatchManifest(std::string(Dir) + "/absent.json", Out,
                                 Error));
  EXPECT_EQ(Error, "cannot open manifest '" + std::string(Dir) +
                       "/absent.json'");
  std::filesystem::remove_all(Dir);
}

TEST(BatchExecutorTest, CacheKeyCoversSessionBudgets) {
  // Same program content under two different budgets must not
  // cross-serve: the tight-budget entry exhausts, the unlimited one
  // completes, and neither hits the other's cache line.
  std::vector<std::string> Diags;
  AnalysisSession::Options Tight;
  Tight.WorkBudget = 1;
  std::shared_ptr<AnalysisSession> A =
      AnalysisSession::fromSource("fig.jir", FigSource, Tight, Diags);
  std::shared_ptr<AnalysisSession> B =
      AnalysisSession::fromSource("fig.jir", FigSource, {}, Diags);
  ASSERT_TRUE(A && B);
  BatchEntry EA;
  EA.Label = "tight";
  EA.Session = std::move(A);
  EA.Specs = {"ci"};
  BatchEntry EB;
  EB.Label = "free";
  EB.Session = std::move(B);
  EB.Specs = {"ci"};
  BatchReport R = BatchExecutor(withJobs(1)).run({EA, EB});
  ASSERT_EQ(R.Entries.size(), 2u);
  ASSERT_EQ(R.Entries[0].Runs.size(), 1u);
  ASSERT_EQ(R.Entries[1].Runs.size(), 1u);
  EXPECT_EQ(R.Entries[0].Runs[0].Status, RunStatus::BudgetExhausted);
  EXPECT_EQ(R.Entries[1].Runs[0].Status, RunStatus::Completed);
  EXPECT_EQ(R.CacheHits, 0u);
  EXPECT_EQ(R.exitCode(), 3);
}

TEST(BatchExecutorTest, FingerprintTracksContentNotIdentity) {
  std::vector<std::string> Diags;
  auto A = AnalysisSession::fromSource("a.jir", FigSource, {}, Diags);
  auto B = AnalysisSession::fromSource("b.jir", FigSource, {}, Diags);
  auto C = AnalysisSession::fromSource("c.jir", OtherSource, {}, Diags);
  ASSERT_TRUE(A && B && C);
  EXPECT_EQ(programFingerprint(A->program()),
            programFingerprint(B->program()));
  EXPECT_NE(programFingerprint(A->program()),
            programFingerprint(C->program()));
}

//===----------------------------------------------------------------------===//
// Manifest parsing
//===----------------------------------------------------------------------===//

TEST(BatchManifestTest, ParsesEntriesAndResolvesPaths) {
  std::vector<BatchEntry> Out;
  std::string Error;
  ASSERT_TRUE(parseBatchManifest(
      R"({"entries": [
           {"label": "one", "program": "a.jir", "specs": ["ci", "csc"]},
           {"program": ["x.jir", "/abs/y.jir"], "specs": "2obj, 2type"}
         ]})",
      Out, Error, "/base"))
      << Error;
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].Label, "one");
  ASSERT_EQ(Out[0].Files.size(), 1u);
  EXPECT_EQ(Out[0].Files[0], "/base/a.jir");
  EXPECT_EQ(Out[0].Specs, (std::vector<std::string>{"ci", "csc"}));
  EXPECT_EQ(Out[1].Files,
            (std::vector<std::string>{"/base/x.jir", "/abs/y.jir"}));
  EXPECT_EQ(Out[1].Specs, (std::vector<std::string>{"2obj", "2type"}));
}

TEST(BatchManifestTest, RejectsMalformedManifests) {
  std::vector<BatchEntry> Out;
  std::string Error;

  EXPECT_FALSE(parseBatchManifest("[", Out, Error));
  EXPECT_EQ(Error.rfind("manifest: line 1:", 0), 0u) << Error;

  EXPECT_FALSE(parseBatchManifest("[]", Out, Error));
  EXPECT_NE(Error.find("top level must be an object"), std::string::npos);

  EXPECT_FALSE(parseBatchManifest("{}", Out, Error));
  EXPECT_NE(Error.find("missing \"entries\""), std::string::npos);

  EXPECT_FALSE(parseBatchManifest(R"({"entries": []})", Out, Error));
  EXPECT_NE(Error.find("\"entries\" is empty"), std::string::npos);

  EXPECT_FALSE(parseBatchManifest(
      R"({"entries": [{"specs": ["ci"]}]})", Out, Error));
  EXPECT_EQ(Error, "manifest: entry 0: missing \"program\"");

  EXPECT_FALSE(parseBatchManifest(
      R"({"entries": [{"program": "a.jir"}]})", Out, Error));
  EXPECT_EQ(Error, "manifest: entry 0: missing \"specs\"");

  EXPECT_FALSE(parseBatchManifest(
      R"({"entries": [{"program": "a.jir", "specs": []}]})", Out, Error));
  EXPECT_EQ(Error, "manifest: entry 0: \"specs\" is empty");

  EXPECT_FALSE(parseBatchManifest(
      R"({"entries": [{"program": 3, "specs": ["ci"]}]})", Out, Error));
  EXPECT_NE(Error.find("\"program\" must be a path"), std::string::npos);
}
