//===- cscpta.cpp - Cut-Shortcut pointer-analysis driver ------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// The end-user entry point: loads one or more `.jir` files (the modelled
// standard library prepended unless --no-stdlib), runs a comma-separated
// list of registered analysis specs over the one parsed program, and
// reports per-analysis precision metrics as a human table or JSON.
//
// Usage: cscpta [options] <file.jir>... | --batch <manifest.json> |
// --serve <file.jir>... The option list is usage() below; docs/CLI.md
// is the full reference (scripts/check_docs.sh checks that it documents
// every flag the parser below accepts).
//
// Exit codes: 0 success, 1 load/spec failure, 2 usage error, 3 at least
// one analysis exhausted its budget.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisSession.h"
#include "client/BatchExecutor.h"
#include "client/Report.h"
#include "server/AnalysisServer.h"
#include "store/ResultStore.h"
#include "support/ParallelFor.h"

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

using namespace csc;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [options] <file.jir>...\n"
      "       %s [options] --batch <manifest.json>\n"
      "       %s [options] --serve <file.jir>...\n"
      "  --analyses <list>  comma-separated analysis specs (default: csc)\n"
      "  --json             emit a JSON report on stdout\n"
      "  --points-to <var>  query pt() of \"Class.method.var\" (repeatable,\n"
      "                     comma-separable; one fixpoint serves all)\n"
      "  --serve            NDJSON request/response session on stdin/stdout\n"
      "  --budget-ms <n>    wall-clock budget per analysis in ms\n"
      "  --work-budget <n>  points-to-insertion budget per analysis\n"
      "  --jobs <n>         run up to n analyses side by side\n"
      "  --batch <manifest> run a {program, specs[]} manifest\n"
      "  --repeat <n>       run the batch n times in-process\n"
      "  --store <dir>      persistent result store (serves repeat runs\n"
      "                     across processes; see docs/CLI.md)\n"
      "  --workers <n>      distribute --batch over n pull-mode workers\n"
      "                     coordinating through a task ledger in --store\n"
      "  --worker-pull      internal: pull task leases until drained\n"
      "  --lease-ttl <ms>   task lease TTL for --workers (default 5000)\n"
      "  --max-task-attempts <n> quarantine a task after n failed leases\n"
      "  --store-max-bytes <n>  GC --store down to n bytes (LRU)\n"
      "  --store-max-age <s>    GC --store entries unused for s seconds\n"
      "  --scrub            validate every --store entry and exit\n"
      "  --stats            per-run solver/SCC statistics on stderr\n"
      "  --no-stdlib        do not prepend the modelled standard library\n"
      "  --verbose          phase progress on stderr\n"
      "  --list             list registered analyses and exit\n",
      Prog, Prog, Prog);
  return 2;
}

struct CliOptions {
  std::vector<std::string> Files;
  std::string Analyses = "csc";
  bool AnalysesSet = false; ///< --analyses given (conflicts with --batch).
  std::vector<std::string> PointsToQueries;
  std::string BatchManifest;
  std::string StoreDir;
  unsigned Workers = 0;    ///< 0 = no worker fleet.
  bool WorkerPull = false; ///< --worker-pull (lease-pulling worker).
  uint64_t LeaseTtlMs = 5000;
  unsigned MaxTaskAttempts = 3;
  uint64_t StoreMaxBytes = 0; ///< 0 = no byte-budget GC.
  uint64_t StoreMaxAgeS = 0;  ///< 0 = no age GC.
  bool Scrub = false;
  double BudgetMs = 0;
  uint64_t WorkBudget = ~0ULL;
  unsigned Jobs = 1;
  unsigned Repeat = 1;
  bool Json = false;
  bool Stats = false;
  bool NoStdlib = false;
  bool Verbose = false;
  bool List = false;
  bool Serve = false;
};

/// Accepts "--opt value" and "--opt=value".
bool takeValue(int Argc, char **Argv, int &I, const char *Opt,
               std::string &Out) {
  std::string Arg = Argv[I];
  std::string Prefix = std::string(Opt) + "=";
  if (Arg.rfind(Prefix, 0) == 0) {
    Out = Arg.substr(Prefix.size());
    return true;
  }
  if (Arg == Opt) {
    if (I + 1 >= Argc)
      return false;
    Out = Argv[++I];
    return true;
  }
  return false;
}

bool matchesOpt(const char *Arg, const char *Opt) {
  std::string A = Arg;
  return A == Opt || A.rfind(std::string(Opt) + "=", 0) == 0;
}

bool parseDoubleArg(const std::string &Val, const char *Opt, double &Out) {
  errno = 0;
  char *End = nullptr;
  double D = std::strtod(Val.c_str(), &End);
  if (errno != 0 || End == Val.c_str() || *End != '\0' || D < 0 ||
      !std::isfinite(D)) {
    std::fprintf(stderr,
                 "error: %s expects a non-negative number, got '%s'\n", Opt,
                 Val.c_str());
    return false;
  }
  Out = D;
  return true;
}

bool parseUint64Arg(const std::string &Val, const char *Opt, uint64_t &Out) {
  errno = 0;
  char *End = nullptr;
  unsigned long long N = std::strtoull(Val.c_str(), &End, 10);
  if (errno != 0 || End == Val.c_str() || *End != '\0') {
    std::fprintf(stderr,
                 "error: %s expects a non-negative integer, got '%s'\n", Opt,
                 Val.c_str());
    return false;
  }
  Out = N;
  return true;
}

bool parsePositiveArg(const std::string &Val, const char *Opt,
                      unsigned &Out) {
  uint64_t N = 0;
  if (!parseUint64Arg(Val, Opt, N))
    return false; // already diagnosed
  if (N == 0 || N > 1024) {
    std::fprintf(stderr, "error: %s expects a positive integer <= 1024\n",
                 Opt);
    return false;
  }
  Out = static_cast<unsigned>(N);
  return true;
}

//===----------------------------------------------------------------------===//
// Persistent result store
//===----------------------------------------------------------------------===//

/// Largest --store-max-age whose millisecond bound fits in 64 bits.
constexpr uint64_t MaxStoreAgeS = ~0ULL / 1000;

/// Opens --store, degrading to "no store" with a warning when the
/// directory is unusable — a broken store must never fail the analysis.
std::shared_ptr<ResultStore> openStore(const CliOptions &Cli) {
  if (Cli.StoreDir.empty())
    return nullptr;
  ResultStore::Options SO;
  SO.Dir = Cli.StoreDir;
  SO.MaxBytes = Cli.StoreMaxBytes;
  SO.MaxAgeMs = Cli.StoreMaxAgeS * 1000;
  auto Store = std::make_shared<ResultStore>(SO);
  if (!Store->usable()) {
    std::fprintf(stderr,
                 "warning: result store '%s' is unusable (%s); "
                 "continuing without it\n",
                 Cli.StoreDir.c_str(), Store->error().c_str());
    return nullptr;
  }
  return Store;
}

/// `--stats` store counter line; \p Served / \p Total are the runs of
/// this invocation answered straight from the store.
void printStoreStats(const ResultStore &Store, uint64_t Served,
                     uint64_t Total) {
  ResultStore::Counters C = Store.counters();
  std::fprintf(stderr,
               "[cscpta] store stats: served %llu/%llu runs, hits %llu, "
               "misses %llu, publishes %llu, corrupt_evictions %llu, "
               "gc_evictions %llu\n",
               static_cast<unsigned long long>(Served),
               static_cast<unsigned long long>(Total),
               static_cast<unsigned long long>(C.Hits),
               static_cast<unsigned long long>(C.Misses),
               static_cast<unsigned long long>(C.Publishes),
               static_cast<unsigned long long>(C.CorruptEvictions),
               static_cast<unsigned long long>(C.GcEvictions));
}

/// The cscpta binary to exec as a --workers child: /proc/self/exe where
/// available (immune to $PATH and cwd changes), else how we were run.
std::string workerExePath(const char *Argv0) {
  std::FILE *F = std::fopen("/proc/self/exe", "rb");
  if (F) {
    std::fclose(F);
    return "/proc/self/exe";
  }
  return Argv0;
}

//===----------------------------------------------------------------------===//
// Batch mode
//===----------------------------------------------------------------------===//

void printBatchHuman(const BatchReport &Report) {
  std::printf("%-18s %-18s %-16s %10s %10s %10s %10s %12s\n", "entry",
              "analysis", "status", "time(ms)", "#fail-cast", "#reach-mtd",
              "#poly-call", "#call-edge");
  for (const BatchEntryResult &E : Report.Entries) {
    if (E.LoadFailed) {
      std::printf("%-18s %-18s %-16s\n", E.Label.c_str(), "-",
                  "load-failed");
      continue;
    }
    for (const BatchRunResult &R : E.Runs) {
      if (R.Status != RunStatus::Completed) {
        std::printf("%-18s %-18s %-16s %10.1f %10s %10s %10s %12s\n",
                    E.Label.c_str(), R.Spec.c_str(),
                    runStatusName(R.Status), R.WallMs, "-", "-", "-", "-");
        continue;
      }
      std::printf("%-18s %-18s %-13s%3s %10.1f %10u %10u %10u %12llu\n",
                  E.Label.c_str(), R.Spec.c_str(), runStatusName(R.Status),
                  R.FromCache    ? "(c)"
                  : R.FromStore  ? "(s)"
                                 : "",
                  R.WallMs, R.Metrics.FailCasts,
                  R.Metrics.ReachMethods, R.Metrics.PolyCalls,
                  static_cast<unsigned long long>(R.Metrics.CallEdges));
    }
  }
}

void printBatchStats(const BatchReport &Report, unsigned Pass,
                     unsigned Passes) {
  double Secs = Report.WallMs / 1000.0;
  std::fprintf(stderr,
               "[cscpta] batch pass %u/%u: %zu runs, jobs %u, %.1f ms "
               "(%.1f specs/s), cache hits %llu, misses %llu\n",
               Pass, Passes, Report.totalRuns(), Report.Jobs,
               Report.WallMs,
               Secs > 0 ? static_cast<double>(Report.totalRuns()) / Secs
                        : 0.0,
               static_cast<unsigned long long>(Report.CacheHits),
               static_cast<unsigned long long>(Report.CacheMisses));
}

/// Maps a ledger task id back to its (entry label, spec) for
/// diagnostics, using the shared linear numbering.
std::pair<std::string, std::string>
taskName(const std::vector<BatchEntry> &Entries, uint32_t Task) {
  size_t Linear = 0;
  for (const BatchEntry &E : Entries)
    for (const std::string &Spec : E.Specs) {
      if (Linear == Task) {
        std::string Label = !E.Label.empty()
                                ? E.Label
                                : !E.Files.empty() ? E.Files.front()
                                                   : "<batch>";
        return {Label, Spec};
      }
      ++Linear;
    }
  return {"<unknown>", "?"};
}

int runBatch(const CliOptions &Cli, const char *Argv0) {
  std::vector<BatchEntry> Entries;
  std::string Error;
  if (!loadBatchManifest(Cli.BatchManifest, Entries, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  std::shared_ptr<ResultStore> Store = openStore(Cli);
  // --worker-pull: a spawned worker. It computes its leased tasks,
  // publishes into the store, and stays silent on stdout — the
  // coordinator prints the one authoritative report.
  if (Cli.WorkerPull) {
    if (!Store)
      return 2; // nothing to coordinate through; supervisor compensates
    BatchExecutor::Options WO;
    WO.Jobs = Cli.Jobs;
    WO.WithStdlib = !Cli.NoStdlib;
    WO.WorkBudget = Cli.WorkBudget;
    WO.TimeBudgetMs = Cli.BudgetMs;
    WO.Store = Store;
    return runPullWorker(Entries, WO, Cli.StoreDir + "/ledger.bin",
                         batchFingerprint(Entries));
  }

  bool FleetRan = false;
  bool HadQuarantine = false;
  if (Cli.Workers > 0) {
    if (!Store) {
      // Unusable store: the fleet has nothing to coordinate through.
      std::fprintf(stderr, "warning: --workers needs a usable --store; "
                           "running the batch in-process\n");
    } else {
      WorkerFleetOptions FO;
      FO.Exe = workerExePath(Argv0);
      FO.ManifestPath = Cli.BatchManifest;
      FO.StoreDir = Cli.StoreDir;
      FO.Workers = Cli.Workers;
      FO.Jobs = Cli.Jobs;
      FO.WithStdlib = !Cli.NoStdlib;
      FO.WorkBudget = Cli.WorkBudget;
      FO.TimeBudgetMs = Cli.BudgetMs;
      FO.Verbose = Cli.Verbose;
      FO.BatchFingerprint = batchFingerprint(Entries);
      FO.TaskCount = static_cast<uint32_t>(countBatchTasks(Entries));
      FO.LeaseTtlMs = static_cast<uint32_t>(Cli.LeaseTtlMs);
      FO.MaxAttempts = Cli.MaxTaskAttempts;
      FO.RestartBudget = Cli.Workers * Cli.MaxTaskAttempts + 4;
      FleetReport FR = runWorkerFleet(FO);
      FleetRan = FR.LedgerOk;
      if (!FR.LedgerOk)
        std::fprintf(stderr,
                     "warning: fleet task ledger unusable; running the "
                     "batch in-process\n");
      if (Cli.Stats && FR.LedgerOk)
        std::fprintf(stderr,
                     "[cscpta] fleet stats: spawned %u workers "
                     "(%u respawns), %s; tasks %u done, %u quarantined\n",
                     FR.Spawned, FR.Respawns,
                     FR.exitCauseSummary().c_str(), FR.Final.Done,
                     FR.Final.Quarantined);
      for (uint32_t T = 0; T != FR.Tasks.size(); ++T) {
        const TaskLedger::Task &Task = FR.Tasks[T];
        if (Task.State != TaskLedger::TaskState::Quarantined)
          continue;
        HadQuarantine = true;
        auto [Label, Spec] = taskName(Entries, T);
        std::fprintf(stderr,
                     "error: task %u (%s: %s) quarantined after %u "
                     "attempts: %s\n",
                     T, Label.c_str(), Spec.c_str(), Task.Attempts,
                     Task.Diag.c_str());
      }
      // Fall through: the coordinator's own batch run below serves the
      // fleet's published results from the warm store and computes
      // whatever the fleet didn't finish — including quarantined tasks,
      // so the aggregate stays byte-identical under any crash schedule.
    }
  }

  BatchExecutor::Options BO;
  BO.Jobs = Cli.Jobs;
  BO.WithStdlib = !Cli.NoStdlib;
  BO.WorkBudget = Cli.WorkBudget;
  BO.TimeBudgetMs = Cli.BudgetMs;
  BO.Store = Store;
  BatchExecutor Exec(BO);

  BatchReport Report;
  for (unsigned Pass = 1; Pass <= Cli.Repeat; ++Pass) {
    Report = Exec.run(Entries);
    printBatchStats(Report, Pass, Cli.Repeat);
  }

  // The authoritative report has consumed everything the fleet
  // published: retire the ledger (and with it the GC pins on its store
  // keys), then let GC re-enforce the configured bounds.
  if (FleetRan) {
    std::remove((Cli.StoreDir + "/ledger.bin").c_str());
    std::remove((Cli.StoreDir + "/ledger.bin.lock").c_str());
    if (Store)
      Store->gc();
  }

  if (Cli.Stats) {
    const ResultCache &C = Exec.cache();
    std::fprintf(stderr,
                 "[cscpta] cache stats: hits %llu, misses %llu, %zu "
                 "entries\n",
                 static_cast<unsigned long long>(C.hits()),
                 static_cast<unsigned long long>(C.misses()), C.size());
    if (Store) {
      uint64_t Served = 0, Total = 0;
      for (const BatchEntryResult &E : Report.Entries)
        for (const BatchRunResult &R : E.Runs) {
          ++Total;
          if (R.FromStore)
            ++Served;
        }
      printStoreStats(*Store, Served, Total);
    }
  }

  if (Cli.Json) {
    std::printf("%s\n", Report.aggregateJson().c_str());
  } else {
    printBatchHuman(Report);
    std::printf("batch: %zu runs over %zu entries, jobs %u, last pass "
                "%.1f ms, cache hits %llu\n",
                Report.totalRuns(), Report.Entries.size(), Report.Jobs,
                Report.WallMs,
                static_cast<unsigned long long>(Report.CacheHits));
  }
  for (const BatchEntryResult &E : Report.Entries) {
    for (const std::string &D : E.LoadDiags)
      std::fprintf(stderr, "%s: %s\n", E.Label.c_str(), D.c_str());
    for (const BatchRunResult &R : E.Runs)
      if (R.Status == RunStatus::SpecError)
        std::fprintf(stderr, "error: %s: %s\n", E.Label.c_str(),
                     R.Error.c_str());
  }
  int RC = Report.exitCode();
  // A quarantined task means some worker crash-looped: the aggregate is
  // still complete (recomputed in-process), but the condition needs
  // operator attention — fail the coordinator.
  if (HadQuarantine && RC == 0)
    RC = 1;
  return RC;
}

/// `--stats`: one stderr line per completed run with the scheduling
/// diagnostics deliberately kept out of the JSON report (worklist pops,
/// cycle-elimination counters). stderr so `--json` stdout stays pure.
void printRunStats(const AnalysisRun &Run) {
  if (!Run.completed())
    return;
  const SolverStats &S = Run.Result.Stats;
  const SccStats &C = S.Scc;
  std::fprintf(
      stderr,
      "[cscpta] stats %s: pops %llu, pts-insertions %llu, pfg-edges %llu"
      " | scc: %llu collapsed (%llu members; %llu full passes), ~%llu "
      "propagations saved\n",
      Run.Name.c_str(), static_cast<unsigned long long>(S.WorklistPops),
      static_cast<unsigned long long>(S.PtsInsertions),
      static_cast<unsigned long long>(S.PFGEdges),
      static_cast<unsigned long long>(C.SccsFound),
      static_cast<unsigned long long>(C.MembersCollapsed),
      static_cast<unsigned long long>(C.FullPasses),
      static_cast<unsigned long long>(C.PropagationsSaved));
}

void printPointsTo(const Program &P, const PTAResult &R,
                   const std::string &Query) {
  VarId V = P.varByName(Query);
  if (V == InvalidId) {
    std::printf("  pt(%s) = <no such variable>\n", Query.c_str());
    return;
  }
  std::printf("  pt(%s) = {", Query.c_str());
  bool First = true;
  R.pt(V).forEach([&](ObjId O) {
    std::printf("%so%u:%s", First ? "" : ", ", O,
                P.type(P.obj(O).Type).Name.c_str());
    First = false;
  });
  std::printf("}\n");
}

void appendPointsToJson(JsonWriter &J, const Program &P, const PTAResult &R,
                        const std::string &Query) {
  J.beginObject().kv("var", Query);
  VarId V = P.varByName(Query);
  if (V == InvalidId) {
    J.kv("found", false).endObject();
    return;
  }
  J.kv("found", true);
  appendObjectsJson(J, P, R.pt(V));
  J.endObject();
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    std::string Val;
    if (matchesOpt(Argv[I], "--analyses")) {
      if (!takeValue(Argc, Argv, I, "--analyses", Cli.Analyses))
        return usage(Argv[0]);
      Cli.AnalysesSet = true;
    } else if (matchesOpt(Argv[I], "--points-to")) {
      if (!takeValue(Argc, Argv, I, "--points-to", Val))
        return usage(Argv[0]);
      // Comma-separable: variable names never contain commas, and one
      // fixpoint amortizes across however many queries arrive.
      size_t Start = 0;
      while (Start <= Val.size()) {
        size_t Comma = Val.find(',', Start);
        std::string Q = Val.substr(
            Start, Comma == std::string::npos ? Comma : Comma - Start);
        if (!Q.empty())
          Cli.PointsToQueries.push_back(Q);
        if (Comma == std::string::npos)
          break;
        Start = Comma + 1;
      }
    } else if (matchesOpt(Argv[I], "--budget-ms")) {
      if (!takeValue(Argc, Argv, I, "--budget-ms", Val) ||
          !parseDoubleArg(Val, "--budget-ms", Cli.BudgetMs))
        return usage(Argv[0]);
    } else if (matchesOpt(Argv[I], "--work-budget")) {
      if (!takeValue(Argc, Argv, I, "--work-budget", Val) ||
          !parseUint64Arg(Val, "--work-budget", Cli.WorkBudget))
        return usage(Argv[0]);
    } else if (matchesOpt(Argv[I], "--jobs")) {
      if (!takeValue(Argc, Argv, I, "--jobs", Val) ||
          !parsePositiveArg(Val, "--jobs", Cli.Jobs))
        return usage(Argv[0]);
    } else if (matchesOpt(Argv[I], "--repeat")) {
      if (!takeValue(Argc, Argv, I, "--repeat", Val) ||
          !parsePositiveArg(Val, "--repeat", Cli.Repeat))
        return usage(Argv[0]);
    } else if (matchesOpt(Argv[I], "--batch")) {
      if (!takeValue(Argc, Argv, I, "--batch", Cli.BatchManifest))
        return usage(Argv[0]);
    } else if (matchesOpt(Argv[I], "--store")) {
      if (!takeValue(Argc, Argv, I, "--store", Cli.StoreDir) ||
          Cli.StoreDir.empty())
        return usage(Argv[0]);
    } else if (matchesOpt(Argv[I], "--workers")) {
      if (!takeValue(Argc, Argv, I, "--workers", Val) ||
          !parsePositiveArg(Val, "--workers", Cli.Workers))
        return usage(Argv[0]);
    } else if (Arg == "--worker-pull") {
      Cli.WorkerPull = true;
    } else if (matchesOpt(Argv[I], "--lease-ttl")) {
      if (!takeValue(Argc, Argv, I, "--lease-ttl", Val) ||
          !parseUint64Arg(Val, "--lease-ttl", Cli.LeaseTtlMs))
        return usage(Argv[0]);
      if (Cli.LeaseTtlMs == 0 || Cli.LeaseTtlMs > 3600000) {
        std::fprintf(stderr, "error: --lease-ttl expects milliseconds in "
                             "[1, 3600000]\n");
        return usage(Argv[0]);
      }
    } else if (matchesOpt(Argv[I], "--max-task-attempts")) {
      if (!takeValue(Argc, Argv, I, "--max-task-attempts", Val) ||
          !parsePositiveArg(Val, "--max-task-attempts",
                            Cli.MaxTaskAttempts))
        return usage(Argv[0]);
    } else if (matchesOpt(Argv[I], "--store-max-bytes")) {
      if (!takeValue(Argc, Argv, I, "--store-max-bytes", Val) ||
          !parseUint64Arg(Val, "--store-max-bytes", Cli.StoreMaxBytes))
        return usage(Argv[0]);
    } else if (matchesOpt(Argv[I], "--store-max-age")) {
      if (!takeValue(Argc, Argv, I, "--store-max-age", Val) ||
          !parseUint64Arg(Val, "--store-max-age", Cli.StoreMaxAgeS))
        return usage(Argv[0]);
      if (Cli.StoreMaxAgeS > MaxStoreAgeS) {
        std::fprintf(stderr,
                     "error: --store-max-age expects a non-negative integer "
                     "<= %llu\n",
                     static_cast<unsigned long long>(MaxStoreAgeS));
        return usage(Argv[0]);
      }
    } else if (Arg == "--scrub") {
      Cli.Scrub = true;
    } else if (Arg == "--json") {
      Cli.Json = true;
    } else if (Arg == "--serve") {
      Cli.Serve = true;
    } else if (Arg == "--stats") {
      Cli.Stats = true;
    } else if (Arg == "--no-stdlib") {
      Cli.NoStdlib = true;
    } else if (Arg == "--verbose") {
      Cli.Verbose = true;
    } else if (Arg == "--list") {
      Cli.List = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    } else {
      Cli.Files.push_back(Arg);
    }
  }

  if (Cli.List) {
    std::printf("registered analyses:\n");
    for (const auto &[Name, Desc] : AnalysisRegistry::global().list())
      std::printf("  %-10s %s\n", Name.c_str(), Desc.c_str());
    std::printf("spec syntax: name[;key=value]..., comma-separated; e.g. "
                "\"ci,k-type;k=3,zipper-e;pv=0.05\"\n");
    return 0;
  }
  if (Cli.Scrub) {
    if (Cli.StoreDir.empty()) {
      std::fprintf(stderr, "error: --scrub requires --store\n");
      return usage(Argv[0]);
    }
    if (!Cli.Files.empty() || !Cli.BatchManifest.empty() || Cli.Serve) {
      std::fprintf(stderr,
                   "error: --scrub takes no programs, --batch, or "
                   "--serve\n");
      return usage(Argv[0]);
    }
    ResultStore::Options SO;
    SO.Dir = Cli.StoreDir;
    ResultStore Store(SO);
    if (!Store.usable()) {
      std::fprintf(stderr, "error: result store '%s' is unusable (%s)\n",
                   Cli.StoreDir.c_str(), Store.error().c_str());
      return 1;
    }
    ResultStore::ScrubReport R = Store.scrub();
    std::printf("[cscpta] store scrub: %llu entries valid, %llu corrupt "
                "(evicted), %llu bytes\n",
                static_cast<unsigned long long>(R.Valid),
                static_cast<unsigned long long>(R.Corrupt),
                static_cast<unsigned long long>(R.Bytes));
    return 0;
  }
  if ((Cli.Workers > 0 || Cli.WorkerPull) &&
      (Cli.BatchManifest.empty() || Cli.StoreDir.empty())) {
    std::fprintf(stderr, "error: %s requires --batch and --store\n",
                 Cli.Workers > 0 ? "--workers" : "--worker-pull");
    return usage(Argv[0]);
  }
  if (Cli.Workers > 0 && Cli.WorkerPull) {
    std::fprintf(stderr, "error: --workers and --worker-pull are mutually "
                         "exclusive\n");
    return usage(Argv[0]);
  }
  if (Cli.StoreDir.empty() &&
      (Cli.StoreMaxBytes != 0 || Cli.StoreMaxAgeS != 0)) {
    std::fprintf(stderr, "error: --store-max-bytes/--store-max-age "
                         "require --store\n");
    return usage(Argv[0]);
  }
  if (Cli.Serve) {
    if (!Cli.BatchManifest.empty()) {
      std::fprintf(stderr, "error: --serve conflicts with --batch\n");
      return usage(Argv[0]);
    }
    if (!Cli.PointsToQueries.empty()) {
      std::fprintf(stderr, "error: --points-to is not available with "
                           "--serve (send query requests instead)\n");
      return usage(Argv[0]);
    }
    if (Cli.Json) {
      std::fprintf(stderr, "error: --json is not available with --serve "
                           "(responses are always JSON)\n");
      return usage(Argv[0]);
    }
    if (Cli.Repeat != 1) {
      std::fprintf(stderr, "error: --repeat requires --batch\n");
      return usage(Argv[0]);
    }
    if (Cli.Files.empty())
      return usage(Argv[0]);
    AnalysisServer::Options AO;
    AO.WithStdlib = !Cli.NoStdlib;
    AO.WorkBudget = Cli.WorkBudget;
    AO.TimeBudgetMs = Cli.BudgetMs;
    AO.Store = openStore(Cli);
    if (Cli.AnalysesSet) {
      std::vector<std::string> Specs = splitSpecList(Cli.Analyses);
      if (Specs.size() != 1) {
        std::fprintf(stderr,
                     "error: --serve takes a single --analyses spec (the "
                     "default for queries that omit \"spec\")\n");
        return usage(Argv[0]);
      }
      AO.DefaultSpec = Specs.front();
    } else {
      AO.DefaultSpec = "ci"; // incremental-capable default
    }
    AnalysisServer Server(AO);
    std::vector<std::string> Diags;
    if (!Server.loadFiles(Cli.Files, Diags)) {
      for (const std::string &D : Diags)
        std::fprintf(stderr, "%s\n", D.c_str());
      return 1;
    }
    if (Cli.Verbose)
      std::fprintf(stderr, "[cscpta] serving %zu file(s), default spec "
                           "'%s'\n",
                   Cli.Files.size(), AO.DefaultSpec.c_str());
    return Server.serve(std::cin, std::cout);
  }
  if (!Cli.BatchManifest.empty()) {
    if (!Cli.Files.empty()) {
      std::fprintf(stderr,
                   "error: --batch takes programs from the manifest; "
                   "positional .jir files are not allowed\n");
      return usage(Argv[0]);
    }
    if (!Cli.PointsToQueries.empty()) {
      std::fprintf(stderr,
                   "error: --points-to is not available with --batch\n");
      return usage(Argv[0]);
    }
    if (Cli.AnalysesSet) {
      std::fprintf(stderr, "error: --analyses conflicts with --batch "
                           "(specs come from the manifest)\n");
      return usage(Argv[0]);
    }
    return runBatch(Cli, Argv[0]);
  }
  if (Cli.Repeat != 1) {
    std::fprintf(stderr, "error: --repeat requires --batch\n");
    return usage(Argv[0]);
  }
  std::vector<std::string> Specs = splitSpecList(Cli.Analyses);
  if (Specs.empty()) {
    std::fprintf(stderr, "error: no analyses requested\n");
    return usage(Argv[0]);
  }
  if (Cli.Files.empty())
    return usage(Argv[0]);

  AnalysisSession::Options SO;
  SO.WithStdlib = !Cli.NoStdlib;
  SO.TimeBudgetMs = Cli.BudgetMs;
  SO.WorkBudget = Cli.WorkBudget;
  if (Cli.Verbose)
    SO.Progress = [](const char *Phase, const std::string &Detail) {
      std::fprintf(stderr, "[cscpta] %s %s\n", Phase, Detail.c_str());
    };

  std::vector<std::string> Diags;
  std::unique_ptr<AnalysisSession> S =
      AnalysisSession::fromFiles(Cli.Files, std::move(SO), Diags);
  if (!S) {
    for (const std::string &D : Diags)
      std::fprintf(stderr, "%s\n", D.c_str());
    return 1;
  }
  const Program &P = S->program();

  // Each spec runs in its own slot. Only a store run builds keys: the
  // fingerprint would cost a storeless run time for nothing.
  std::shared_ptr<ResultStore> Store = openStore(Cli);
  std::optional<ResultKeys> Keys;
  if (Store)
    Keys.emplace(*S);
  std::vector<AnalysisRun> Runs(Specs.size());
  std::atomic<uint64_t> StoreServed{0};
  parallelFor(Specs.size(), Cli.Jobs, [&](size_t I) {
    if (!Keys) {
      Runs[I] = S->run(Specs[I]);
      return;
    }
    ResultKey K;
    Keys->key(Specs[I], K);
    ResultKeys::Outcome R = Keys->lookupOrRun(*S, Store.get(), Specs[I], K);
    StoreServed += R.Served;
    Runs[I] = std::move(R.Run);
  });

  bool AnySpecError = false, AnyExhausted = false;
  for (const AnalysisRun &Run : Runs) {
    if (Run.Status == RunStatus::SpecError) {
      AnySpecError = true;
      std::fprintf(stderr, "error: %s\n", Run.Error.c_str());
    }
    AnyExhausted = AnyExhausted || Run.exhausted();
    if (Cli.Stats)
      printRunStats(Run);
  }
  if (Cli.Stats && Store)
    printStoreStats(*Store, StoreServed.load(), Runs.size());

  if (Cli.Json) {
    JsonWriter J;
    J.beginObject();
    J.kv("tool", "cscpta");
    J.key("files").beginArray();
    for (const std::string &F : Cli.Files)
      J.value(F);
    J.endArray();
    J.key("program");
    appendProgramSummaryJson(J, P);
    J.kv("parse_ms", S->parseMs()).kv("verify_ms", S->verifyMs());
    J.key("runs").beginArray();
    for (const AnalysisRun &Run : Runs)
      appendRunJson(J, Run);
    J.endArray();
    if (!Cli.PointsToQueries.empty()) {
      J.key("queries").beginArray();
      for (const AnalysisRun &Run : Runs) {
        if (!Run.completed())
          continue;
        for (const std::string &Q : Cli.PointsToQueries) {
          J.beginObject().kv("analysis", Run.Name).key("points_to");
          appendPointsToJson(J, P, Run.Result, Q);
          J.endObject();
        }
      }
      J.endArray();
    }
    J.endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("program: %u classes, %u methods, %u statements "
                "(%zu file(s), parse %.1f ms)\n",
                P.numTypes(), P.numMethods(), P.numStmts(),
                Cli.Files.size(), S->parseMs());
    std::printf("%-18s %-16s %10s %10s %10s %10s %12s\n", "analysis",
                "status", "time(ms)", "#fail-cast", "#reach-mtd",
                "#poly-call", "#call-edge");
    for (const AnalysisRun &Run : Runs) {
      if (Run.Status == RunStatus::SpecError) {
        std::printf("%-18s %-16s\n", Run.Name.c_str(),
                    runStatusName(Run.Status));
        continue;
      }
      if (!Run.completed()) {
        std::printf("%-18s %-16s %10.1f %10s %10s %10s %12s\n",
                    Run.Name.c_str(), runStatusName(Run.Status),
                    Run.Timings.TotalMs, "-", "-", "-", "-");
        continue;
      }
      std::printf("%-18s %-16s %10.1f %10u %10u %10u %12llu\n",
                  Run.Name.c_str(), runStatusName(Run.Status),
                  Run.Timings.TotalMs, Run.Metrics.FailCasts,
                  Run.Metrics.ReachMethods, Run.Metrics.PolyCalls,
                  static_cast<unsigned long long>(Run.Metrics.CallEdges));
      if (Run.Csc.ShortcutEdges || Run.Csc.CutStores)
        std::printf("  cut-shortcut: %llu cut stores, %llu cut returns, "
                    "%llu shortcut edges, %zu involved methods\n",
                    static_cast<unsigned long long>(Run.Csc.CutStores),
                    static_cast<unsigned long long>(Run.Csc.CutReturns),
                    static_cast<unsigned long long>(Run.Csc.ShortcutEdges),
                    Run.Csc.Involved.size());
      if (Run.SelectedMethods)
        std::printf("  zipper-e: %u selected methods, pre-analysis %.1f ms"
                    "%s\n",
                    Run.SelectedMethods, Run.Timings.PreMs,
                    Run.PreFromCache ? " (cached)" : "");
      for (const std::string &Q : Cli.PointsToQueries)
        printPointsTo(P, Run.Result, Q);
    }
  }

  if (AnySpecError)
    return 1;
  if (AnyExhausted)
    return 3;
  return 0;
}
