//===- BatchExecutor.h - Parallel batch analysis engine ---------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs N analysis specs over M programs concurrently, with two layers
/// of sharing:
///
///  * one immutable, verified AnalysisSession per distinct program —
///    loaded once and shared by every spec task over it, including the
///    session's internally synchronized pre-analysis slot (every
///    zipper-e task over a program reads one ci fixpoint), and
///  * an in-process ResultCache keyed by the one result key
///    (store/ResultStore.h: program content, canonical spec, budgets,
///    registry) — a repeated (program, spec) pair anywhere in the batch,
///    or across run() calls on one executor, reuses the serialized result
///    instead of re-solving. With Options::Store the same key then
///    consults the persistent store before computing.
///
/// run() works in phases: plan the tasks, load the programs not loaded
/// yet (in parallel), key every task against the cache and this run's
/// earlier tasks, solve each key the run owns (in parallel), then fan
/// the owners' rows out to their duplicates. Within one run() a key is
/// solved once whatever its outcome; ResultKeys::reusable alone decides
/// what outlives the run in the cache and the store. Only the sequential
/// steps touch the slots and the cache, so neither needs a lock, and the
/// cache counters do not depend on --jobs.
///
/// Results are written into pre-assigned slots, and the per-run JSON is
/// timing-free, so the aggregate report is byte-identical regardless of
/// --jobs (given deterministic run outcomes — work budgets are exact,
/// wall-clock budgets can flip boundary runs). Wall-clock numbers and
/// cache statistics live on the BatchReport next to the deterministic
/// document, never inside it.
///
/// Thread-safety: one BatchExecutor may be driven from one thread at a
/// time (run() is not reentrant); all internal parallelism is managed by
/// the executor itself on top of the AnalysisSession sharing contract
/// (see AnalysisSession.h).
///
//===----------------------------------------------------------------------===//

#ifndef CSC_CLIENT_BATCHEXECUTOR_H
#define CSC_CLIENT_BATCHEXECUTOR_H

#include "client/AnalysisSession.h"
#include "store/ResultStore.h"
#include "store/TaskLedger.h"

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace csc {

/// One unit of batch work: a program (given as files, inline source, or a
/// pre-built session) plus the specs to run over it.
struct BatchEntry {
  std::string Label;              ///< Display name; defaulted if empty.
  std::vector<std::string> Files; ///< `.jir` paths, or ...
  std::string SourceName;         ///< ... an inline source, or ...
  std::string SourceText;
  /// ... a pre-built session. Its budgets are part of the result key
  /// and are read once, when an executor first loads the entry.
  std::shared_ptr<AnalysisSession> Session;
  std::vector<std::string> Specs; ///< Analysis specs to run.
};

/// Parses a `--batch` manifest document: {"entries": [{"label"?,
/// "program": <path or [paths]>, "specs": <[specs] or "a,b">}, ...]}.
/// Relative program paths are resolved against \p BaseDir when non-empty.
/// Returns false with a diagnostic in \p Error on malformed input.
bool parseBatchManifest(const std::string &Text,
                        std::vector<BatchEntry> &Out, std::string &Error,
                        const std::string &BaseDir = "");

/// Reads and parses a manifest file; paths resolve relative to it.
bool loadBatchManifest(const std::string &Path,
                       std::vector<BatchEntry> &Out, std::string &Error);

/// The outcome of one (entry, spec) task.
struct BatchRunResult {
  std::string Spec;      ///< As requested in the entry.
  std::string Canonical; ///< Report name (AnalysisRecipe::Canonical).
  RunStatus Status = RunStatus::Completed;
  std::string Error;
  PrecisionMetrics Metrics; ///< Valid only when Status == Completed.
  double WallMs = 0; ///< This task's wall time (0 when not solved).
  /// Served without solving: from the in-process result cache, or as a
  /// duplicate of an earlier task of the same run.
  bool FromCache = false;
  bool FromStore = false; ///< Served by the persistent result store.
  /// True when a filtered run (run() with OnlyTasks) left this task to
  /// another worker: nothing was computed and RunJson is empty.
  bool Skipped = false;
  std::string RunJson; ///< Deterministic per-run report.
  /// The persistent-store key this result lives under — set when the
  /// row was served from the store or published into it (a row served
  /// without solving keeps its source row's key); empty otherwise. Pull
  /// workers record it on the task lease so store GC pins the entry
  /// until the coordinator consumes it.
  std::string StoreKey;
};

/// In-process cache of batch rows, keyed by ResultKey::Key — the string
/// the persistent store uses too. A row carries the report (status,
/// metrics, timing-free run JSON), never the PTAResult, so a cached batch
/// stays cheap in memory. Only ResultKeys::reusable outcomes are stored.
/// The executor touches it only between its parallel phases.
class ResultCache {
public:
  /// The row cached under \p Key, or null.
  const BatchRunResult *find(const std::string &Key) const {
    auto It = Rows.find(Key);
    return It == Rows.end() ? nullptr : &It->second;
  }
  void store(const std::string &Key, const BatchRunResult &Row) {
    Rows.emplace(Key, Row);
  }
  /// Counts one keyed task: a hit when it was served without solving
  /// (cached, or a duplicate of an earlier task in its run), else a miss.
  void count(bool Hit) { ++(Hit ? Hits : Misses); }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  size_t size() const { return Rows.size(); }

private:
  std::unordered_map<std::string, BatchRunResult> Rows;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// The outcome of one batch entry: the load result plus one
/// BatchRunResult per requested spec (empty when the load failed).
struct BatchEntryResult {
  std::string Label;
  std::vector<std::string> Files;
  bool LoadFailed = false;
  std::vector<std::string> LoadDiags;
  std::string ProgramJson; ///< Program summary (empty when load failed).
  std::vector<BatchRunResult> Runs;
};

/// Everything one BatchExecutor::run produced.
struct BatchReport {
  std::vector<BatchEntryResult> Entries; ///< In input order.
  unsigned Jobs = 1;
  double WallMs = 0;        ///< Whole-batch wall time.
  uint64_t CacheHits = 0;   ///< ResultCache::count hits in this run.
  uint64_t CacheMisses = 0; ///< ResultCache::count misses in this run.
  uint64_t StoreHits = 0;   ///< Persistent-store hits during this run.
  uint64_t StoreMisses = 0; ///< Persistent-store misses during this run.

  bool anyLoadFailed() const;
  bool anySpecError() const;
  bool anyExhausted() const;
  size_t totalRuns() const;
  /// 0 ok, 1 load/spec failure, 3 budget exhausted — cscpta conventions.
  int exitCode() const;

  /// The deterministic aggregate document: byte-identical for the same
  /// entries regardless of Jobs or cache state (no wall-clock or cache
  /// fields inside).
  std::string aggregateJson() const;
};

class BatchExecutor {
public:
  struct Options {
    unsigned Jobs = 1;      ///< <= 1 runs inline on the caller's thread.
    bool WithStdlib = true; ///< Prepend the modelled stdlib when loading.
    uint64_t WorkBudget = ~0ULL; ///< Per-run insertion budget.
    double TimeBudgetMs = 0;     ///< Per-run wall budget (0 = unlimited).
    /// Optional persistent L2 under the in-process cache: misses consult
    /// the store before computing, and reusable computed results are
    /// published back. Shared freely across executors and processes.
    std::shared_ptr<ResultStore> Store;
  };

  BatchExecutor() = default;
  explicit BatchExecutor(Options O) : Opts(std::move(O)) {}

  /// Runs every (entry, spec) pair, loading each distinct program once
  /// and solving each result key the cache lacks once. Sessions and
  /// cache persist across run() calls on one executor — an identical
  /// second batch is served entirely from cache.
  BatchReport run(const std::vector<BatchEntry> &Entries);

  /// Runs only the (entry, spec) tasks whose linear position in manifest
  /// order appears in \p OnlyTasks (the numbering countBatchTasks
  /// describes); everything else is marked Skipped. The pull worker's
  /// per-lease entry point.
  BatchReport run(const std::vector<BatchEntry> &Entries,
                  const std::vector<size_t> &OnlyTasks);

  const Options &options() const { return Opts; }
  ResultCache &cache() { return Cache; }
  const ResultCache &cache() const { return Cache; }

private:
  /// One distinct program, by identity; loaded at most once per executor.
  struct ProgramSlot {
    bool Loaded = false; ///< Set when a run queues the load.
    std::shared_ptr<AnalysisSession> S;
    std::optional<ResultKeys> Keys; ///< Set once S loaded.
    std::vector<std::string> Diags;
    std::string ProgramJson;
  };
  struct Task; ///< One (entry, spec) task of a run.

  ProgramSlot &slotFor(const BatchEntry &E);
  void loadSlot(ProgramSlot &Slot, const BatchEntry &E);
  BatchReport runImpl(const std::vector<BatchEntry> &Entries,
                      const std::vector<size_t> *Only);

  Options Opts;
  ResultCache Cache;
  /// Keyed by program identity; node-based, so slot references stay
  /// valid across inserts.
  std::unordered_map<std::string, ProgramSlot> Slots;
};

/// The number of linear (entry, spec) tasks a manifest yields — the
/// task numbering shared by run(Entries, OnlyTasks) and the task ledger.
size_t countBatchTasks(const std::vector<BatchEntry> &Entries);

/// Content fingerprint of a parsed manifest (labels, program identity,
/// specs) — the identity guard embedded in a task ledger so a worker
/// handed a ledger from some other batch refuses to run. Independent of
/// the manifest's path or formatting.
uint64_t batchFingerprint(const std::vector<BatchEntry> &Entries);

/// Pull-mode worker loop (`cscpta --worker-pull`): validates the ledger
/// at \p LedgerPath against \p ExpectFingerprint, then acquires leases
/// one at a time, runs each task with a heartbeat renewing the lease,
/// publishes results through \p ExecOpts.Store, and completes the lease
/// with the published store key. Returns a process exit code: 0 when
/// the ledger drained (including "someone else finished everything"),
/// 2 when the ledger was unusable or belongs to a different batch.
int runPullWorker(const std::vector<BatchEntry> &Entries,
                  const BatchExecutor::Options &ExecOpts,
                  const std::string &LedgerPath,
                  uint64_t ExpectFingerprint);

/// How to supervise a fleet of pull-mode cscpta workers over one
/// manifest. Each worker runs `Exe --batch Manifest --store StoreDir
/// --worker-pull ...`, pulling task leases from the ledger at
/// `StoreDir/ledger.bin` and publishing every result into the shared
/// store; the caller then re-runs the batch locally against the warm
/// store to produce the authoritative report.
struct WorkerFleetOptions {
  std::string Exe; ///< cscpta binary to exec (e.g. /proc/self/exe).
  std::string ManifestPath;
  std::string StoreDir;
  unsigned Workers = 2;
  unsigned Jobs = 1; ///< --jobs forwarded to each worker.
  bool WithStdlib = true;
  uint64_t WorkBudget = ~0ULL;
  double TimeBudgetMs = 0;
  bool Verbose = false; ///< Let workers keep their stderr statistics.
  uint64_t BatchFingerprint = 0; ///< batchFingerprint of the manifest.
  uint32_t TaskCount = 0;        ///< countBatchTasks of the manifest.
  uint32_t LeaseTtlMs = 5000;
  uint32_t MaxAttempts = 3; ///< Task quarantine threshold.
  /// Workers respawned beyond the initial fleet before the supervisor
  /// gives up and lets the coordinator drain the remainder in-process.
  unsigned RestartBudget = 16;
};

/// What supervising the fleet observed. Worker failures and quarantines
/// degrade to in-process recomputation by the coordinator — never lost
/// results — so everything here is diagnostic.
struct FleetReport {
  unsigned Spawned = 0;    ///< Processes forked (initial + respawns).
  unsigned Respawns = 0;   ///< Replacements for dead workers.
  unsigned CleanExits = 0; ///< Exit 0 or 3 (budget exhaustion is clean).
  unsigned FailedExits = 0;     ///< Other exit codes.
  unsigned Signaled = 0;        ///< Deaths by signal (crash/kill).
  unsigned StragglersKilled = 0; ///< Alive after drain; SIGKILLed.
  unsigned ForkFailures = 0;
  bool LedgerOk = false; ///< Ledger was created and stayed readable.
  TaskLedger::Summary Final;        ///< Ledger state after the fleet.
  std::vector<TaskLedger::Task> Tasks; ///< Final snapshot (diags live
                                       ///< on quarantined tasks).
  /// Pinned per-cause wording for the fleet stats line, e.g.
  /// "3 exited clean, 1 exited nonzero, 2 died by signal".
  std::string exitCauseSummary() const;
};

/// Creates the task ledger, forks the initial fleet, and supervises it
/// to convergence: dead workers release their leases immediately
/// (observed deaths) or at TTL expiry (hangs), and are respawned while
/// undone work and restart budget remain. Returns once the ledger is
/// drained or the fleet cannot make progress; stragglers still alive
/// after a drained ledger (e.g. SIGSTOPped workers) are killed. On
/// non-POSIX hosts (or when the ledger cannot be created) no workers
/// run — the caller computes everything itself.
FleetReport runWorkerFleet(const WorkerFleetOptions &O);

} // namespace csc

#endif // CSC_CLIENT_BATCHEXECUTOR_H
