//===- BatchExecutor.cpp - Parallel batch analysis engine -----------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "client/BatchExecutor.h"

#include "client/Report.h"
#include "support/FileIO.h"
#include "support/Hash.h"
#include "support/JsonParse.h"
#include "support/ParallelFor.h"
#include "support/Timer.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace csc;

//===----------------------------------------------------------------------===//
// Manifest parsing
//===----------------------------------------------------------------------===//

namespace {

bool isAbsolutePath(const std::string &P) {
  return !P.empty() && P[0] == '/';
}

std::string joinPath(const std::string &Base, const std::string &Rel) {
  if (Base.empty() || isAbsolutePath(Rel))
    return Rel;
  if (Base.back() == '/')
    return Base + Rel;
  return Base + "/" + Rel;
}

bool manifestError(std::string &Error, size_t EntryIdx,
                   const std::string &Msg) {
  Error = "manifest: entry " + std::to_string(EntryIdx) + ": " + Msg;
  return false;
}

} // namespace

bool csc::parseBatchManifest(const std::string &Text,
                             std::vector<BatchEntry> &Out,
                             std::string &Error,
                             const std::string &BaseDir) {
  Out.clear();
  JsonValue Doc;
  if (!parseJson(Text, Doc, Error)) {
    Error = "manifest: " + Error;
    return false;
  }
  if (!Doc.isObject()) {
    Error = "manifest: top level must be an object with an \"entries\" "
            "array";
    return false;
  }
  const JsonValue *Entries = Doc.get("entries");
  if (!Entries || !Entries->isArray()) {
    Error = "manifest: missing \"entries\" array";
    return false;
  }
  if (Entries->Arr.empty()) {
    Error = "manifest: \"entries\" is empty";
    return false;
  }
  for (size_t I = 0; I != Entries->Arr.size(); ++I) {
    const JsonValue &E = Entries->Arr[I];
    if (!E.isObject())
      return manifestError(Error, I, "must be an object");
    BatchEntry B;

    const JsonValue *Prog = E.get("program");
    if (!Prog)
      return manifestError(Error, I, "missing \"program\"");
    if (Prog->isString()) {
      B.Files.push_back(joinPath(BaseDir, Prog->Str));
    } else if (Prog->isArray()) {
      for (const JsonValue &F : Prog->Arr) {
        if (!F.isString())
          return manifestError(Error, I,
                               "\"program\" array must hold strings");
        B.Files.push_back(joinPath(BaseDir, F.Str));
      }
      if (B.Files.empty())
        return manifestError(Error, I, "\"program\" array is empty");
    } else {
      return manifestError(
          Error, I, "\"program\" must be a path or an array of paths");
    }

    const JsonValue *Specs = E.get("specs");
    if (!Specs)
      return manifestError(Error, I, "missing \"specs\"");
    if (Specs->isString()) {
      B.Specs = splitSpecList(Specs->Str);
    } else if (Specs->isArray()) {
      for (const JsonValue &S : Specs->Arr) {
        if (!S.isString())
          return manifestError(Error, I,
                               "\"specs\" array must hold strings");
        B.Specs.push_back(S.Str);
      }
    } else {
      return manifestError(
          Error, I,
          "\"specs\" must be an array of specs or a comma-separated "
          "string");
    }
    if (B.Specs.empty())
      return manifestError(Error, I, "\"specs\" is empty");

    if (const JsonValue *L = E.get("label")) {
      if (!L->isString())
        return manifestError(Error, I, "\"label\" must be a string");
      B.Label = L->Str;
    }
    Out.push_back(std::move(B));
  }
  return true;
}

bool csc::loadBatchManifest(const std::string &Path,
                            std::vector<BatchEntry> &Out,
                            std::string &Error) {
  std::string Text;
  switch (readFile(Path, Text)) {
  case ReadStatus::Ok:
    break;
  case ReadStatus::CannotOpen:
    Error = "cannot open manifest '" + Path + "'";
    return false;
  case ReadStatus::CannotRead:
    Error = "cannot read manifest '" + Path + "'";
    return false;
  }
  std::string BaseDir;
  size_t Slash = Path.rfind('/');
  if (Slash != std::string::npos)
    BaseDir = Path.substr(0, Slash);
  return parseBatchManifest(Text, Out, Error, BaseDir);
}

//===----------------------------------------------------------------------===//
// BatchReport
//===----------------------------------------------------------------------===//

bool BatchReport::anyLoadFailed() const {
  for (const BatchEntryResult &E : Entries)
    if (E.LoadFailed)
      return true;
  return false;
}

bool BatchReport::anySpecError() const {
  for (const BatchEntryResult &E : Entries)
    for (const BatchRunResult &R : E.Runs)
      if (R.Status == RunStatus::SpecError)
        return true;
  return false;
}

bool BatchReport::anyExhausted() const {
  for (const BatchEntryResult &E : Entries)
    for (const BatchRunResult &R : E.Runs)
      if (R.Status == RunStatus::BudgetExhausted)
        return true;
  return false;
}

size_t BatchReport::totalRuns() const {
  size_t N = 0;
  for (const BatchEntryResult &E : Entries)
    N += E.Runs.size();
  return N;
}

int BatchReport::exitCode() const {
  if (anyLoadFailed() || anySpecError())
    return 1;
  if (anyExhausted())
    return 3;
  return 0;
}

std::string BatchReport::aggregateJson() const {
  JsonWriter J;
  J.beginObject();
  J.kv("tool", "cscpta-batch");
  J.key("entries").beginArray();
  for (const BatchEntryResult &E : Entries) {
    J.beginObject();
    J.kv("label", E.Label);
    J.key("files").beginArray();
    for (const std::string &F : E.Files)
      J.value(F);
    J.endArray();
    if (E.LoadFailed) {
      J.kv("ok", false);
      J.key("errors").beginArray();
      for (const std::string &D : E.LoadDiags)
        J.value(D);
      J.endArray();
      J.endObject();
      continue;
    }
    J.kv("ok", true);
    // A fully skipped entry (filtered run) never loads its program.
    if (E.ProgramJson.empty())
      J.key("program").raw("null");
    else
      J.key("program").raw(E.ProgramJson);
    J.key("runs").beginArray();
    for (const BatchRunResult &R : E.Runs) {
      if (R.Skipped)
        J.beginObject().kv("analysis", R.Spec).kv("skipped", true)
            .endObject();
      else
        J.raw(R.RunJson);
    }
    J.endArray();
    J.endObject();
  }
  J.endArray().endObject();
  return J.take();
}

//===----------------------------------------------------------------------===//
// BatchExecutor
//===----------------------------------------------------------------------===//

/// What the key step decided for one task.
struct BatchExecutor::Task {
  ProgramSlot *Slot;
  const std::string *Spec;
  BatchRunResult *Row; ///< Pre-assigned, so completion order is moot.
  ResultKey K;
  const Task *Owner = nullptr; ///< Set on a duplicate of Owner's key.
  bool Reusable = false;       ///< Solved, and the cache may keep the row.
};

namespace {

/// \p Row as served to a task that did not solve it.
BatchRunResult servedRow(const BatchRunResult &Row, const std::string &Spec) {
  BatchRunResult Out = Row;
  Out.Spec = Spec;
  Out.FromCache = true;
  Out.FromStore = false;
  Out.WallMs = 0;
  return Out;
}

} // namespace

BatchExecutor::ProgramSlot &BatchExecutor::slotFor(const BatchEntry &E) {
  // The slot key is the program's *identity* (how it is named), not its
  // content — content dedup happens at the result cache via the
  // fingerprint. Identity keying keeps "load once per distinct program"
  // cheap and lets repeats reuse sessions across run() calls.
  std::string Key;
  if (E.Session) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "session:%p",
                  static_cast<const void *>(E.Session.get()));
    Key = Buf;
  } else if (!E.Files.empty()) {
    Key = "files:";
    for (const std::string &F : E.Files) {
      Key += F;
      Key += '\n';
    }
  } else {
    Key = "source:" + E.SourceName + "\n" + E.SourceText;
  }
  return Slots[Key];
}

void BatchExecutor::loadSlot(ProgramSlot &Slot, const BatchEntry &E) {
  if (E.Session) {
    Slot.S = E.Session;
  } else {
    AnalysisSession::Options SO;
    SO.WithStdlib = Opts.WithStdlib;
    SO.WorkBudget = Opts.WorkBudget;
    SO.TimeBudgetMs = Opts.TimeBudgetMs;
    if (!E.Files.empty())
      Slot.S = AnalysisSession::fromFiles(E.Files, std::move(SO),
                                          Slot.Diags);
    else
      Slot.S = AnalysisSession::fromSource(
          E.SourceName.empty() ? "<batch>" : E.SourceName, E.SourceText,
          std::move(SO), Slot.Diags);
  }
  if (!Slot.S)
    return;
  Slot.Keys.emplace(*Slot.S);
  JsonWriter J;
  appendProgramSummaryJson(J, Slot.S->program());
  Slot.ProgramJson = J.take();
}

BatchReport BatchExecutor::run(const std::vector<BatchEntry> &Entries) {
  return runImpl(Entries, nullptr);
}

BatchReport BatchExecutor::run(const std::vector<BatchEntry> &Entries,
                               const std::vector<size_t> &OnlyTasks) {
  return runImpl(Entries, &OnlyTasks);
}

BatchReport BatchExecutor::runImpl(const std::vector<BatchEntry> &Entries,
                                   const std::vector<size_t> *Only) {
  Timer Wall;
  uint64_t Hits0 = Cache.hits(), Misses0 = Cache.misses();
  ResultStore::Counters Store0;
  if (Opts.Store)
    Store0 = Opts.Store->counters();

  BatchReport Report;
  Report.Jobs = std::max(1u, Opts.Jobs);
  Report.Entries.resize(Entries.size());

  // Plan. Spec tasks are numbered in manifest order (the same numbering
  // in every process over one manifest, which is what lets ledger task
  // ids partition a worker fleet), and skipped tasks are recorded. An
  // entry is attempted when it has a task here, or has no specs in an
  // unfiltered run (its load outcome is still reported); a worker has
  // no use for a load outcome it will not report.
  std::vector<ProgramSlot *> EntrySlots(Entries.size(), nullptr);
  std::vector<std::pair<ProgramSlot *, const BatchEntry *>> Loads;
  std::vector<Task> Tasks;
  size_t Linear = 0;
  for (size_t E = 0; E != Entries.size(); ++E) {
    const BatchEntry &In = Entries[E];
    BatchEntryResult &Out = Report.Entries[E];
    Out.Label = !In.Label.empty()       ? In.Label
                : !In.Files.empty()     ? In.Files.front()
                : In.SourceName.empty() ? "<batch>"
                                        : In.SourceName;
    Out.Files = In.Files;
    Out.Runs.resize(In.Specs.size());
    ProgramSlot &Slot = slotFor(In);
    bool Attempted = !Only && In.Specs.empty();
    for (size_t S = 0; S != In.Specs.size(); ++S) {
      bool Mine = !Only || std::find(Only->begin(), Only->end(), Linear) !=
                               Only->end();
      ++Linear;
      if (Mine) {
        Tasks.push_back({&Slot, &In.Specs[S], &Out.Runs[S], ResultKey()});
        Attempted = true;
      } else {
        Out.Runs[S].Spec = In.Specs[S];
        Out.Runs[S].Skipped = true;
      }
    }
    if (Attempted && !Slot.Loaded) {
      Slot.Loaded = true;
      Loads.emplace_back(&Slot, &In);
    }
    EntrySlots[E] = Attempted ? &Slot : nullptr;
  }

  // Load each program no earlier run loaded.
  parallelFor(Loads.size(), Report.Jobs, [&](size_t I) {
    loadSlot(*Loads[I].first, *Loads[I].second);
  });

  // Key. A cached key is served now; a key an earlier task of this run
  // owns makes a duplicate; any other task solves. An unparsable spec
  // stays unkeyed, and a spec that does not build is diagnosed by its
  // own task (the diagnostic may quote its spelling).
  std::unordered_map<std::string, const Task *> Owners;
  std::vector<Task *> Solving;
  for (Task &T : Tasks) {
    if (!T.Slot->S)
      continue; // load outcome is sequenced below
    if (!T.Slot->Keys->key(*T.Spec, T.K)) {
      Solving.push_back(&T);
      continue;
    }
    if (const BatchRunResult *Row = Cache.find(T.K.Key)) {
      *T.Row = servedRow(*Row, *T.Spec);
      Cache.count(true);
      continue;
    }
    if (T.K.Error.empty()) {
      auto [It, New] = Owners.try_emplace(T.K.Key, &T);
      if (!New) {
        T.Owner = It->second;
        Cache.count(true);
        continue;
      }
    }
    Solving.push_back(&T);
    Cache.count(false);
  }

  // Solve each owned key through the one reuse path (store lookup, else
  // compute and publish).
  parallelFor(Solving.size(), Report.Jobs, [&](size_t I) {
    Task &T = *Solving[I];
    BatchRunResult &Out = *T.Row;
    Timer Time;
    ResultKeys::Outcome R = T.Slot->Keys->lookupOrRun(
        *T.Slot->S, Opts.Store.get(), *T.Spec, T.K);
    Out.Spec = *T.Spec;
    Out.Canonical = T.K.Recipe.Canonical;
    Out.Status = R.Run.Status;
    Out.Error = std::move(R.Run.Error);
    Out.Metrics = R.Run.Metrics;
    Out.RunJson = std::move(R.RunJson);
    Out.FromStore = R.Served;
    if (R.Served || R.Published)
      Out.StoreKey = T.K.Key;
    Out.WallMs = Time.elapsedMs();
    T.Reusable = !T.K.Key.empty() && T.Slot->Keys->reusable(R.Run);
  });

  // Fan out: duplicates copy their owner's row (owners come first), and
  // reusable rows enter the cache.
  for (const Task &T : Tasks) {
    if (T.Owner)
      *T.Row = servedRow(*T.Owner->Row, *T.Spec);
    else if (T.Reusable)
      Cache.store(T.K.Key, *T.Row);
  }

  // Sequence load outcomes. Entries this worker never touched keep their
  // default state — all-skipped runs, no load verdict.
  for (size_t I = 0; I != Entries.size(); ++I) {
    const ProgramSlot *Slot = EntrySlots[I];
    if (!Slot)
      continue;
    if (!Slot->S) {
      Report.Entries[I].LoadFailed = true;
      Report.Entries[I].LoadDiags = Slot->Diags;
      Report.Entries[I].Runs.clear();
    } else {
      Report.Entries[I].ProgramJson = Slot->ProgramJson;
    }
  }

  Report.WallMs = Wall.elapsedMs();
  Report.CacheHits = Cache.hits() - Hits0;
  Report.CacheMisses = Cache.misses() - Misses0;
  if (Opts.Store) {
    ResultStore::Counters Store1 = Opts.Store->counters();
    Report.StoreHits = Store1.Hits - Store0.Hits;
    Report.StoreMisses = Store1.Misses - Store0.Misses;
  }
  return Report;
}

//===----------------------------------------------------------------------===//
// Task numbering + batch identity
//===----------------------------------------------------------------------===//

size_t csc::countBatchTasks(const std::vector<BatchEntry> &Entries) {
  size_t N = 0;
  for (const BatchEntry &E : Entries)
    N += E.Specs.size();
  return N;
}

uint64_t csc::batchFingerprint(const std::vector<BatchEntry> &Entries) {
  // Everything that shapes task numbering or task content, with NUL
  // separators for unambiguity. Paths are part of identity: two
  // manifests naming different files are different batches even if the
  // file contents happen to match.
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](const std::string &S) {
    H = fnv1a64(S.data(), S.size(), H);
    H = fnv1a64("\0", 1, H);
  };
  for (const BatchEntry &E : Entries) {
    Mix(E.Label);
    for (const std::string &F : E.Files)
      Mix(F);
    Mix(E.SourceName);
    Mix(E.SourceText);
    for (const std::string &S : E.Specs)
      Mix(S);
    Mix("");
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Pull worker
//===----------------------------------------------------------------------===//

namespace {

/// Environment fault hooks for the chaos tests — consulted only inside
/// the pull-worker loop, never by a coordinator or plain batch, so an
/// injected fault can kill workers without poisoning the in-process
/// drain that makes the final aggregate correct anyway:
///
///   CSC_FLEET_TEST_KILL_TASK=<id>     raise(SIGKILL) on leasing task id
///   CSC_FLEET_TEST_KILL_ATTEMPTS=<n>  ...only while attempt <= n
///                                     (unset: every attempt)
///   CSC_FLEET_TEST_STOP_TASK=<id>     raise(SIGSTOP) on leasing task id
///   CSC_FLEET_TEST_SLOW_MS=<ms>       sleep before running each task
///
/// The hooks fire at a controlled point — after acquire() returned, so
/// never while holding the ledger flock.
bool envTaskMatches(const char *Var, uint32_t Task) {
  const char *V = std::getenv(Var);
  return V && std::strtoul(V, nullptr, 10) == Task;
}

uint64_t envMs(const char *Var) {
  const char *V = std::getenv(Var);
  return V ? std::strtoull(V, nullptr, 10) : 0;
}

} // namespace

int csc::runPullWorker(const std::vector<BatchEntry> &Entries,
                       const BatchExecutor::Options &ExecOpts,
                       const std::string &LedgerPath,
                       uint64_t ExpectFingerprint) {
#ifndef _WIN32
  TaskLedger::Options LO;
  LO.Path = LedgerPath;
  TaskLedger Ledger(std::move(LO));
  TaskLedger::Config Cfg;
  if (!Ledger.config(Cfg, ExpectFingerprint))
    return 2; // absent, unreadable, or some other batch's ledger
  if (Cfg.TaskCount != countBatchTasks(Entries))
    return 2;

  // Linear task id -> (entry, spec) — needed to find the store key the
  // completed run reports back onto the lease.
  std::vector<std::pair<size_t, size_t>> TaskMap;
  TaskMap.reserve(Cfg.TaskCount);
  for (size_t E = 0; E != Entries.size(); ++E)
    for (size_t S = 0; S != Entries[E].Specs.size(); ++S)
      TaskMap.emplace_back(E, S);

  BatchExecutor Ex(ExecOpts);
  uint64_t Wid = static_cast<uint64_t>(::getpid());

  while (true) {
    TaskLedger::Lease L;
    uint64_t RetryInMs = 0;
    switch (Ledger.acquire(Wid, L, RetryInMs)) {
    case TaskLedger::AcquireStatus::Drained:
      return 0;
    case TaskLedger::AcquireStatus::Error:
      return 2; // the supervisor observes the exit and compensates
    case TaskLedger::AcquireStatus::Retry:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min<uint64_t>(RetryInMs, 250)));
      continue;
    case TaskLedger::AcquireStatus::Acquired:
      break;
    }

    if (envTaskMatches("CSC_FLEET_TEST_KILL_TASK", L.Task)) {
      uint64_t Upto = envMs("CSC_FLEET_TEST_KILL_ATTEMPTS");
      if (Upto == 0 || L.Attempt <= Upto)
        ::raise(SIGKILL);
    }
    if (envTaskMatches("CSC_FLEET_TEST_STOP_TASK", L.Task))
      ::raise(SIGSTOP); // hang un-renewed until the TTL reclaims us
    if (uint64_t Slow = envMs("CSC_FLEET_TEST_SLOW_MS"))
      std::this_thread::sleep_for(std::chrono::milliseconds(Slow));

    // Heartbeat at TTL/3 for the whole solve: a healthy long run never
    // loses its lease; a renewal that fails means the lease was already
    // reclaimed, and the harmless worst case is a duplicate publish of
    // identical bytes.
    std::mutex Hm;
    std::condition_variable Hcv;
    bool HDone = false;
    std::thread Heart([&] {
      std::unique_lock<std::mutex> G(Hm);
      auto Period =
          std::chrono::milliseconds(std::max(1u, Cfg.LeaseTtlMs / 3));
      while (!Hcv.wait_for(G, Period, [&] { return HDone; }))
        Ledger.renew(L, Wid);
    });

    BatchReport R = Ex.run(Entries, {static_cast<size_t>(L.Task)});

    {
      std::lock_guard<std::mutex> G(Hm);
      HDone = true;
    }
    Hcv.notify_one();
    Heart.join();

    // A failed program load clears the entry's Runs vector, so the slot
    // may not exist: complete with an empty key (nothing was published)
    // and let the coordinator's drain re-derive the load diagnostic —
    // a load failure is an ordinary task outcome, not a worker fault.
    auto [E, S] = TaskMap[L.Task];
    const auto &Runs = R.Entries[E].Runs;
    Ledger.complete(L, Wid,
                    S < Runs.size() ? Runs[S].StoreKey : std::string());
  }
#else
  (void)Entries;
  (void)ExecOpts;
  (void)LedgerPath;
  (void)ExpectFingerprint;
  return 2;
#endif
}

//===----------------------------------------------------------------------===//
// Fleet supervisor
//===----------------------------------------------------------------------===//

std::string FleetReport::exitCauseSummary() const {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%u exited clean, %u exited nonzero, %u died by signal, "
                "%u stragglers killed",
                CleanExits, FailedExits, Signaled, StragglersKilled);
  return Buf;
}

#ifndef _WIN32
namespace {

/// waitpid that retries on EINTR: a signal delivered to the coordinator
/// (timers, terminal signals with handlers) must not be mistaken for a
/// worker failure or lose a child's exit status.
pid_t waitpidEintr(pid_t Pid, int *St, int Flags) {
  while (true) {
    pid_t R = ::waitpid(Pid, St, Flags);
    if (R >= 0 || errno != EINTR)
      return R;
  }
}

uint64_t steadyMs() {
  using namespace std::chrono;
  return static_cast<uint64_t>(
      duration_cast<milliseconds>(steady_clock::now().time_since_epoch())
          .count());
}

} // namespace
#endif

FleetReport csc::runWorkerFleet(const WorkerFleetOptions &O) {
  FleetReport R;
#ifndef _WIN32
  std::string LedgerPath = O.StoreDir + "/ledger.bin";
  TaskLedger::Options LO;
  LO.Path = LedgerPath;
  TaskLedger Ledger(std::move(LO));
  TaskLedger::Config Cfg;
  Cfg.BatchFingerprint = O.BatchFingerprint;
  Cfg.TaskCount = O.TaskCount;
  Cfg.LeaseTtlMs = std::max(1u, O.LeaseTtlMs);
  Cfg.MaxAttempts = std::max(1u, O.MaxAttempts);
  if (O.TaskCount == 0 || !Ledger.create(Cfg))
    return R; // LedgerOk false: the caller computes everything itself
  R.LedgerOk = true;

  unsigned Workers = std::max(1u, O.Workers);
  auto Spawn = [&]() -> pid_t {
    std::vector<std::string> Args;
    Args.push_back(O.Exe);
    Args.push_back("--batch");
    Args.push_back(O.ManifestPath);
    Args.push_back("--store");
    Args.push_back(O.StoreDir);
    Args.push_back("--worker-pull");
    Args.push_back("--jobs");
    Args.push_back(std::to_string(std::max(1u, O.Jobs)));
    if (!O.WithStdlib)
      Args.push_back("--no-stdlib");
    if (O.WorkBudget != ~0ULL) {
      Args.push_back("--work-budget");
      Args.push_back(std::to_string(O.WorkBudget));
    }
    if (O.TimeBudgetMs > 0) {
      char Budget[40];
      std::snprintf(Budget, sizeof(Budget), "%.17g", O.TimeBudgetMs);
      Args.push_back("--budget-ms");
      Args.push_back(Budget);
    }
    if (O.Verbose)
      Args.push_back("--stats");
    pid_t Pid = ::fork();
    if (Pid == 0) {
      std::vector<char *> Argv;
      Argv.reserve(Args.size() + 1);
      for (std::string &A : Args)
        Argv.push_back(&A[0]);
      Argv.push_back(nullptr);
      ::execv(O.Exe.c_str(), Argv.data());
      _exit(127); // exec failed; the parent observes the exit code
    }
    return Pid;
  };

  std::vector<pid_t> Live;
  for (unsigned W = 0; W != Workers; ++W) {
    pid_t Pid = Spawn();
    if (Pid < 0) {
      ++R.ForkFailures; // the coordinator will drain the difference
      continue;
    }
    Live.push_back(Pid);
    ++R.Spawned;
  }

  // Supervision loop: reap deaths (releasing their leases immediately),
  // respawn while undone work and budget remain, and watch for stalls.
  // Renewed leases count as progress, so only a fleet that is neither
  // completing nor heartbeating (all hung/stopped) trips the stall
  // exit — at which point the coordinator drains in-process.
  const uint64_t StallMs = 2ull * Cfg.LeaseTtlMs + 2000;
  uint64_t LastProgress = steadyMs();
  uint64_t LastSig = ~0ULL;
  while (true) {
    while (!Live.empty()) {
      int St = 0;
      pid_t Pid = waitpidEintr(-1, &St, WNOHANG);
      if (Pid <= 0)
        break; // no exits pending (or no children at all)
      Live.erase(std::remove(Live.begin(), Live.end(), Pid), Live.end());
      std::string Cause;
      if (WIFEXITED(St)) {
        int Code = WEXITSTATUS(St);
        if (Code == 0 || Code == 3) // budget exhaustion is a clean run
          ++R.CleanExits;
        else {
          ++R.FailedExits;
          Cause = "exit " + std::to_string(Code);
        }
      } else if (WIFSIGNALED(St)) {
        ++R.Signaled;
        Cause = "signal " + std::to_string(WTERMSIG(St));
      }
      if (Cause.empty())
        continue;
      Ledger.noteWorkerDeath(static_cast<uint64_t>(Pid), Cause);
      TaskLedger::Summary Sum;
      if (Ledger.summary(Sum) && !Sum.drained() &&
          R.Respawns < O.RestartBudget) {
        pid_t NewPid = Spawn();
        if (NewPid < 0) {
          ++R.ForkFailures;
        } else {
          Live.push_back(NewPid);
          ++R.Spawned;
          ++R.Respawns;
        }
      }
    }

    Ledger.reclaimExpired();
    TaskLedger::Summary Sum;
    if (!Ledger.summary(Sum)) {
      R.LedgerOk = false; // ledger went unreadable mid-fleet
      break;
    }
    if (Sum.drained() || Live.empty())
      break;

    // Progress signature: completion counts, state mix, and lease
    // expiries (renewals move them forward). Each count is hashed in
    // full width — bit-packing would alias fields once a batch exceeds
    // a few thousand tasks.
    TaskLedger::Config SnapCfg;
    std::vector<TaskLedger::Task> Tasks;
    uint64_t Sig = 1469598103934665603ULL;
    for (uint64_t Count : {(uint64_t)Sum.Done, (uint64_t)Sum.Quarantined,
                           (uint64_t)Sum.Pending, (uint64_t)Sum.Leased})
      Sig = fnv1a64(&Count, sizeof(Count), Sig);
    if (Ledger.snapshot(SnapCfg, Tasks))
      for (const TaskLedger::Task &T : Tasks)
        Sig = fnv1a64(&T.LeaseExpiryMs, sizeof(T.LeaseExpiryMs), Sig);
    uint64_t Now = steadyMs();
    if (Sig != LastSig) {
      LastSig = Sig;
      LastProgress = Now;
    } else if (Now - LastProgress > StallMs) {
      break; // nobody is completing or even heartbeating — give up
    }
    ::usleep(20000);
  }

  // Give surviving workers a moment to observe the drained ledger and
  // exit on their own; whoever remains (SIGSTOPped or hung) is killed —
  // their leases are already expired or irrelevant.
  uint64_t GraceEnd = steadyMs() + 2000;
  while (!Live.empty() && steadyMs() < GraceEnd) {
    int St = 0;
    pid_t Pid = waitpidEintr(-1, &St, WNOHANG);
    if (Pid > 0) {
      Live.erase(std::remove(Live.begin(), Live.end(), Pid), Live.end());
      if (WIFEXITED(St) &&
          (WEXITSTATUS(St) == 0 || WEXITSTATUS(St) == 3))
        ++R.CleanExits;
      else if (WIFSIGNALED(St))
        ++R.Signaled;
      else
        ++R.FailedExits;
      continue;
    }
    ::usleep(20000);
  }
  for (pid_t Pid : Live) {
    ::kill(Pid, SIGKILL);
    int St = 0;
    waitpidEintr(Pid, &St, 0);
    ++R.StragglersKilled;
  }

  Ledger.reclaimExpired(); // final accounting: quarantine what expired
  TaskLedger::Config FinalCfg;
  Ledger.snapshot(FinalCfg, R.Tasks);
  Ledger.summary(R.Final);
#else
  (void)O;
#endif
  return R;
}
