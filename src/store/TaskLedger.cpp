//===- TaskLedger.cpp - Crash-safe lease ledger for batch tasks -----------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "store/TaskLedger.h"

#include "support/BinaryIO.h"
#include "support/FileIO.h"
#include "support/Hash.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define CSC_LEDGER_POSIX 1
#endif

using namespace csc;

namespace {

// Framing mirrors the result store's entry files: magic, format
// version, FNV-1a body checksum, body. A torn or flipped ledger fails
// the checksum and degrades to Error statuses instead of mis-leasing.
constexpr char LedgerMagic[8] = {'C', 'S', 'C', 'P', 'T', 'A', 'L', '1'};
constexpr uint32_t LedgerVersion = 1;
constexpr size_t HeaderBytes = 8 + 4 + 8;

std::string frameLedger(const std::string &Body) {
  BinaryWriter W;
  std::string Out(LedgerMagic, 8);
  W.u32(LedgerVersion);
  W.u64(fnv1a64(Body.data(), Body.size()));
  Out += W.take();
  Out += Body;
  return Out;
}

bool unframeLedger(const std::string &Bytes, std::string &BodyOut) {
  if (Bytes.size() < HeaderBytes ||
      std::memcmp(Bytes.data(), LedgerMagic, 8) != 0)
    return false;
  BinaryReader R(Bytes.data() + 8, HeaderBytes - 8);
  uint32_t Version;
  uint64_t Sum;
  if (!R.u32(Version) || !R.u64(Sum) || Version != LedgerVersion)
    return false;
  BodyOut = Bytes.substr(HeaderBytes);
  return fnv1a64(BodyOut.data(), BodyOut.size()) == Sum;
}

std::string serializeState(const TaskLedger::Config &Cfg,
                           const std::vector<TaskLedger::Task> &Tasks) {
  BinaryWriter W;
  W.u64(Cfg.BatchFingerprint);
  W.u32(Cfg.TaskCount);
  W.u32(Cfg.LeaseTtlMs);
  W.u32(Cfg.MaxAttempts);
  W.u32(Cfg.BackoffBaseMs);
  for (const TaskLedger::Task &T : Tasks) {
    W.u8(static_cast<uint8_t>(T.State));
    W.u32(T.Attempts);
    W.u64(T.Owner);
    W.u64(T.LeaseExpiryMs);
    W.u64(T.NotBeforeMs);
    W.str(T.Key);
    W.str(T.LastFailure);
    W.str(T.Diag);
  }
  return frameLedger(W.take());
}

bool parseState(const std::string &Bytes, TaskLedger::Config &Cfg,
                std::vector<TaskLedger::Task> &Tasks) {
  std::string Body;
  if (!unframeLedger(Bytes, Body))
    return false;
  BinaryReader R(Body);
  if (!R.u64(Cfg.BatchFingerprint) || !R.u32(Cfg.TaskCount) ||
      !R.u32(Cfg.LeaseTtlMs) || !R.u32(Cfg.MaxAttempts) ||
      !R.u32(Cfg.BackoffBaseMs) ||
      !R.fits(Cfg.TaskCount, 1 + 4 + 8 + 8 + 8 + 4 + 4 + 4))
    return false;
  Tasks.clear();
  Tasks.resize(Cfg.TaskCount);
  for (TaskLedger::Task &T : Tasks) {
    uint8_t State;
    if (!R.u8(State) || State > 3 || !R.u32(T.Attempts) ||
        !R.u64(T.Owner) || !R.u64(T.LeaseExpiryMs) ||
        !R.u64(T.NotBeforeMs) || !R.str(T.Key) || !R.str(T.LastFailure) ||
        !R.str(T.Diag))
      return false;
    T.State = static_cast<TaskLedger::TaskState>(State);
  }
  return R.atEnd();
}

#ifdef CSC_LEDGER_POSIX

/// Advisory exclusive lock for ledger read-modify-write cycles. Lock
/// failure degrades to lock-free best effort — writes stay atomic via
/// rename, so the worst case is a lost update, i.e. a retried task.
class ScopedLedgerLock {
public:
  explicit ScopedLedgerLock(const std::string &Path) {
    Fd = ::open(Path.c_str(), O_RDWR | O_CREAT, 0644);
    if (Fd >= 0 && ::flock(Fd, LOCK_EX) != 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~ScopedLedgerLock() {
    if (Fd >= 0) {
      ::flock(Fd, LOCK_UN);
      ::close(Fd);
    }
  }
  ScopedLedgerLock(const ScopedLedgerLock &) = delete;
  ScopedLedgerLock &operator=(const ScopedLedgerLock &) = delete;

private:
  int Fd = -1;
};

#endif // CSC_LEDGER_POSIX

/// The quarantine diagnostic pinned onto a task when its attempts run
/// out; docs/CLI.md promises this wording.
std::string quarantineDiag(const TaskLedger::Task &T,
                           const TaskLedger::Config &Cfg) {
  std::string Cause =
      T.LastFailure.empty() ? "lease expired un-renewed" : T.LastFailure;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "failed %u of %u attempts",
                T.Attempts, Cfg.MaxAttempts);
  return std::string(Buf) + "; last worker " + std::to_string(T.Owner) +
         ": " + Cause;
}

} // namespace

TaskLedger::TaskLedger(Options O) : Opts(std::move(O)) {}

uint64_t TaskLedger::nowMs() const {
  if (Opts.NowMs)
    return Opts.NowMs();
  using namespace std::chrono;
  return static_cast<uint64_t>(
      duration_cast<milliseconds>(system_clock::now().time_since_epoch())
          .count());
}

bool TaskLedger::loadLocked(State &S) const {
  std::string Bytes;
  if (readFile(Opts.Path, Bytes) != ReadStatus::Ok ||
      !parseState(Bytes, S.Cfg, S.Tasks))
    return false;
  return true;
}

bool TaskLedger::storeLocked(const State &S) const {
#ifdef CSC_LEDGER_POSIX
  if (Opts.TestFailWrites)
    return false;
  std::string Bytes = serializeState(S.Cfg, S.Tasks);
  // pid alone is not unique enough: two handles in one process (or the
  // result store's own .tmp-<pid>-<seq> writers sharing the directory)
  // must never clobber each other's temp file mid-write. A process-wide
  // counter plus a ledger-specific prefix uniquifies both.
  static std::atomic<uint64_t> TempSeq{0};
  char Temp[64];
  std::snprintf(Temp, sizeof(Temp), ".ledger-tmp-%ld-%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(++TempSeq));
  size_t Slash = Opts.Path.rfind('/');
  std::string TempPath =
      (Slash == std::string::npos ? std::string()
                                  : Opts.Path.substr(0, Slash + 1)) +
      Temp;
  {
    std::ofstream OutF(TempPath, std::ios::binary | std::ios::trunc);
    OutF.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    OutF.flush();
    if (!OutF.good()) {
      std::remove(TempPath.c_str());
      return false;
    }
  }
  if (std::rename(TempPath.c_str(), Opts.Path.c_str()) != 0) {
    std::remove(TempPath.c_str());
    return false;
  }
  return true;
#else
  (void)S;
  return false;
#endif
}

bool TaskLedger::create(const Config &C) {
  std::lock_guard<std::mutex> G(M);
#ifdef CSC_LEDGER_POSIX
  ScopedLedgerLock Lock(Opts.Path + ".lock");
#endif
  State S;
  S.Cfg = C;
  S.Tasks.assign(C.TaskCount, Task());
  if (!storeLocked(S)) {
    ++Stats.IoFailures;
    return false;
  }
  return true;
}

bool TaskLedger::config(Config &Out, uint64_t ExpectFingerprint) {
  std::lock_guard<std::mutex> G(M);
  State S;
  if (!loadLocked(S)) {
    ++Stats.IoFailures;
    return false;
  }
  if (ExpectFingerprint && S.Cfg.BatchFingerprint != ExpectFingerprint)
    return false;
  Out = S.Cfg;
  return true;
}

bool TaskLedger::reapExpiredLocked(State &S, uint64_t Now) {
  bool Changed = false;
  for (Task &T : S.Tasks) {
    if (T.State != TaskState::Leased || T.LeaseExpiryMs > Now)
      continue;
    Changed = true;
    if (T.Attempts >= S.Cfg.MaxAttempts) {
      T.State = TaskState::Quarantined;
      T.Diag = quarantineDiag(T, S.Cfg);
      ++Stats.Quarantines;
    } else {
      // Exponential backoff on retries: a task that just lost its
      // worker waits base << (attempt - 1) ms before it is runnable
      // again, so a sick host cannot monopolize the fleet's time.
      uint64_t Shift = T.Attempts > 0 ? T.Attempts - 1 : 0;
      uint64_t Backoff = static_cast<uint64_t>(S.Cfg.BackoffBaseMs)
                         << (Shift > 10 ? 10 : Shift);
      T.State = TaskState::Pending;
      T.NotBeforeMs = Now + Backoff;
      ++Stats.Reclaims;
    }
  }
  return Changed;
}

TaskLedger::AcquireStatus TaskLedger::acquire(uint64_t Worker, Lease &Out,
                                              uint64_t &RetryInMs) {
  std::lock_guard<std::mutex> G(M);
#ifdef CSC_LEDGER_POSIX
  ScopedLedgerLock Lock(Opts.Path + ".lock");
#endif
  State S;
  if (!loadLocked(S)) {
    ++Stats.IoFailures;
    return AcquireStatus::Error;
  }
  uint64_t Now = nowMs();
  bool Changed = reapExpiredLocked(S, Now);

  // Lowest runnable task wins — deterministic under any worker order.
  uint32_t Pick = S.Cfg.TaskCount;
  uint64_t NearestMs = ~0ULL;
  for (uint32_t I = 0; I != S.Tasks.size(); ++I) {
    Task &T = S.Tasks[I];
    if (T.State == TaskState::Pending) {
      if (T.NotBeforeMs <= Now) {
        Pick = I;
        break;
      }
      NearestMs = std::min(NearestMs, T.NotBeforeMs - Now);
    } else if (T.State == TaskState::Leased) {
      NearestMs =
          std::min(NearestMs, T.LeaseExpiryMs > Now
                                  ? T.LeaseExpiryMs - Now
                                  : 1);
    }
  }

  if (Pick == S.Cfg.TaskCount) {
    if (Changed && !storeLocked(S)) {
      ++Stats.IoFailures;
      return AcquireStatus::Error;
    }
    if (NearestMs == ~0ULL)
      return AcquireStatus::Drained;
    RetryInMs = NearestMs < 1 ? 1 : NearestMs;
    return AcquireStatus::Retry;
  }

  Task &T = S.Tasks[Pick];
  T.State = TaskState::Leased;
  T.Owner = Worker;
  T.Attempts += 1;
  T.LeaseExpiryMs = Now + S.Cfg.LeaseTtlMs;
  T.NotBeforeMs = 0;
  if (!storeLocked(S)) {
    ++Stats.IoFailures;
    return AcquireStatus::Error;
  }
  ++Stats.Acquires;
  Out.Task = Pick;
  Out.Attempt = T.Attempts;
  return AcquireStatus::Acquired;
}

bool TaskLedger::renew(const Lease &L, uint64_t Worker) {
  std::lock_guard<std::mutex> G(M);
#ifdef CSC_LEDGER_POSIX
  ScopedLedgerLock Lock(Opts.Path + ".lock");
#endif
  State S;
  if (!loadLocked(S) || L.Task >= S.Tasks.size()) {
    ++Stats.IoFailures;
    return false;
  }
  Task &T = S.Tasks[L.Task];
  // The lease must still be this worker's *same* attempt: after a
  // reclaim (even one leased back to the same worker id) the heartbeat
  // belongs to a dead run and must not extend the new lease.
  if (T.State != TaskState::Leased || T.Owner != Worker ||
      T.Attempts != L.Attempt)
    return false;
  T.LeaseExpiryMs = nowMs() + S.Cfg.LeaseTtlMs;
  if (!storeLocked(S)) {
    ++Stats.IoFailures;
    return false;
  }
  ++Stats.Renews;
  return true;
}

bool TaskLedger::complete(const Lease &L, uint64_t Worker,
                          const std::string &Key) {
  std::lock_guard<std::mutex> G(M);
#ifdef CSC_LEDGER_POSIX
  ScopedLedgerLock Lock(Opts.Path + ".lock");
#endif
  State S;
  if (!loadLocked(S) || L.Task >= S.Tasks.size()) {
    ++Stats.IoFailures;
    return false;
  }
  Task &T = S.Tasks[L.Task];
  if (T.State == TaskState::Done)
    return true; // someone (perhaps our revived self) already finished
  if (T.State != TaskState::Leased || T.Owner != Worker ||
      T.Attempts != L.Attempt)
    return false; // reclaimed; the new owner reports completion
  T.State = TaskState::Done;
  T.Key = Key;
  T.LeaseExpiryMs = 0;
  if (!storeLocked(S)) {
    ++Stats.IoFailures;
    return false;
  }
  ++Stats.Completes;
  return true;
}

bool TaskLedger::noteWorkerDeath(uint64_t Worker, const std::string &Cause) {
  std::lock_guard<std::mutex> G(M);
#ifdef CSC_LEDGER_POSIX
  ScopedLedgerLock Lock(Opts.Path + ".lock");
#endif
  State S;
  if (!loadLocked(S)) {
    ++Stats.IoFailures;
    return false;
  }
  uint64_t Now = nowMs();
  bool Changed = false;
  for (Task &T : S.Tasks) {
    if (T.State != TaskState::Leased || T.Owner != Worker)
      continue;
    T.LeaseExpiryMs = Now; // reclaimable immediately — no TTL wait
    T.LastFailure = Cause;
    Changed = true;
  }
  if (!Changed)
    return true;
  if (!storeLocked(S)) {
    ++Stats.IoFailures;
    return false;
  }
  return true;
}

bool TaskLedger::reclaimExpired() {
  std::lock_guard<std::mutex> G(M);
#ifdef CSC_LEDGER_POSIX
  ScopedLedgerLock Lock(Opts.Path + ".lock");
#endif
  State S;
  if (!loadLocked(S)) {
    ++Stats.IoFailures;
    return false;
  }
  if (!reapExpiredLocked(S, nowMs()))
    return true;
  if (!storeLocked(S)) {
    ++Stats.IoFailures;
    return false;
  }
  return true;
}

bool TaskLedger::summary(Summary &Out) {
  std::lock_guard<std::mutex> G(M);
  State S;
  if (!loadLocked(S)) {
    ++Stats.IoFailures;
    return false;
  }
  Out = Summary();
  Out.Total = S.Cfg.TaskCount;
  for (const Task &T : S.Tasks) {
    switch (T.State) {
    case TaskState::Pending:
      ++Out.Pending;
      break;
    case TaskState::Leased:
      ++Out.Leased;
      break;
    case TaskState::Done:
      ++Out.Done;
      break;
    case TaskState::Quarantined:
      ++Out.Quarantined;
      break;
    }
  }
  return true;
}

bool TaskLedger::snapshot(Config &CfgOut, std::vector<Task> &Out) {
  std::lock_guard<std::mutex> G(M);
  State S;
  if (!loadLocked(S)) {
    ++Stats.IoFailures;
    return false;
  }
  CfgOut = S.Cfg;
  Out = std::move(S.Tasks);
  return true;
}

std::vector<std::string> TaskLedger::pinnedKeys(const std::string &Path) {
  std::vector<std::string> Keys;
  std::string Bytes;
  TaskLedger::Config Cfg;
  std::vector<TaskLedger::Task> Tasks;
  if (readFile(Path, Bytes) != ReadStatus::Ok || !parseState(Bytes, Cfg, Tasks))
    return Keys;
  for (const Task &T : Tasks)
    if (T.State == TaskState::Done && !T.Key.empty())
      Keys.push_back(T.Key);
  return Keys;
}

TaskLedger::Counters TaskLedger::counters() const {
  std::lock_guard<std::mutex> G(M);
  return Stats;
}
