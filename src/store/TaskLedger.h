//===- TaskLedger.h - Crash-safe lease ledger for batch tasks ---*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordination substrate of fault-tolerant multi-process batches: a
/// crash-safe on-disk ledger of (entry, spec) tasks that worker
/// processes *pull* by acquiring time-limited leases, so a crashed
/// worker forfeits only the task it held, never a fixed slice.
///
/// The protocol, per task:
///
///  * acquire() leases the lowest-numbered runnable task to a worker
///    with a TTL; every lease increments the task's attempt counter.
///  * renew() is the mid-run heartbeat: a healthy worker extends its
///    lease long before expiry, so a long solve is never preempted.
///  * complete() marks the task done, recording the store key of the
///    published result (store GC pins those keys while the ledger is
///    live — the coordinator has not consumed them yet).
///  * A lease that expires un-renewed (its worker crashed, hung, or was
///    SIGSTOPped) is reclaimed by the next acquire(): the task returns
///    to the pending pool behind an exponential backoff, or — once its
///    attempts reach the configured maximum — is quarantined with a
///    pinned diagnostic instead of crash-looping the fleet forever.
///  * noteWorkerDeath() lets a supervisor that *observed* a worker die
///    expire its leases immediately (no TTL wait) and attach the death
///    cause, which the quarantine diagnostic preserves.
///
/// Durability discipline matches ResultStore: every mutation re-reads
/// the ledger file, applies the change, and atomically rewrites it
/// (temp + rename) under an advisory flock, so any number of workers on
/// any number of hosts sharing the directory stay coherent and a crash
/// mid-operation leaves the previous complete ledger behind. A ledger
/// that cannot be read or written degrades to the Error status — the
/// caller falls back to computing in-process; coordination failures may
/// cost parallelism, never correctness.
///
/// Thread-safety: one TaskLedger handle is fully thread-safe (internal
/// mutex); the on-disk state is additionally safe across handles and
/// processes via the flock.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_STORE_TASKLEDGER_H
#define CSC_STORE_TASKLEDGER_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace csc {

class TaskLedger {
public:
  enum class TaskState : uint8_t {
    Pending = 0,     ///< Runnable (possibly behind a retry backoff).
    Leased = 1,      ///< Owned by a worker until the lease expires.
    Done = 2,        ///< Completed; Key names the published result.
    Quarantined = 3, ///< Exhausted its attempts; Diag says why.
  };

  struct Options {
    std::string Path; ///< Ledger file; the lock file is Path + ".lock".
    /// Clock in milliseconds (wall clock by default — lease expiries
    /// must mean the same thing to every process sharing the file).
    /// Tests inject a fake clock to step through expiry schedules.
    std::function<uint64_t()> NowMs;
    /// Fault injection: fail every write, as ENOSPC would. The ledger
    /// must degrade to Error statuses, never crash or corrupt.
    bool TestFailWrites = false;
  };

  /// Fleet-wide parameters, fixed at create() and embedded in the file
  /// so every participant agrees on them.
  struct Config {
    uint64_t BatchFingerprint = 0; ///< Manifest identity guard.
    uint32_t TaskCount = 0;
    uint32_t LeaseTtlMs = 5000;
    uint32_t MaxAttempts = 3;   ///< Quarantine after this many leases.
    uint32_t BackoffBaseMs = 50; ///< Reclaim backoff: base << (attempt-1).
  };

  struct Task {
    TaskState State = TaskState::Pending;
    uint32_t Attempts = 0;    ///< Leases granted so far.
    uint64_t Owner = 0;       ///< Current/last lease holder (worker id).
    uint64_t LeaseExpiryMs = 0;
    uint64_t NotBeforeMs = 0; ///< Retry backoff gate while Pending.
    std::string Key;          ///< Store key, recorded by complete().
    std::string LastFailure;  ///< Most recently observed failure cause.
    std::string Diag;         ///< Pinned quarantine diagnostic.
  };

  struct Summary {
    uint32_t Total = 0;
    uint32_t Pending = 0;
    uint32_t Leased = 0;
    uint32_t Done = 0;
    uint32_t Quarantined = 0;
    bool drained() const { return Done + Quarantined == Total; }
  };

  enum class AcquireStatus {
    Acquired, ///< \p Out holds the lease.
    Retry,    ///< Nothing runnable yet; try again in \p RetryInMs.
    Drained,  ///< Every task is Done or Quarantined.
    Error,    ///< Ledger unreadable/unwritable; fall back in-process.
  };

  struct Lease {
    uint32_t Task = 0;
    uint32_t Attempt = 0; ///< 1-based attempt this lease represents.
  };

  struct Counters {
    uint64_t Acquires = 0;
    uint64_t Renews = 0;
    uint64_t Completes = 0;
    uint64_t Reclaims = 0;    ///< Expired leases returned to Pending.
    uint64_t Quarantines = 0; ///< Tasks retired after MaxAttempts.
    uint64_t IoFailures = 0;  ///< Read/parse/write failures.
  };

  explicit TaskLedger(Options O);

  /// Creates (or resets) the ledger with Config::TaskCount pending
  /// tasks. False (counted) when the file cannot be written.
  bool create(const Config &C);

  /// Reads the embedded Config of an existing ledger. False when the
  /// file is absent/invalid or \p ExpectFingerprint (when nonzero) does
  /// not match — a worker handed a stale ledger must not run.
  bool config(Config &Out, uint64_t ExpectFingerprint = 0);

  /// Leases the next runnable task to \p Worker. Reclaims or
  /// quarantines every expired lease it encounters first, so liveness
  /// only needs one polling worker. On Retry, \p RetryInMs is the delay
  /// until the nearest backoff gate or lease expiry.
  AcquireStatus acquire(uint64_t Worker, Lease &Out, uint64_t &RetryInMs);

  /// Heartbeat: extends the lease by the configured TTL. False when the
  /// lease is no longer held (reclaimed after expiry) — the worker
  /// should abandon the task; the result it may still publish is
  /// harmless (identical bytes under the same store key).
  bool renew(const Lease &L, uint64_t Worker);

  /// Marks the leased task done, recording the store key its result was
  /// published under ("" when nothing was published, e.g. spec errors).
  /// False when the lease was reclaimed first; the task's eventual
  /// owner completes it instead.
  bool complete(const Lease &L, uint64_t Worker, const std::string &Key);

  /// Supervisor path: \p Worker was observed to die with \p Cause.
  /// Expires its leases immediately (no TTL wait) and records the cause
  /// so a later quarantine diagnostic can pin it.
  bool noteWorkerDeath(uint64_t Worker, const std::string &Cause);

  /// Reclaims/quarantines every expired lease without granting a new
  /// one — the supervisor's final accounting pass after the fleet died.
  bool reclaimExpired();

  bool summary(Summary &Out);
  bool snapshot(Config &CfgOut, std::vector<Task> &Out);

  /// Store keys recorded by a live ledger's completed tasks — the
  /// entries a coordinator has yet to consume, which store GC must not
  /// evict. Lock-free read (writes are atomic renames); empty when the
  /// file is absent or invalid.
  static std::vector<std::string> pinnedKeys(const std::string &Path);

  Counters counters() const;
  const Options &options() const { return Opts; }

private:
  struct State {
    Config Cfg;
    std::vector<Task> Tasks;
  };

  uint64_t nowMs() const;
  bool loadLocked(State &S) const;
  bool storeLocked(const State &S) const;
  /// Returns true when any expired lease was reclaimed or quarantined.
  bool reapExpiredLocked(State &S, uint64_t Now);

  Options Opts;
  mutable std::mutex M;
  Counters Stats;
};

} // namespace csc

#endif // CSC_STORE_TASKLEDGER_H
