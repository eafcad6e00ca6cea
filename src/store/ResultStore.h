//===- ResultStore.h - Persistent content-addressed result cache -*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An on-disk, content-addressed cache of completed analysis results —
/// the L2 layer under the batch executor's in-process ResultCache — and
/// the one result-reuse path every client shares (ResultKeys): one key
/// string for both layers, one reuse rule, one publish. Keys fingerprint
/// everything a result depends on (program content, canonical spec,
/// budgets, registry content — see resultStoreKey); values are
/// checksummed binary StoredResult entries (store/ResultCodec.h).
///
/// Layout under the store directory:
///
///   objects/<fnv64(key) as 16 hex>.csce   one entry per key
///
/// The entry files are the store's only state: an entry's size is its
/// byte count for GC and its mtime is its LRU stamp (set from the
/// store's clock on publish and on every lookup hit). A fleet run adds
/// its transient task ledger (ledger.bin, store/TaskLedger.h) beside
/// objects/ while it lasts.
///
/// Entry file format: 8-byte magic, u32 format version (3: the
/// hash-consed projection), u64 FNV-1a body checksum, body (u32 key
/// length + key bytes, u64 payload length, payload). The full key is
/// embedded and compared on every lookup, so a key-hash collision is a
/// plain miss, never a wrong answer. Each entry is written and read
/// through one buffer: publish frames the payload in place, and lookup
/// validates and decodes the file's bytes where they were read.
///
/// Failure discipline — the store may only ever make things slower,
/// never wrong, and never crash:
///
///  * Every lookup re-validates the entry file end to end (magic,
///    version, checksum, key, decode). Any mismatch is a miss, counted
///    as a corrupt eviction, and the bad file is unlinked so the next
///    publish heals it.
///  * Publishes are atomic: the entry is written to a temp file in the
///    same directory and rename()d into place, so concurrent readers and
///    writers — including other processes — see either the old complete
///    entry or the new complete entry, never a partial write. Racing
///    publishers of one key write identical bytes by construction (the
///    key fingerprints the inputs), so last-rename-wins is harmless.
///  * An unusable directory (not creatable/writable) degrades the whole
///    store to a no-op: usable() turns false, lookups miss, publishes
///    fail silently into counters.
///
/// Thread-safety: one ResultStore handle is fully thread-safe (a single
/// internal mutex). Any number of handles — in one process or many — may
/// share a directory: every state change is one rename(), unlink() or
/// mtime update of one entry file, so no cross-process lock is needed.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_STORE_RESULTSTORE_H
#define CSC_STORE_RESULTSTORE_H

#include "store/ResultCodec.h"

#include <functional>
#include <mutex>
#include <string>

namespace csc {

/// 64-bit FNV-1a hash over the printed program — the program half of the
/// result key. Two programs with identical IR content (regardless of how
/// they were built: files, inline source, IRBuilder) fingerprint
/// identically.
uint64_t programFingerprint(const Program &P);

/// FNV-1a fingerprint of the analysis table — the sorted (name,
/// description) listing. Adding, removing, or redescribing an analysis
/// changes the value, so a store filled by a build with a different table
/// never serves this one.
uint64_t registryFingerprint(const AnalysisRegistry &R);

/// Composes the key string for one (program, spec, budgets, registry)
/// request. \p CanonicalSpec is an AnalysisRecipe::Canonical;
/// ResultKeys::key supplies it.
std::string resultStoreKey(uint64_t ProgramFingerprint,
                           uint64_t WorkBudget, double TimeBudgetMs,
                           uint64_t RegistryFingerprint,
                           const std::string &CanonicalSpec);

/// One request's identity, shared by the in-process ResultCache and the
/// on-disk store: the spec built once, and the key it is stored under.
struct ResultKey {
  /// What AnalysisRegistry::build made of the spec. Recipe.Canonical is
  /// the name every client serializes the report under — the requested
  /// text when the spec does not parse.
  AnalysisRecipe Recipe;
  /// build()'s diagnostic; empty when Recipe is runnable.
  std::string Error;
  /// resultStoreKey over the session and Recipe.Canonical; empty when the
  /// spec does not parse (nothing is looked up or published then).
  std::string Key;
};

class ResultStore;

/// The one result-reuse path of --batch, single runs and --serve. Binds
/// what a loaded session contributes to every key — program fingerprint,
/// budgets, registry fingerprint — once, then keys specs, serves them
/// from the store or runs and publishes them.
class ResultKeys {
public:
  /// What lookupOrRun produced for one spec.
  struct Outcome {
    /// Name is the spec as requested. A served run has no timings: the
    /// store keeps none.
    AnalysisRun Run;
    /// Timing-free report under the canonical name — the bytes batch
    /// aggregates splice, independent of which spelling computed first.
    std::string RunJson;
    bool Served = false;    ///< Loaded from the store, not computed.
    bool Published = false; ///< Computed, and the store took the entry.
  };

  explicit ResultKeys(const AnalysisSession &S);

  /// Builds \p Spec into \p Out and keys it; false (Key empty) when the
  /// spec does not parse. A spec that parses but does not build is still
  /// keyed — never looked up in the store nor published — and runs as a
  /// SpecError.
  bool key(const std::string &Spec, ResultKey &Out) const;
  /// Keys an already built recipe (the server's resident one).
  ResultKey key(AnalysisRecipe Recipe) const;

  /// The one reuse rule. A completed run and a work-budget exhaustion are
  /// exact, so they are reused; a wall-clock exhaustion (it depends on
  /// machine load) and a spec error (no result, free to rediagnose) never
  /// are.
  bool reusable(const AnalysisRun &Run) const;

  /// Look up, else run on the session and publish: a SpecError run when
  /// \p K (key(Spec, K)) did not build; otherwise serves \p Spec from
  /// \p Store when it holds a valid entry under \p K, or runs K.Recipe on
  /// \p S and, when the outcome is reusable, publishes it. A null
  /// \p Store or an unkeyed \p K only runs. Thread-safe, like
  /// AnalysisSession::run and ResultStore.
  Outcome lookupOrRun(AnalysisSession &S, ResultStore *Store,
                      const std::string &Spec, const ResultKey &K) const;

private:
  uint64_t ProgramFp, RegistryFp, WorkBudget;
  double TimeBudgetMs;
};

class ResultStore {
public:
  struct Options {
    std::string Dir; ///< Store directory; created if absent.
    /// GC byte budget for objects/ (0 = unbounded). When the entries
    /// exceed it, the least-recently-accessed ones are evicted until the
    /// survivors fit — except entries pinned by a live task ledger
    /// (`<Dir>/ledger.bin`), which a coordinator still needs.
    uint64_t MaxBytes = 0;
    /// GC age bound in milliseconds (0 = unbounded): entries not
    /// accessed for longer are evicted regardless of the byte budget.
    uint64_t MaxAgeMs = 0;
    /// Clock in milliseconds for access stamps (entry mtimes) and age
    /// math (wall clock by default — stamps are shared across
    /// processes). Tests inject a fake clock to step through age
    /// schedules.
    std::function<uint64_t()> NowMs;
    /// Fault injection: fail every file write, as ENOSPC would. The
    /// store must degrade to counted publish failures, never crash.
    bool TestFailWrites = false;
  };

  /// Monotonic per-handle statistics (never persisted).
  struct Counters {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Publishes = 0;
    uint64_t PublishFailures = 0;
    uint64_t CorruptEvictions = 0; ///< Entries failing validation.
    uint64_t GcEvictions = 0;      ///< Entries retired by age/size GC.
  };

  /// One full-store validation sweep's outcome.
  struct ScrubReport {
    uint64_t Valid = 0;
    uint64_t Corrupt = 0; ///< Failed validation (evicted).
    uint64_t Bytes = 0;   ///< Total size of the valid entries.
  };

  /// One age/size GC pass's outcome.
  struct GcReport {
    uint64_t Evicted = 0;
    uint64_t FreedBytes = 0;
    uint64_t Pinned = 0; ///< Over-budget entries spared by a live lease.
  };

  /// Opens (creating if needed) the store at Options::Dir; when GC
  /// bounds are configured, runs a GC pass over what it inherited. Never
  /// throws: an unusable directory leaves the handle in the degraded
  /// no-op state.
  explicit ResultStore(Options O);

  /// False when the directory could not be created/used; error() says
  /// why. A degraded store misses every lookup and drops every publish.
  bool usable() const;
  const std::string &error() const { return Err; }
  const Options &options() const { return Opts; }

  /// True (filling \p Out) when a fully validated entry for \p Key
  /// exists; a hit stamps the entry's mtime (best effort: a read-only
  /// store still serves). Any validation failure is a miss; corrupt
  /// entries are counted and unlinked.
  bool lookup(const std::string &Key, StoredResult &Out);

  /// Atomically writes the entry for \p Key — \p Run and its report
  /// \p RunJson, encoded in place — stamped with the store's clock. False
  /// (counted) on I/O failure. An existing valid entry is left untouched
  /// — identical bytes by construction.
  bool publish(const std::string &Key, const AnalysisRun &Run,
               const std::string &RunJson);
  /// publish(Key, Value.Run, Value.RunJson): the same bytes.
  bool publish(const std::string &Key, const StoredResult &Value);

  /// Validates every entry in the directory, evicting corrupt ones.
  ScrubReport scrub();

  /// Runs one age/size GC pass against Options::MaxBytes / MaxAgeMs:
  /// evicts least-recently-accessed entries until the rest fit the byte
  /// budget, plus anything older than the age bound — never an entry
  /// whose key a live task ledger pins. A no-op when no bound is set.
  GcReport gc();

  Counters counters() const;

private:
  uint64_t nowMs() const;
  GcReport gcLocked();
  std::string objectPath(const std::string &Key) const;
  /// Reads + fully validates one entry file's framing into \p Bytes.
  /// Returns 0 on a valid entry (its payload is \p Bytes from
  /// \p PayloadAt on), 1 when the file is absent (plain miss), 2 on
  /// corruption (caller counts/evicts), 3 on a key-hash collision (valid
  /// entry for some other key: plain miss, never evicted). An empty
  /// \p ExpectKey accepts any key.
  int readEntry(const std::string &Path, const std::string &ExpectKey,
                std::string &Bytes, size_t &PayloadAt) const;
  bool writeFileAtomic(const std::string &FinalPath,
                       const std::string &Bytes) const;

  Options Opts;
  std::string Err; ///< Non-empty when the store is degraded.
  mutable std::mutex M;
  Counters Stats;
  mutable uint64_t TempSeq = 0; ///< Uniquifies temp names in the handle.
};

} // namespace csc

#endif // CSC_STORE_RESULTSTORE_H
