//===- ResultStore.cpp - Persistent content-addressed result cache --------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "store/ResultStore.h"

#include "client/AnalysisRegistry.h"
#include "client/Report.h"
#include "ir/Printer.h"
#include "store/TaskLedger.h"
#include "support/Hash.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#ifndef _WIN32
#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
#define CSC_STORE_POSIX 1
#endif

using namespace csc;

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

uint64_t csc::programFingerprint(const Program &P) {
  // Over the printed IR: stable across how the program was built (files,
  // inline source, IRBuilder) and cheap relative to one solve.
  std::string Text = printProgram(P);
  return fnv1a64(Text.data(), Text.size());
}

uint64_t csc::registryFingerprint(const AnalysisRegistry &R) {
  // list() is sorted by name, so the fingerprint is iteration-order
  // independent; NUL separators keep (name, description) unambiguous.
  uint64_t H = 1469598103934665603ULL;
  for (const auto &[Name, Desc] : R.list()) {
    H = fnv1a64(Name.data(), Name.size(), H);
    H = fnv1a64("\0", 1, H);
    H = fnv1a64(Desc.data(), Desc.size(), H);
    H = fnv1a64("\0", 1, H);
  }
  return H;
}

std::string csc::resultStoreKey(uint64_t ProgramFingerprint,
                                uint64_t WorkBudget, double TimeBudgetMs,
                                uint64_t RegistryFingerprint,
                                const std::string &CanonicalSpec) {
  // Everything a result depends on: program content, the budgets of the
  // session that runs it, the registry resolving the spec, the spec.
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "p%016llx|w%llu|t%.17g|g%016llx|",
                static_cast<unsigned long long>(ProgramFingerprint),
                static_cast<unsigned long long>(WorkBudget), TimeBudgetMs,
                static_cast<unsigned long long>(RegistryFingerprint));
  return Buf + CanonicalSpec;
}

ResultKeys::ResultKeys(const AnalysisSession &S)
    : Registry(S.registry()), ProgramFp(programFingerprint(S.program())),
      RegistryFp(registryFingerprint(Registry)),
      WorkBudget(S.options().WorkBudget),
      TimeBudgetMs(S.options().TimeBudgetMs) {}

bool ResultKeys::key(const std::string &Spec, ResultKey &Out) const {
  // Alias resolution makes "k-type;k=3" and "2type;k=3" one key and one
  // report name.
  AnalysisSpec Parsed;
  std::string Error;
  if (!parseAnalysisSpec(Spec, Parsed, Error)) {
    Out = {Spec, std::string()};
    return false;
  }
  Parsed.Name = Registry.resolveName(Parsed.Name);
  Out.Canonical = canonicalSpec(Parsed);
  Out.Key = resultStoreKey(ProgramFp, WorkBudget, TimeBudgetMs, RegistryFp,
                           Out.Canonical);
  return true;
}

bool ResultKeys::reusable(const AnalysisRun &Run) const {
  return Run.Status == RunStatus::Completed ||
         (Run.Status == RunStatus::BudgetExhausted && TimeBudgetMs == 0);
}

std::string ResultKeys::publish(ResultStore *Store, const ResultKey &K,
                                AnalysisRun &Run, bool *Published) const {
  std::string Display = std::move(Run.Name);
  Run.Name = K.Canonical;
  JsonWriter J;
  appendRunJson(J, Run, /*IncludeTimings=*/false);
  Run.Name = std::move(Display);
  std::string RunJson = J.take();
  bool Ok = Store && !K.Key.empty() && reusable(Run) &&
            Store->publish(K.Key, storedFromRun(Run, RunJson));
  if (Published)
    *Published = Ok;
  return RunJson;
}

//===----------------------------------------------------------------------===//
// File plumbing
//===----------------------------------------------------------------------===//

namespace {

// Entry files: magic, format version, body checksum, body. The checksum
// covers the whole body (key framing + payload), so any flipped bit past
// the fixed header is caught; flips inside the header fail the magic /
// version / checksum comparison instead.
constexpr char EntryMagic[8] = {'C', 'S', 'C', 'P', 'T', 'A', 'R', '1'};
// X2 added the per-record access stamp for GC. An X1 index simply fails
// to parse, which the existing rebuild sweep self-repairs (stamping
// entries from their file mtimes) — no migration path needed.
constexpr char IndexMagic[8] = {'C', 'S', 'C', 'P', 'T', 'A', 'X', '2'};
constexpr uint32_t FormatVersion = 1;
constexpr size_t HeaderBytes = 8 + 4 + 8; // magic + version + checksum

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return In.good() || In.eof();
}

std::string frame(const char (&Magic)[8], const std::string &Body) {
  BinaryWriter W;
  std::string Out(Magic, 8);
  W.u32(FormatVersion);
  W.u64(fnv1a64(Body.data(), Body.size()));
  Out += W.take();
  Out += Body;
  return Out;
}

/// Validates magic/version/checksum framing; on success \p BodyOut is
/// the checksummed body. False on any mismatch.
bool unframe(const std::string &Bytes, const char (&Magic)[8],
             std::string &BodyOut) {
  if (Bytes.size() < HeaderBytes ||
      std::memcmp(Bytes.data(), Magic, 8) != 0)
    return false;
  BinaryReader R(Bytes.data() + 8, HeaderBytes - 8);
  uint32_t Version;
  uint64_t Sum;
  if (!R.u32(Version) || !R.u64(Sum) || Version != FormatVersion)
    return false;
  BodyOut = Bytes.substr(HeaderBytes);
  return fnv1a64(BodyOut.data(), BodyOut.size()) == Sum;
}

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

#ifdef CSC_STORE_POSIX

bool ensureDir(const std::string &Path, std::string &Err) {
  if (::mkdir(Path.c_str(), 0777) == 0 || errno == EEXIST) {
    struct stat St;
    if (::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
      return true;
  }
  Err = "cannot create directory '" + Path + "': " + std::strerror(errno);
  return false;
}

/// Advisory exclusive lock on the store's lock file for index rewrites.
/// Lock failure degrades to lock-free best effort (index writes stay
/// atomic via rename either way) rather than blocking the analysis.
class ScopedFileLock {
public:
  explicit ScopedFileLock(const std::string &Path) {
    Fd = ::open(Path.c_str(), O_RDWR | O_CREAT, 0644);
    if (Fd >= 0 && ::flock(Fd, LOCK_EX) != 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~ScopedFileLock() {
    if (Fd >= 0) {
      ::flock(Fd, LOCK_UN);
      ::close(Fd);
    }
  }
  ScopedFileLock(const ScopedFileLock &) = delete;
  ScopedFileLock &operator=(const ScopedFileLock &) = delete;

private:
  int Fd = -1;
};

uint64_t fileMtimeMs(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return 0;
  return static_cast<uint64_t>(St.st_mtime) * 1000ULL;
}

std::vector<std::string> listEntryFiles(const std::string &ObjectsDir) {
  std::vector<std::string> Files;
  DIR *D = ::opendir(ObjectsDir.c_str());
  if (!D)
    return Files;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > 5 && Name.compare(Name.size() - 5, 5, ".csce") == 0)
      Files.push_back(Name);
  }
  ::closedir(D);
  std::sort(Files.begin(), Files.end());
  return Files;
}

#endif // CSC_STORE_POSIX

} // namespace

//===----------------------------------------------------------------------===//
// ResultStore
//===----------------------------------------------------------------------===//

ResultStore::ResultStore(Options O) : Opts(std::move(O)) {
#ifdef CSC_STORE_POSIX
  if (Opts.Dir.empty()) {
    Err = "store directory is empty";
    return;
  }
  if (!ensureDir(Opts.Dir, Err) ||
      !ensureDir(Opts.Dir + "/objects", Err))
    return;
  std::lock_guard<std::mutex> G(M);
  loadIndexLocked();
  gcLocked(); // enforce the configured bounds against what we inherited
#else
  Err = "persistent result store requires a POSIX platform";
#endif
}

ResultStore::~ResultStore() {
  std::lock_guard<std::mutex> G(M);
  if (usable() && AccessDirty)
    flushAccessLocked();
}

bool ResultStore::usable() const { return Err.empty(); }

uint64_t ResultStore::nowMs() const {
  if (Opts.NowMs)
    return Opts.NowMs();
  using namespace std::chrono;
  return static_cast<uint64_t>(
      duration_cast<milliseconds>(system_clock::now().time_since_epoch())
          .count());
}

std::string ResultStore::objectPath(const std::string &Key) const {
  return Opts.Dir + "/objects/" +
         hex16(fnv1a64(Key.data(), Key.size())) + ".csce";
}

int ResultStore::readEntry(const std::string &Path,
                           const std::string &ExpectKey,
                           std::string &KeyOut, std::string &PayloadOut,
                           uint64_t &ChecksumOut) const {
  std::string Bytes;
  if (!readWholeFile(Path, Bytes))
    return 1; // absent/unreadable: a plain miss, nothing to repair
  std::string Body;
  if (!unframe(Bytes, EntryMagic, Body))
    return 2; // bad magic, version skew, truncation, or flipped bits
  BinaryReader R(Body);
  uint64_t PayloadLen;
  if (!R.str(KeyOut) || !R.u64(PayloadLen) || PayloadLen != R.remaining())
    return 2;
  if (!ExpectKey.empty() && KeyOut != ExpectKey)
    return 3; // valid entry for another key: hash collision, not damage
  PayloadOut = Body.substr(Body.size() - PayloadLen);
  ChecksumOut = fnv1a64(Body.data(), Body.size());
  return 0;
}

void ResultStore::evictLocked(const std::string &Path,
                              const std::string &Key) {
  if (Opts.Repair)
    std::remove(Path.c_str());
  if (!Key.empty())
    Index.erase(Key);
}

bool ResultStore::lookup(const std::string &Key, StoredResult &Out) {
  std::lock_guard<std::mutex> G(M);
  if (!usable() || Key.empty()) {
    ++Stats.Misses;
    return false;
  }
  std::string Path = objectPath(Key);
  std::string FileKey, Payload;
  uint64_t Sum = 0;
  int RC = readEntry(Path, Key, FileKey, Payload, Sum);
  if (RC == 0) {
    StoredResult Value;
    if (deserializeStoredResult(Payload, Value)) {
      ++Stats.Hits;
      // Stamp the access so GC's LRU order reflects use, not just
      // publish time. Stamps batch in memory and flush at destruction.
      auto It = Index.find(Key);
      if (It != Index.end()) {
        It->second.LastAccessMs = nowMs();
        AccessDirty = true;
      }
      Out = std::move(Value);
      return true;
    }
    RC = 2; // checksummed but undecodable: format skew within a version
  }
  if (RC == 2) {
    ++Stats.CorruptEvictions;
    evictLocked(Path, Key);
  }
  ++Stats.Misses;
  return false;
}

bool ResultStore::writeFileAtomic(const std::string &FinalPath,
                                  const std::string &Bytes) const {
#ifdef CSC_STORE_POSIX
  if (Opts.TestFailWrites)
    return false; // simulated ENOSPC: every write fails, nothing lands
  char Temp[64];
  std::snprintf(Temp, sizeof(Temp), ".tmp-%ld-%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(++TempSeq));
  size_t Slash = FinalPath.rfind('/');
  std::string TempPath = FinalPath.substr(0, Slash + 1) + Temp;
  {
    std::ofstream OutF(TempPath, std::ios::binary | std::ios::trunc);
    OutF.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    OutF.flush();
    if (!OutF.good()) {
      std::remove(TempPath.c_str());
      return false;
    }
  }
  if (std::rename(TempPath.c_str(), FinalPath.c_str()) != 0) {
    std::remove(TempPath.c_str());
    return false;
  }
  return true;
#else
  (void)FinalPath;
  (void)Bytes;
  return false;
#endif
}

bool ResultStore::publish(const std::string &Key,
                          const StoredResult &Value) {
  std::lock_guard<std::mutex> G(M);
  if (!usable() || Key.empty()) {
    ++Stats.PublishFailures;
    return false;
  }
  std::string Payload = serializeStoredResult(Value);
  std::string Path = objectPath(Key);

  // An existing valid entry for this key holds identical bytes by
  // construction (the key fingerprints the inputs) — skip the rewrite.
  {
    std::string FileKey, Existing;
    uint64_t Sum = 0;
    if (readEntry(Path, Key, FileKey, Existing, Sum) == 0 &&
        Existing == Payload)
      return true;
  }

  BinaryWriter BodyW;
  BodyW.str(Key);
  BodyW.u64(Payload.size());
  std::string Body = BodyW.take() + Payload;
  std::string Bytes = frame(EntryMagic, Body);
  if (!writeFileAtomic(Path, Bytes)) {
    ++Stats.PublishFailures;
    return false;
  }
  ++Stats.Publishes;

  IndexRecord Rec;
  Rec.File = Path.substr(Path.rfind('/') + 1);
  Rec.Checksum = fnv1a64(Body.data(), Body.size());
  Rec.Bytes = Bytes.size();
  Rec.LastAccessMs = nowMs();
  Index[Key] = Rec;
  mergeIndexOnDiskLocked(Key, Rec);
  gcLocked(); // keep the byte budget enforced as the store grows
  return true;
}

//===----------------------------------------------------------------------===//
// Index
//===----------------------------------------------------------------------===//

bool ResultStore::parseIndexBytes(
    const std::string &Bytes, std::map<std::string, IndexRecord> &Out) const {
  std::string Body;
  if (!unframe(Bytes, IndexMagic, Body))
    return false;
  BinaryReader R(Body);
  uint32_t Count;
  if (!R.u32(Count) || !R.fits(Count, 4 + 4 + 8 + 8 + 8))
    return false;
  for (uint32_t I = 0; I != Count; ++I) {
    std::string Key;
    IndexRecord Rec;
    if (!R.str(Key) || !R.str(Rec.File) || !R.u64(Rec.Checksum) ||
        !R.u64(Rec.Bytes) || !R.u64(Rec.LastAccessMs))
      return false;
    Out.emplace(std::move(Key), std::move(Rec));
  }
  return R.atEnd();
}

std::string ResultStore::indexBytesLocked(
    const std::map<std::string, IndexRecord> &Records) const {
  BinaryWriter W;
  W.u32(static_cast<uint32_t>(Records.size()));
  for (const auto &[Key, Rec] : Records) {
    W.str(Key);
    W.str(Rec.File);
    W.u64(Rec.Checksum);
    W.u64(Rec.Bytes);
    W.u64(Rec.LastAccessMs);
  }
  return frame(IndexMagic, W.take());
}

bool ResultStore::writeIndexLocked() const {
  return writeFileAtomic(Opts.Dir + "/index.bin",
                         indexBytesLocked(Index));
}

void ResultStore::mergeIndexOnDiskLocked(const std::string &Key,
                                         const IndexRecord &Rec) {
#ifdef CSC_STORE_POSIX
  // Read-merge-write under the advisory lock so concurrent publishers
  // never drop each other's records. The disk copy wins for keys this
  // handle has not touched; our record wins for this key.
  ScopedFileLock Lock(Opts.Dir + "/store.lock");
  std::map<std::string, IndexRecord> Merged;
  std::string Bytes;
  if (readWholeFile(Opts.Dir + "/index.bin", Bytes))
    parseIndexBytes(Bytes, Merged); // invalid disk index: start from ours
  for (const auto &KV : Index)
    Merged.insert(KV); // insert(): existing disk records win
  Merged[Key] = Rec;
  writeFileAtomic(Opts.Dir + "/index.bin", indexBytesLocked(Merged));
#else
  (void)Key;
  (void)Rec;
#endif
}

bool ResultStore::loadIndexLocked() {
#ifdef CSC_STORE_POSIX
  std::string Bytes;
  bool HaveFile = readWholeFile(Opts.Dir + "/index.bin", Bytes);
  if (HaveFile) {
    std::map<std::string, IndexRecord> Parsed;
    if (parseIndexBytes(Bytes, Parsed)) {
      Index = std::move(Parsed);
      return true;
    }
  } else if (listEntryFiles(Opts.Dir + "/objects").empty()) {
    return true; // fresh (or fully empty) store: nothing to index
  }
  // Missing-with-entries or invalid: self-repair with a validation sweep
  // that re-derives the manifest from the entries themselves.
  ++Stats.IndexRebuilds;
  Index.clear();
  sweepLocked();
  return false;
#else
  return false;
#endif
}

ResultStore::ScrubReport ResultStore::sweepLocked() {
  ScrubReport Report;
#ifdef CSC_STORE_POSIX
  std::string ObjectsDir = Opts.Dir + "/objects";
  for (const std::string &File : listEntryFiles(ObjectsDir)) {
    std::string Path = ObjectsDir + "/" + File;
    std::string Key, Payload;
    uint64_t Sum = 0;
    int RC = readEntry(Path, "", Key, Payload, Sum);
    StoredResult Value;
    if (RC == 0 && deserializeStoredResult(Payload, Value)) {
      ++Report.Valid;
      std::string Bytes;
      readWholeFile(Path, Bytes);
      Report.Bytes += Bytes.size();
      IndexRecord Rec;
      Rec.File = File;
      Rec.Checksum = Sum;
      Rec.Bytes = Bytes.size();
      // A sweep has no access history (the index it would have lived in
      // is gone) — approximate with the file mtime so GC's LRU order
      // still prefers evicting genuinely old entries.
      Rec.LastAccessMs = fileMtimeMs(Path);
      Index[Key] = Rec;
    } else {
      ++Report.Corrupt;
      ++Stats.CorruptEvictions;
      evictLocked(Path, Key);
    }
  }
  ScopedFileLock Lock(Opts.Dir + "/store.lock");
  writeIndexLocked();
#endif
  return Report;
}

ResultStore::ScrubReport ResultStore::scrub() {
  std::lock_guard<std::mutex> G(M);
  if (!usable())
    return ScrubReport();
  Index.clear();
  return sweepLocked();
}

//===----------------------------------------------------------------------===//
// GC
//===----------------------------------------------------------------------===//

ResultStore::GcReport ResultStore::gcLocked() {
  GcReport Report;
#ifdef CSC_STORE_POSIX
  if (!usable() || (Opts.MaxBytes == 0 && Opts.MaxAgeMs == 0))
    return Report;

  // Entries a live ledger's completed-but-unconsumed tasks point at are
  // off limits: evicting one would force the coordinator to recompute
  // work the fleet already did (still correct, but the one thing the
  // lease protocol exists to avoid).
  std::set<std::string> Pinned;
  for (const std::string &K : TaskLedger::pinnedKeys(Opts.Dir + "/ledger.bin"))
    Pinned.insert(K);

  uint64_t Now = nowMs();
  uint64_t Total = 0;
  // (LastAccess, Key): oldest-first eviction order for the size pass.
  std::vector<std::pair<uint64_t, std::string>> ByAge;
  for (const auto &[Key, Rec] : Index) {
    Total += Rec.Bytes;
    ByAge.emplace_back(Rec.LastAccessMs, Key);
  }
  std::sort(ByAge.begin(), ByAge.end());

  std::vector<std::string> Evict;
  for (const auto &[Access, Key] : ByAge) {
    bool TooOld = Opts.MaxAgeMs != 0 && Access + Opts.MaxAgeMs < Now;
    bool OverBudget = Opts.MaxBytes != 0 && Total > Opts.MaxBytes;
    if (!TooOld && !OverBudget)
      break; // ByAge is oldest-first: nothing later qualifies either
    if (Pinned.count(Key)) {
      ++Report.Pinned;
      continue;
    }
    const IndexRecord &Rec = Index[Key];
    Total -= Rec.Bytes;
    Report.FreedBytes += Rec.Bytes;
    Evict.push_back(Key);
  }
  if (Evict.empty())
    return Report;

  for (const std::string &Key : Evict) {
    std::remove((Opts.Dir + "/objects/" + Index[Key].File).c_str());
    Index.erase(Key);
    ++Stats.GcEvictions;
    ++Report.Evicted;
  }

  // Deletions must propagate to the shared index — a plain merge would
  // resurrect the evicted keys from the disk copy. Under the lock: drop
  // them from the disk records, keep everything else disk-wins.
  ScopedFileLock Lock(Opts.Dir + "/store.lock");
  std::map<std::string, IndexRecord> Merged;
  std::string Bytes;
  bool DiskOk =
      readWholeFile(Opts.Dir + "/index.bin", Bytes) &&
      parseIndexBytes(Bytes, Merged);
  for (const std::string &Key : Evict)
    Merged.erase(Key);
  // Keys a readable disk index lacks were evicted by another handle:
  // re-inserting ours would resurrect records whose object files are
  // gone and over-count the next GC pass's total. Only repair the index
  // wholesale when there is no valid disk copy to defer to.
  for (const auto &KV : Index)
    if (!DiskOk || Merged.count(KV.first))
      Merged.insert(KV); // insert(): existing disk records win
  writeFileAtomic(Opts.Dir + "/index.bin", indexBytesLocked(Merged));
#endif
  return Report;
}

ResultStore::GcReport ResultStore::gc() {
  std::lock_guard<std::mutex> G(M);
  return gcLocked();
}

void ResultStore::flushAccessLocked() {
#ifdef CSC_STORE_POSIX
  // Max-merge our access stamps into the shared index: another handle
  // may have stamped the same keys later; never move a stamp backwards.
  ScopedFileLock Lock(Opts.Dir + "/store.lock");
  std::map<std::string, IndexRecord> Merged;
  std::string Bytes;
  bool DiskOk =
      readWholeFile(Opts.Dir + "/index.bin", Bytes) &&
      parseIndexBytes(Bytes, Merged);
  for (const auto &[Key, Rec] : Index) {
    auto It = Merged.find(Key);
    if (It == Merged.end()) {
      // Absent from a readable disk index means another handle GC'd the
      // entry; an access stamp must not resurrect it. Without a valid
      // disk copy, fall back to repairing from our records.
      if (!DiskOk)
        Merged[Key] = Rec;
    } else if (It->second.LastAccessMs < Rec.LastAccessMs)
      It->second.LastAccessMs = Rec.LastAccessMs;
  }
  writeFileAtomic(Opts.Dir + "/index.bin", indexBytesLocked(Merged));
  AccessDirty = false;
#endif
}

ResultStore::Counters ResultStore::counters() const {
  std::lock_guard<std::mutex> G(M);
  return Stats;
}
