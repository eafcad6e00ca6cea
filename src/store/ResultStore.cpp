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
#include "support/FileIO.h"
#include "support/Hash.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <tuple>
#include <vector>

#ifndef _WIN32
#include <dirent.h>
#include <fcntl.h>
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
    : ProgramFp(programFingerprint(S.program())),
      RegistryFp(registryFingerprint(S.registry())),
      WorkBudget(S.options().WorkBudget),
      TimeBudgetMs(S.options().TimeBudgetMs) {}

ResultKey ResultKeys::key(AnalysisRecipe Recipe) const {
  std::string Key = resultStoreKey(ProgramFp, WorkBudget, TimeBudgetMs,
                                   RegistryFp, Recipe.Canonical);
  return {std::move(Recipe), std::string(), std::move(Key)};
}

bool ResultKeys::key(const std::string &Spec, ResultKey &Out) const {
  // The spec is built once, here; its canonical name makes "k-type;k=3"
  // and "2type;k=3" one key and one report name.
  AnalysisRecipe Recipe;
  std::string Error;
  AnalysisRegistry::global().build(Spec, Recipe, Error);
  bool Parsed = !Recipe.Canonical.empty();
  if (Parsed) {
    Out = key(std::move(Recipe));
  } else {
    Out = ResultKey();
    Out.Recipe.Canonical = Spec;
  }
  Out.Error = std::move(Error);
  return Parsed;
}

bool ResultKeys::reusable(const AnalysisRun &Run) const {
  return Run.Status == RunStatus::Completed ||
         (Run.Status == RunStatus::BudgetExhausted && TimeBudgetMs == 0);
}

ResultKeys::Outcome ResultKeys::lookupOrRun(AnalysisSession &S,
                                            ResultStore *Store,
                                            const std::string &Spec,
                                            const ResultKey &K) const {
  Outcome Out;
  StoredResult SR;
  // A spec that did not build is never published, so never looked up.
  if (Store && K.Error.empty() && !K.Key.empty() &&
      Store->lookup(K.Key, SR)) {
    Out.Run = std::move(SR.Run);
    Out.RunJson = std::move(SR.RunJson);
    Out.Run.Name = Spec;
    Out.Served = true;
    return Out;
  }
  if (K.Error.empty()) {
    Out.Run = S.run(K.Recipe);
  } else {
    Out.Run.Name = Spec;
    Out.Run.Status = RunStatus::SpecError;
    Out.Run.Error = K.Error;
  }
  // The report is written under the canonical name, the run keeps the
  // requested one.
  std::string Display = std::move(Out.Run.Name);
  Out.Run.Name = K.Recipe.Canonical;
  JsonWriter J;
  appendRunJson(J, Out.Run, /*IncludeTimings=*/false);
  Out.Run.Name = std::move(Display);
  Out.RunJson = J.take();
  Out.Published = Store && !K.Key.empty() && reusable(Out.Run) &&
                  Store->publish(K.Key, Out.Run, Out.RunJson);
  return Out;
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
constexpr uint32_t FormatVersion = 3;
constexpr size_t HeaderBytes = 8 + 4 + 8; // magic + version + checksum

/// True when the file at \p Path holds exactly \p Bytes. Compares in
/// chunks, so checking for an existing entry allocates no second copy.
bool fileHolds(const std::string &Path, const std::string &Bytes) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  if (!In || In.tellg() != static_cast<std::streamoff>(Bytes.size()))
    return false;
  In.seekg(0);
  char Chunk[1 << 16];
  for (size_t Pos = 0; Pos < Bytes.size(); Pos += sizeof(Chunk)) {
    size_t N = std::min(sizeof(Chunk), Bytes.size() - Pos);
    if (!In.read(Chunk, static_cast<std::streamsize>(N)) ||
        std::memcmp(Chunk, Bytes.data() + Pos, N) != 0)
      return false;
  }
  return true;
}

/// One entry file in one buffer: header, key framing and the encoded
/// run as payload, with the payload length and the body checksum patched
/// in once the payload is written.
std::string entryBytes(const std::string &Key, const AnalysisRun &Run,
                       const std::string &RunJson) {
  BinaryWriter W;
  W.raw(EntryMagic, 8);
  W.u32(FormatVersion);
  W.u64(0); // body checksum
  W.str(Key);
  W.u64(0); // payload length
  size_t PayloadAt = W.size();
  serializeStoredResult(Run, RunJson, W);
  W.patchU64(PayloadAt - 8, W.size() - PayloadAt);
  W.patchU64(HeaderBytes - 8, fnv1a64(W.data().data() + HeaderBytes,
                                      W.size() - HeaderBytes));
  return W.take();
}

/// Validates magic/version/checksum framing in place: the checksummed
/// body is \p Bytes from HeaderBytes on. False on any mismatch.
bool frameValid(const std::string &Bytes) {
  if (Bytes.size() < HeaderBytes ||
      std::memcmp(Bytes.data(), EntryMagic, 8) != 0)
    return false;
  BinaryReader R(Bytes.data() + 8, HeaderBytes - 8);
  uint32_t Version;
  uint64_t Sum;
  return R.u32(Version) && R.u64(Sum) && Version == FormatVersion &&
         fnv1a64(Bytes.data() + HeaderBytes, Bytes.size() - HeaderBytes) ==
             Sum;
}

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Sets \p Path's mtime — the entry's LRU stamp — to \p Ms. Best effort:
/// a failed stamp (say, on a read-only store) only ages the entry early.
void stampMs(const std::string &Path, uint64_t Ms) {
#ifdef CSC_STORE_POSIX
  struct timespec Times[2];
  Times[0].tv_sec = 0;
  Times[0].tv_nsec = UTIME_OMIT; // atime is not ours to keep
  Times[1].tv_sec = static_cast<time_t>(Ms / 1000);
  Times[1].tv_nsec = static_cast<long>(Ms % 1000) * 1000000L;
  (void)::utimensat(AT_FDCWD, Path.c_str(), Times, 0);
#else
  (void)Path;
  (void)Ms;
#endif
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

/// Full paths of the entry files under \p ObjectsDir, sorted by name.
std::vector<std::string> listEntryFiles(const std::string &ObjectsDir) {
  std::vector<std::string> Files;
  DIR *D = ::opendir(ObjectsDir.c_str());
  if (!D)
    return Files;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > 5 && Name.compare(Name.size() - 5, 5, ".csce") == 0)
      Files.push_back(ObjectsDir + "/" + Name);
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
  gcLocked(); // enforce the configured bounds against what we inherited
#else
  Err = "persistent result store requires a POSIX platform";
#endif
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
                           const std::string &ExpectKey, std::string &Bytes,
                           size_t &PayloadAt) const {
  if (readFile(Path, Bytes) != ReadStatus::Ok)
    return 1; // absent/unreadable: a plain miss, nothing to repair
  if (!frameValid(Bytes))
    return 2; // bad magic, version skew, truncation, or flipped bits
  BinaryReader R(Bytes.data() + HeaderBytes, Bytes.size() - HeaderBytes);
  std::string Key;
  uint64_t PayloadLen;
  if (!R.str(Key) || !R.u64(PayloadLen) || PayloadLen != R.remaining())
    return 2;
  if (!ExpectKey.empty() && Key != ExpectKey)
    return 3; // valid entry for another key: hash collision, not damage
  PayloadAt = Bytes.size() - PayloadLen;
  return 0;
}

bool ResultStore::lookup(const std::string &Key, StoredResult &Out) {
  std::lock_guard<std::mutex> G(M);
  if (!usable() || Key.empty()) {
    ++Stats.Misses;
    return false;
  }
  std::string Path = objectPath(Key);
  std::string Bytes;
  size_t PayloadAt = 0;
  int RC = readEntry(Path, Key, Bytes, PayloadAt);
  if (RC == 0) {
    StoredResult Value;
    if (deserializeStoredResult(Bytes.data() + PayloadAt,
                                Bytes.size() - PayloadAt, Value)) {
      ++Stats.Hits;
      // Stamp the access so GC's LRU order reflects use, not just
      // publish time — on disk at once, where every handle sees it.
      stampMs(Path, nowMs());
      Out = std::move(Value);
      return true;
    }
    RC = 2; // checksummed but undecodable: format skew within a version
  }
  if (RC == 2) {
    ++Stats.CorruptEvictions;
    std::remove(Path.c_str());
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
  stampMs(TempPath, nowMs()); // the entry lands already stamped
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
  return publish(Key, Value.Run, Value.RunJson);
}

bool ResultStore::publish(const std::string &Key, const AnalysisRun &Run,
                          const std::string &RunJson) {
  // Encoding needs no lock: Err is fixed at construction.
  std::string Bytes;
  if (usable() && !Key.empty())
    Bytes = entryBytes(Key, Run, RunJson);
  std::lock_guard<std::mutex> G(M);
  if (Bytes.empty()) {
    ++Stats.PublishFailures;
    return false;
  }
  std::string Path = objectPath(Key);

  // An existing valid entry for this key holds identical bytes by
  // construction (the key fingerprints the inputs) — skip the rewrite.
  if (fileHolds(Path, Bytes))
    return true;
  if (!writeFileAtomic(Path, Bytes)) {
    ++Stats.PublishFailures;
    return false;
  }
  ++Stats.Publishes;
  gcLocked(); // keep the byte budget enforced as the store grows
  return true;
}

ResultStore::ScrubReport ResultStore::scrub() {
  std::lock_guard<std::mutex> G(M);
  ScrubReport Report;
#ifdef CSC_STORE_POSIX
  if (!usable())
    return Report;
  for (const std::string &Path : listEntryFiles(Opts.Dir + "/objects")) {
    std::string Bytes;
    size_t PayloadAt = 0;
    StoredResult Value;
    struct stat St;
    if (readEntry(Path, "", Bytes, PayloadAt) == 0 &&
        deserializeStoredResult(Bytes.data() + PayloadAt,
                                Bytes.size() - PayloadAt, Value) &&
        ::stat(Path.c_str(), &St) == 0) {
      ++Report.Valid;
      Report.Bytes += static_cast<uint64_t>(St.st_size);
    } else {
      ++Report.Corrupt;
      ++Stats.CorruptEvictions;
      std::remove(Path.c_str());
    }
  }
#endif
  return Report;
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
    Pinned.insert(objectPath(K));

  // (stamp, path, bytes) from each entry's mtime and size: oldest-first
  // eviction order for the size pass.
  std::vector<std::tuple<uint64_t, std::string, uint64_t>> ByAge;
  uint64_t Total = 0;
  for (std::string &Path : listEntryFiles(Opts.Dir + "/objects")) {
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0)
      continue; // removed by another handle since the listing
    uint64_t Bytes = static_cast<uint64_t>(St.st_size);
    uint64_t StampMs = static_cast<uint64_t>(St.st_mtim.tv_sec) * 1000ULL +
                       static_cast<uint64_t>(St.st_mtim.tv_nsec) / 1000000ULL;
    Total += Bytes;
    ByAge.emplace_back(StampMs, std::move(Path), Bytes);
  }
  std::sort(ByAge.begin(), ByAge.end());

  uint64_t Now = nowMs();
  for (const auto &[StampMs, Path, Bytes] : ByAge) {
    bool TooOld = Opts.MaxAgeMs != 0 && Now > StampMs &&
                  Now - StampMs > Opts.MaxAgeMs;
    bool OverBudget = Opts.MaxBytes != 0 && Total > Opts.MaxBytes;
    if (!TooOld && !OverBudget)
      break; // ByAge is oldest-first: nothing later qualifies either
    if (Pinned.count(Path)) {
      ++Report.Pinned;
      continue;
    }
    std::remove(Path.c_str());
    Total -= Bytes;
    Report.FreedBytes += Bytes;
    ++Report.Evicted;
    ++Stats.GcEvictions;
  }
#endif
  return Report;
}

ResultStore::GcReport ResultStore::gc() {
  std::lock_guard<std::mutex> G(M);
  return gcLocked();
}

ResultStore::Counters ResultStore::counters() const {
  std::lock_guard<std::mutex> G(M);
  return Stats;
}
