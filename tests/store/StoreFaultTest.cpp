//===- StoreFaultTest.cpp - Fault injection against the result store ------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
//
// The store's failure discipline, exercised adversarially: truncate
// entries mid-record, flip random bytes, leave an older store's index
// files behind, bump the format version, delete files behind a live
// handle, point the store at an unusable path. Every injected fault
// must degrade to a counted miss that recomputes — the warm aggregate
// stays byte-identical to a storeless run — and none may crash, hang,
// or serve a wrong answer. The suite runs under ASan+UBSan in CI's
// sanitize job, so "never crashes" is checked with teeth.
//
//===----------------------------------------------------------------------===//

#include "client/BatchExecutor.h"
#include "server/AnalysisServer.h"
#include "store/ResultStore.h"
#include "store/TaskLedger.h"
#include "support/Rng.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace csc;

namespace {

std::vector<std::string> listFiles(const std::string &Dir) {
  std::vector<std::string> Files;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Files;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name != "." && Name != "..")
      Files.push_back(Dir + "/" + Name);
  }
  ::closedir(D);
  std::sort(Files.begin(), Files.end());
  return Files;
}

void rmTree(const std::string &Dir) {
  for (const std::string &F : listFiles(Dir)) {
    struct stat St;
    if (::stat(F.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
      rmTree(F);
    else
      std::remove(F.c_str());
  }
  ::rmdir(Dir.c_str());
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

class StoreFaultTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Template[] = "store-fault-XXXXXX";
    ASSERT_NE(::mkdtemp(Template), nullptr);
    Root = Template;
    Dir = Root + "/store";

    // Two seeded workloads x three specs = six deterministic runs; the
    // storeless aggregate is the oracle every faulted pass must match.
    for (uint64_t Seed : {7ULL, 19ULL}) {
      WorkloadConfig C;
      C.Name = "fault-" + std::to_string(Seed);
      C.Seed = Seed;
      BatchEntry E;
      E.Label = C.Name;
      E.SourceName = C.Name;
      E.SourceText = generateWorkload(C);
      E.Specs = {"ci", "csc", "2obj"};
      Entries.push_back(std::move(E));
    }
    BatchExecutor Ref;
    Reference = Ref.run(Entries).aggregateJson();
    ASSERT_FALSE(Reference.empty());
  }

  void TearDown() override { rmTree(Root); }

  std::shared_ptr<ResultStore> open() {
    ResultStore::Options O;
    O.Dir = Dir;
    auto Store = std::make_shared<ResultStore>(O);
    EXPECT_TRUE(Store->usable()) << Store->error();
    return Store;
  }

  /// A handle on the fixture's fake clock, optionally with GC bounds.
  std::shared_ptr<ResultStore> openGc(uint64_t MaxBytes,
                                      uint64_t MaxAgeMs) {
    ResultStore::Options O;
    O.Dir = Dir;
    O.MaxBytes = MaxBytes;
    O.MaxAgeMs = MaxAgeMs;
    O.NowMs = [this] { return Clock; };
    auto Store = std::make_shared<ResultStore>(O);
    EXPECT_TRUE(Store->usable()) << Store->error();
    return Store;
  }

  /// Store keys of all six runs, in task order.
  static std::vector<std::string> storeKeys(const BatchReport &R) {
    std::vector<std::string> Keys;
    for (const BatchEntryResult &E : R.Entries)
      for (const BatchRunResult &Run : E.Runs)
        Keys.push_back(Run.StoreKey);
    return Keys;
  }

  uint64_t objectBytes() {
    uint64_t Total = 0;
    for (const std::string &F : listFiles(Dir + "/objects")) {
      struct stat St;
      if (::stat(F.c_str(), &St) == 0)
        Total += static_cast<uint64_t>(St.st_size);
    }
    return Total;
  }

  /// One fresh executor pass against \p Store; the aggregate must be
  /// byte-identical to the storeless oracle no matter what the store has
  /// been through.
  BatchReport runWith(std::shared_ptr<ResultStore> Store) {
    BatchExecutor::Options BO;
    BO.Store = std::move(Store);
    BatchExecutor Exec(BO);
    BatchReport Report = Exec.run(Entries);
    EXPECT_EQ(Report.aggregateJson(), Reference);
    return Report;
  }

  /// Seeds the store with all six results and returns the entry files.
  std::vector<std::string> warmObjects() {
    runWith(open());
    std::vector<std::string> Objects = listFiles(Dir + "/objects");
    EXPECT_EQ(Objects.size(), 6u);
    return Objects;
  }

  std::string Root, Dir;
  std::vector<BatchEntry> Entries;
  std::string Reference;
  uint64_t Clock = 1000000; ///< Fake clock for GC schedules, ms.
};

} // namespace

TEST_F(StoreFaultTest, ColdThenWarmIsByteIdenticalAndFullyServed) {
  BatchReport Cold = runWith(open());
  EXPECT_EQ(Cold.StoreHits, 0u);
  EXPECT_EQ(Cold.StoreMisses, 6u);

  BatchReport Warm = runWith(open());
  EXPECT_EQ(Warm.StoreHits, 6u);
  EXPECT_EQ(Warm.StoreMisses, 0u);
  uint64_t Served = 0;
  for (const BatchEntryResult &E : Warm.Entries)
    for (const BatchRunResult &R : E.Runs)
      Served += R.FromStore ? 1 : 0;
  EXPECT_EQ(Served, 6u);
}

TEST_F(StoreFaultTest, BatchAndServerShareEntries) {
  // One key and one entry format for every client: a batch-warmed store
  // serves the server's full-run path, and a server-published entry
  // serves the batch, byte-identically.
  // A store hit is not a full solve of the server's own.
  const BatchEntry &E = Entries.front();
  auto Query = [&](std::shared_ptr<ResultStore> Store, int FullSolves) {
    AnalysisServer::Options SO;
    SO.Store = std::move(Store);
    AnalysisServer Server(SO);
    std::vector<std::string> Diags;
    ASSERT_TRUE(Server.load({{E.SourceName, E.SourceText}}, Diags));
    std::string Response = Server.handleLine(
        R"({"op":"query","kind":"callees","method":"Main.main","spec":"csc"})");
    EXPECT_EQ(Response.rfind("{\"ok\":true", 0), 0u) << Response;
    std::string Stats = Server.handleLine(R"({"op":"stats"})");
    EXPECT_NE(Stats.find("\"full_solves\":" + std::to_string(FullSolves)),
              std::string::npos)
        << Stats;
  };

  runWith(open());
  {
    std::shared_ptr<ResultStore> Warm = open();
    Query(Warm, 0);
    EXPECT_EQ(Warm->counters().Hits, 1u);
    EXPECT_EQ(Warm->counters().Publishes, 0u);
  }

  rmTree(Dir);
  std::shared_ptr<ResultStore> Fresh = open();
  Query(Fresh, 1);
  EXPECT_EQ(Fresh->counters().Publishes, 1u);
  BatchReport Report = runWith(open());
  ASSERT_EQ(Report.Entries.front().Runs.size(), 3u);
  EXPECT_TRUE(Report.Entries.front().Runs[1].FromStore); // csc
  EXPECT_EQ(Report.StoreHits, 1u);
}

TEST_F(StoreFaultTest, TruncationMidRecordDegradesToCountedMisses) {
  for (const std::string &Obj : warmObjects()) {
    std::string Bytes = readFile(Obj);
    ASSERT_GT(Bytes.size(), 1u);
    writeFile(Obj, Bytes.substr(0, Bytes.size() / 2));
  }
  std::shared_ptr<ResultStore> Store = open();
  BatchReport Report = runWith(Store);
  EXPECT_EQ(Report.StoreHits, 0u);
  ResultStore::Counters C = Store->counters();
  EXPECT_GE(C.CorruptEvictions, 6u);
  // Self-repair: the recomputation republished, so the next pass hits.
  EXPECT_EQ(runWith(open()).StoreHits, 6u);
}

TEST_F(StoreFaultTest, RandomBitFlipsNeverServeWrongBytes) {
  Rng R(0x5eedULL);
  for (int Round = 0; Round != 4; ++Round) {
    std::vector<std::string> Objects = warmObjects();
    for (const std::string &Obj : Objects) {
      std::string Bytes = readFile(Obj);
      ASSERT_FALSE(Bytes.empty());
      size_t Pos = R.nextInRange(static_cast<uint32_t>(Bytes.size()));
      Bytes[Pos] = static_cast<char>(
          Bytes[Pos] ^ static_cast<char>(1u << R.nextInRange(8)));
      writeFile(Obj, Bytes);
    }
    std::shared_ptr<ResultStore> Store = open();
    BatchReport Report = runWith(Store);
    // Every flipped entry must be detected: zero hits, all corrupt.
    EXPECT_EQ(Report.StoreHits, 0u) << "round " << Round;
    EXPECT_GE(Store->counters().CorruptEvictions, 6u)
        << "round " << Round;
  }
}

TEST_F(StoreFaultTest, LeftoverIndexFilesAreIgnored) {
  // Older stores also kept an index manifest and its lock file beside
  // objects/. The entry files are the only state now: whatever those
  // leftovers hold, every entry is served and scrubs clean.
  warmObjects();
  writeFile(Dir + "/index.bin", "this is not an index");
  writeFile(Dir + "/store.lock", "");
  std::shared_ptr<ResultStore> Store = open();
  EXPECT_EQ(runWith(Store).StoreHits, 6u);
  ResultStore::ScrubReport S = Store->scrub();
  EXPECT_EQ(S.Valid, 6u);
  EXPECT_EQ(S.Corrupt, 0u);
}

TEST_F(StoreFaultTest, FormatVersionBumpIsCorruptionNotACrash) {
  for (const std::string &Obj : warmObjects()) {
    std::string Bytes = readFile(Obj);
    ASSERT_GT(Bytes.size(), 8u);
    ++Bytes[8]; // little-endian LSB of the u32 format version
    writeFile(Obj, Bytes);
  }
  std::shared_ptr<ResultStore> Store = open();
  BatchReport Report = runWith(Store);
  EXPECT_EQ(Report.StoreHits, 0u);
  EXPECT_GE(Store->counters().CorruptEvictions, 6u);
}

TEST_F(StoreFaultTest, DeletionBehindALiveHandleIsAPlainMiss) {
  warmObjects();
  std::shared_ptr<ResultStore> Store = open(); // handle open, files gone:
  for (const std::string &Obj : listFiles(Dir + "/objects"))
    std::remove(Obj.c_str());
  BatchReport Report = runWith(Store);
  EXPECT_EQ(Report.StoreHits, 0u);
  EXPECT_EQ(Report.StoreMisses, 6u);
  // Nothing was corrupt — the files were absent, not damaged.
  EXPECT_EQ(Store->counters().CorruptEvictions, 0u);
}

TEST_F(StoreFaultTest, ScrubReportsAndEvictsExactlyTheDamage) {
  std::vector<std::string> Objects = warmObjects();
  ASSERT_EQ(Objects.size(), 6u);
  for (size_t I = 0; I != 2; ++I) { // damage two of six
    std::string Bytes = readFile(Objects[I]);
    Bytes[Bytes.size() / 2] ^= 0x40;
    writeFile(Objects[I], Bytes);
  }
  std::shared_ptr<ResultStore> Store = open();
  ResultStore::ScrubReport R = Store->scrub();
  EXPECT_EQ(R.Valid, 4u);
  EXPECT_EQ(R.Corrupt, 2u);
  EXPECT_GT(R.Bytes, 0u);
  EXPECT_EQ(listFiles(Dir + "/objects").size(), 4u); // evicted on disk
  runWith(Store); // recomputes the two, still byte-identical
  EXPECT_EQ(Store->scrub().Valid, 6u);
}

TEST_F(StoreFaultTest, UnusableDirectoryDegradesToNoOpStore) {
  std::string File = Root + "/plain-file";
  writeFile(File, "not a directory");
  ResultStore::Options O;
  O.Dir = File + "/store"; // parent is a file: mkdir must fail
  auto Store = std::make_shared<ResultStore>(O);
  EXPECT_FALSE(Store->usable());
  EXPECT_FALSE(Store->error().empty());

  StoredResult Unused;
  EXPECT_FALSE(Store->lookup("some-key", Unused));
  EXPECT_FALSE(Store->publish("some-key", Unused));
  ResultStore::Counters C = Store->counters();
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.PublishFailures, 1u);

  // An executor handed the degraded store still produces the oracle.
  BatchExecutor::Options BO;
  BO.Store = Store;
  BatchExecutor Exec(BO);
  EXPECT_EQ(Exec.run(Entries).aggregateJson(), Reference);
}

TEST_F(StoreFaultTest, ScrubOfAFreshOrDegradedStoreIsAZeroNoOp) {
  // Fresh directory, nothing published yet: scrub and gc both report
  // zeros and leave the (empty) store behind.
  std::shared_ptr<ResultStore> Store = open();
  ResultStore::ScrubReport S = Store->scrub();
  EXPECT_EQ(S.Valid, 0u);
  EXPECT_EQ(S.Corrupt, 0u);
  EXPECT_EQ(S.Bytes, 0u);
  ResultStore::GcReport G = Store->gc();
  EXPECT_EQ(G.Evicted, 0u);
  EXPECT_EQ(G.Pinned, 0u);
  EXPECT_TRUE(Store->usable());

  // A store whose directory never came into existence (degraded
  // handle): the same calls are no-ops, not crashes.
  ResultStore::Options O;
  O.Dir = Root + "/missing-parent/store";
  writeFile(Root + "/missing-parent", "a file where a dir must go");
  ResultStore Degraded(O);
  ASSERT_FALSE(Degraded.usable());
  S = Degraded.scrub();
  EXPECT_EQ(S.Valid, 0u);
  EXPECT_EQ(S.Corrupt, 0u);
  G = Degraded.gc();
  EXPECT_EQ(G.Evicted, 0u);
}

TEST_F(StoreFaultTest, PublishUnderWriteFailureIsACountedNoOp) {
  // Fault-injected ENOSPC: every file write fails. Publishes must
  // degrade to counted failures and the batch must still be the oracle.
  ResultStore::Options O;
  O.Dir = Dir;
  O.TestFailWrites = true;
  auto Enospc = std::make_shared<ResultStore>(O);
  ASSERT_TRUE(Enospc->usable()) << Enospc->error();
  BatchReport Report = runWith(Enospc);
  EXPECT_EQ(Report.StoreHits, 0u);
  ResultStore::Counters C = Enospc->counters();
  EXPECT_EQ(C.Publishes, 0u);
  EXPECT_EQ(C.PublishFailures, 6u);
  EXPECT_EQ(listFiles(Dir + "/objects").size(), 0u); // nothing landed

  // Reads are unaffected: warm the store healthily, then a
  // write-failing handle still serves every hit.
  warmObjects();
  auto Reader = std::make_shared<ResultStore>(O);
  EXPECT_EQ(runWith(Reader).StoreHits, 6u);
  EXPECT_EQ(Reader->counters().PublishFailures, 0u);
}

TEST_F(StoreFaultTest, GcByteBudgetEvictsLeastRecentlyUsedFirst) {
  // Warm at T0 on the fake clock, then touch two entries at T1: they
  // become the hot set a byte-budgeted reopen must keep.
  std::vector<std::string> Keys = storeKeys(runWith(openGc(0, 0)));
  ASSERT_EQ(Keys.size(), 6u);
  uint64_t Total = objectBytes();
  ASSERT_GT(Total, 0u);

  Clock += 60000;
  {
    std::shared_ptr<ResultStore> Toucher = openGc(0, 0);
    StoredResult R;
    EXPECT_TRUE(Toucher->lookup(Keys[1], R));
    EXPECT_TRUE(Toucher->lookup(Keys[4], R));
  } // each hit stamped its entry's mtime

  Clock += 1000;
  // Room for ~3.5 average entries: the two hot ones plus headroom.
  uint64_t Budget = Total * 7 / 12;
  std::shared_ptr<ResultStore> Store = openGc(Budget, 0);
  EXPECT_GE(Store->counters().GcEvictions, 1u);
  EXPECT_LE(objectBytes(), Budget);

  // The two recently-touched entries were the newest and must survive.
  StoredResult R;
  EXPECT_TRUE(Store->lookup(Keys[1], R));
  EXPECT_TRUE(Store->lookup(Keys[4], R));

  // The evicted entries recompute; the aggregate never changes.
  BatchReport Report = runWith(Store);
  EXPECT_GE(Report.StoreHits, 2u);
  EXPECT_LE(objectBytes(), Budget); // per-publish GC re-enforces
}

TEST_F(StoreFaultTest, AccessStampIsVisibleToOtherLiveHandles) {
  // A hit stamps the entry on disk at once, not when its handle closes:
  // a GC through another live handle must already rank those entries as
  // the most recently used.
  std::vector<std::string> Keys = storeKeys(runWith(openGc(0, 0)));
  ASSERT_EQ(Keys.size(), 6u);
  uint64_t Total = objectBytes();
  ASSERT_GT(Total, 0u);

  Clock += 60000;
  std::shared_ptr<ResultStore> A = openGc(0, 0);
  StoredResult R;
  EXPECT_TRUE(A->lookup(Keys[1], R));
  EXPECT_TRUE(A->lookup(Keys[4], R));

  Clock += 1000;
  uint64_t Budget = Total / 2;
  std::shared_ptr<ResultStore> B = openGc(Budget, 0);
  EXPECT_GE(B->counters().GcEvictions, 1u);
  EXPECT_LE(objectBytes(), Budget);
  EXPECT_TRUE(B->lookup(Keys[1], R));
  EXPECT_TRUE(B->lookup(Keys[4], R));
  EXPECT_TRUE(A->lookup(Keys[1], R)); // A, still open, shares the state
}

TEST_F(StoreFaultTest, GcAgeBoundEvictsEntriesNotAccessedInTime) {
  runWith(openGc(0, 0)); // warm, all stamps at the fake clock's T0
  ASSERT_EQ(listFiles(Dir + "/objects").size(), 6u);

  Clock += 10000; // everything is now 10s stale
  std::shared_ptr<ResultStore> Store = openGc(0, /*MaxAgeMs=*/5000);
  EXPECT_EQ(Store->counters().GcEvictions, 6u);
  EXPECT_EQ(listFiles(Dir + "/objects").size(), 0u);

  // Recompute-and-republish restores the store; fresh stamps survive
  // the same age bound.
  BatchReport Report = runWith(Store);
  EXPECT_EQ(Report.StoreMisses, 6u);
  EXPECT_EQ(listFiles(Dir + "/objects").size(), 6u);
  EXPECT_EQ(runWith(openGc(0, 5000)).StoreHits, 6u);
}

TEST_F(StoreFaultTest, GcAgeBoundAtTheTopOfItsRangeEvictsNothing) {
  // Regression: the age test used to add the bound to the entry's stamp,
  // which wrapped for bounds near 2^64 and evicted every entry.
  runWith(openGc(0, 0)); // warm at the fake clock's T0
  Clock += 10000;
  std::shared_ptr<ResultStore> Store = openGc(0, /*MaxAgeMs=*/~0ULL);
  EXPECT_EQ(Store->counters().GcEvictions, 0u);
  EXPECT_EQ(listFiles(Dir + "/objects").size(), 6u);
  EXPECT_EQ(runWith(Store).StoreHits, 6u);
}

TEST_F(StoreFaultTest, AccessFlushDoesNotResurrectGcEvictedEntries) {
  // Regression: a handle's destructor used to flush its in-memory
  // access stamps into a shared index, resurrecting entries another
  // handle had already GC-evicted as phantom records whose bytes
  // inflated the next GC pass into over-eviction. Stamps now live in the
  // entry files, which an eviction removes together with the entry.
  runWith(openGc(0, 0)); // warm at the fake clock's T0
  {
    std::shared_ptr<ResultStore> Reader = openGc(0, 0);
    EXPECT_EQ(runWith(Reader).StoreHits, 6u); // stamps all six in memory

    // While Reader still holds those records, another handle evicts
    // everything under an age bound.
    Clock += 10000;
    std::shared_ptr<ResultStore> Collector = openGc(0, /*MaxAgeMs=*/5000);
    EXPECT_EQ(Collector->counters().GcEvictions, 6u);
    EXPECT_EQ(listFiles(Dir + "/objects").size(), 0u);
    // Scope exit: Collector closes first, then Reader.
  }

  // A fresh handle under a 1-byte budget sees the store as left:
  // resurrection would hand it six phantom entries to "evict" again.
  std::shared_ptr<ResultStore> Fresh = openGc(/*MaxBytes=*/1, 0);
  EXPECT_EQ(Fresh->counters().GcEvictions, 0u);
  EXPECT_EQ(runWith(Fresh).StoreMisses, 6u); // recomputes; still oracle
}

TEST_F(StoreFaultTest, GcNeverEvictsKeysPinnedByALiveTaskLedger) {
  std::vector<std::string> Keys = storeKeys(runWith(openGc(0, 0)));
  ASSERT_EQ(Keys.size(), 6u);

  // A live ledger says a coordinator has yet to consume all six
  // results: even an absurd 1-byte budget must not evict them.
  {
    TaskLedger::Options LO;
    LO.Path = Dir + "/ledger.bin";
    TaskLedger Ledger(LO);
    TaskLedger::Config LC;
    LC.TaskCount = 6;
    ASSERT_TRUE(Ledger.create(LC));
    for (uint32_t T = 0; T != 6; ++T) {
      TaskLedger::Lease L;
      uint64_t RetryMs = 0;
      ASSERT_EQ(Ledger.acquire(1, L, RetryMs),
                TaskLedger::AcquireStatus::Acquired);
      ASSERT_TRUE(Ledger.complete(L, 1, Keys[T]));
    }
  }
  Clock += 1000;
  std::shared_ptr<ResultStore> Store = openGc(/*MaxBytes=*/1, 0);
  ResultStore::GcReport G = Store->gc();
  EXPECT_EQ(G.Evicted, 0u);
  EXPECT_EQ(G.Pinned, 6u);
  EXPECT_EQ(listFiles(Dir + "/objects").size(), 6u);

  // The coordinator consumed everything and removed the ledger: the
  // pins are gone and the budget finally applies.
  std::remove((Dir + "/ledger.bin").c_str());
  std::remove((Dir + "/ledger.bin.lock").c_str());
  G = Store->gc();
  EXPECT_EQ(G.Evicted, 6u);
  EXPECT_GT(G.FreedBytes, 0u);
  EXPECT_EQ(listFiles(Dir + "/objects").size(), 0u);
  runWith(Store); // recomputes; still the oracle
}
