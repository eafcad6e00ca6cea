//===- StoreConcurrencyTest.cpp - Racing handles over one store -----------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
//
// Two ResultStore handles sharing one directory, hammered by racing
// publisher/reader threads. The store's contract under contention: a
// lookup either misses or returns exactly the bytes published for that
// key (atomic rename means no torn reads), racing publishers of one key
// are harmless, and after the dust settles a scrub finds every entry
// valid. This suite is in CI's TSan job, so the handle's internal
// locking is checked with teeth; scripts/store_concurrency.sh covers the
// cross-process half of the same contract.
//
//===----------------------------------------------------------------------===//

#include "client/Report.h"
#include "store/ResultStore.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace csc;

namespace {

void rmTree(const std::string &Dir) {
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (struct dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name == "." || Name == "..")
        continue;
      std::string Path = Dir + "/" + Name;
      struct stat St;
      if (::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
        rmTree(Path);
      else
        std::remove(Path.c_str());
    }
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
}

class StoreConcurrencyTest : public ::testing::Test {
protected:
  static constexpr size_t NumKeys = 32;

  void SetUp() override {
    char Template[] = "store-conc-XXXXXX";
    ASSERT_NE(::mkdtemp(Template), nullptr);
    Root = Template;
    Dir = Root + "/store";

    // One real completed run seeds the value shape; per-key variants
    // differ in metrics and report bytes so a cross-key mixup would be
    // caught by the byte comparison below, not just by luck.
    WorkloadConfig C;
    C.Name = "conc";
    C.Seed = 5;
    std::vector<std::string> Diags;
    auto P = buildWorkloadProgram(C, Diags);
    ASSERT_NE(P, nullptr);
    AnalysisSession S(*P);
    AnalysisRun Run = S.run("ci");
    ASSERT_EQ(Run.Status, RunStatus::Completed) << Run.Error;
    JsonWriter J;
    appendRunJson(J, Run, /*IncludeTimings=*/false);
    Base = storedFromRun(Run, J.take());

    for (size_t I = 0; I != NumKeys; ++I) {
      Keys.push_back("conc-key-" + std::to_string(I));
      StoredResult V = Base;
      V.Run.Metrics.FailCasts = static_cast<uint32_t>(I);
      V.Run.Csc.CutStores = I * 7 + 1;
      V.RunJson = Base.RunJson + "#variant-" + std::to_string(I);
      Expected.push_back(serializeStoredResult(V));
      Values.push_back(std::move(V));
    }
  }

  void TearDown() override { rmTree(Root); }

  std::shared_ptr<ResultStore> open() {
    ResultStore::Options O;
    O.Dir = Dir;
    auto Store = std::make_shared<ResultStore>(O);
    EXPECT_TRUE(Store->usable()) << Store->error();
    return Store;
  }

  std::string Root, Dir;
  StoredResult Base;
  std::vector<std::string> Keys;
  std::vector<StoredResult> Values;
  std::vector<std::string> Expected; ///< serializeStoredResult per key.
};

constexpr size_t StoreConcurrencyTest::NumKeys;

} // namespace

TEST_F(StoreConcurrencyTest, TwoHandlesRacePublishAndLookup) {
  std::shared_ptr<ResultStore> A = open();
  std::shared_ptr<ResultStore> B = open();

  std::atomic<uint64_t> ServedOk{0};
  std::atomic<bool> WrongBytes{false};
  auto Worker = [&](ResultStore &Store, size_t Stride) {
    // Each thread walks the key space at its own coprime stride, so
    // publishes and lookups of every key interleave across threads.
    for (int Round = 0; Round != 3; ++Round) {
      for (size_t Step = 0; Step != NumKeys; ++Step) {
        size_t I = (Step * Stride + static_cast<size_t>(Round)) % NumKeys;
        Store.publish(Keys[I], Values[I]);
        StoredResult Out;
        if (Store.lookup(Keys[I], Out)) {
          if (serializeStoredResult(Out) != Expected[I])
            WrongBytes = true;
          else
            ++ServedOk;
        }
      }
    }
  };

  std::vector<std::thread> Threads;
  size_t Strides[] = {1, 3, 5, 7}; // coprime with NumKeys = 32
  for (size_t T = 0; T != 4; ++T)
    Threads.emplace_back(Worker, std::ref(T % 2 ? *B : *A), Strides[T]);
  for (std::thread &T : Threads)
    T.join();

  EXPECT_FALSE(WrongBytes.load())
      << "a racing lookup returned bytes for the wrong key";
  EXPECT_GT(ServedOk.load(), 0u);

  // Post-race: a fresh handle serves every key exactly, and a full scrub
  // finds nothing to evict.
  std::shared_ptr<ResultStore> Fresh = open();
  for (size_t I = 0; I != NumKeys; ++I) {
    StoredResult Out;
    ASSERT_TRUE(Fresh->lookup(Keys[I], Out)) << Keys[I];
    EXPECT_EQ(serializeStoredResult(Out), Expected[I]) << Keys[I];
  }
  ResultStore::ScrubReport R = Fresh->scrub();
  EXPECT_EQ(R.Valid, NumKeys);
  EXPECT_EQ(R.Corrupt, 0u);
}

TEST_F(StoreConcurrencyTest, RacingPublishersOfOneKeyAreHarmless) {
  std::shared_ptr<ResultStore> A = open();
  std::shared_ptr<ResultStore> B = open();

  // Identical bytes from every publisher — the store's documented
  // last-rename-wins assumption — hammered on a single key.
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      ResultStore &Store = T % 2 ? *B : *A;
      for (int Round = 0; Round != 50; ++Round) {
        Store.publish(Keys[0], Values[0]);
        StoredResult Out;
        if (Store.lookup(Keys[0], Out)) {
          EXPECT_EQ(serializeStoredResult(Out), Expected[0]);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(A->counters().CorruptEvictions + B->counters().CorruptEvictions,
            0u);
  std::shared_ptr<ResultStore> Fresh = open();
  StoredResult Out;
  ASSERT_TRUE(Fresh->lookup(Keys[0], Out));
  EXPECT_EQ(serializeStoredResult(Out), Expected[0]);
}
