//===- ParallelForTest.cpp - parallelFor unit tests -----------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/ParallelFor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#ifdef __linux__
#include <dirent.h>
#endif

using namespace csc;

namespace {

/// Threads alive in this process; 0 where that cannot be read.
size_t liveThreads() {
  size_t N = 0;
#ifdef __linux__
  if (DIR *D = opendir("/proc/self/task")) {
    while (dirent *E = readdir(D))
      if (E->d_name[0] != '.')
        ++N;
    closedir(D);
  }
#endif
  return N;
}

/// Spins until \p Flag reaches \p Want or two seconds pass (the bound
/// only matters when the code under test is broken).
void awaitAtLeast(const std::atomic<int> &Flag, int Want) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (Flag.load() < Want && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
}

} // namespace

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> Calls(1000);
  parallelFor(Calls.size(), 4, [&Calls](size_t I) { Calls[I].fetch_add(1); });
  for (size_t I = 0; I != Calls.size(); ++I)
    EXPECT_EQ(Calls[I].load(), 1) << "index " << I;
}

TEST(ParallelForTest, OneJobRunsInlineInOrder) {
  for (unsigned Jobs : {0u, 1u}) {
    std::vector<size_t> Order;
    std::set<std::thread::id> Ids;
    parallelFor(5, Jobs, [&](size_t I) {
      Order.push_back(I);
      Ids.insert(std::this_thread::get_id());
      // Long enough for any other thread to take an index.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3, 4})) << "jobs " << Jobs;
    ASSERT_EQ(Ids.size(), 1u);
    EXPECT_EQ(*Ids.begin(), std::this_thread::get_id());
  }
}

TEST(ParallelForTest, ZeroIndicesReturnAtOnce) {
  int Calls = 0;
  parallelFor(0, 4, [&Calls](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
}

TEST(ParallelForTest, NeverStartsMoreThreadsThanIndices) {
  // 16 jobs over three runs: three threads, the caller's among them.
  // Every call holds until all three run, so each sees the whole team.
  size_t Before = liveThreads();
  std::atomic<int> Started{0};
  std::mutex M;
  std::set<std::thread::id> Ids;
  size_t Peak = 0;
  parallelFor(3, 16, [&](size_t) {
    Started.fetch_add(1);
    awaitAtLeast(Started, 3);
    size_t Live = liveThreads();
    std::lock_guard<std::mutex> G(M);
    Ids.insert(std::this_thread::get_id());
    Peak = std::max(Peak, Live);
  });
  EXPECT_EQ(Ids.size(), 3u);
  if (Before != 0) {
    EXPECT_LE(Peak, Before + 2) << "threads beyond one per index started";
  }
}

TEST(ParallelForTest, LongIndexDoesNotStrandTheRest) {
  // Indices are taken one at a time, so while index 0 runs long the
  // other threads drain every other index.
  std::atomic<int> Done{0};
  bool SawRestDone = false;
  parallelFor(64, 4, [&](size_t I) {
    if (I != 0) {
      Done.fetch_add(1);
      return;
    }
    awaitAtLeast(Done, 63);
    SawRestDone = Done.load() == 63;
  });
  EXPECT_TRUE(SawRestDone);
  EXPECT_EQ(Done.load(), 63);
}
