//===- ThreadPoolTest.cpp - Work-stealing pool unit tests -----------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

using namespace csc;

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.threadCount(), 4u);
  std::atomic<int> Count{0};
  for (int I = 0; I != 1000; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1000);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1);
  Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 3);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool Pool(2);
  Pool.wait(); // must not hang
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  ThreadPool Pool(3);
  std::atomic<int> Count{0};
  for (int I = 0; I != 10; ++I)
    Pool.submit([&Pool, &Count] {
      Count.fetch_add(1);
      for (int K = 0; K != 5; ++K)
        Pool.submit([&Count] { Count.fetch_add(1); });
    });
  Pool.wait(); // covers the children submitted from inside tasks
  EXPECT_EQ(Count.load(), 10 + 10 * 5);
}

TEST(ThreadPoolTest, LongTaskDoesNotStrandQueuedWork) {
  // One slow task must not block the rest of the batch: with stealing,
  // the other workers drain the queue while the slow task runs.
  ThreadPool Pool(4);
  std::atomic<bool> SlowDone{false};
  std::atomic<int> FastDone{0};
  Pool.submit([&SlowDone] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    SlowDone.store(true);
  });
  for (int I = 0; I != 64; ++I)
    Pool.submit([&FastDone] { FastDone.fetch_add(1); });
  // The fast tasks should all finish well before the slow one.
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(80);
  while (FastDone.load() != 64 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
  EXPECT_EQ(FastDone.load(), 64);
  EXPECT_FALSE(SlowDone.load());
  Pool.wait();
  EXPECT_TRUE(SlowDone.load());
}

TEST(ThreadPoolTest, WorkSpreadsOverMultipleThreads) {
  ThreadPool Pool(4);
  std::mutex M;
  std::set<std::thread::id> Ids;
  for (int I = 0; I != 200; ++I)
    Pool.submit([&M, &Ids] {
      // A short stall so a single worker cannot race through the queue
      // before the others wake.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> G(M);
      Ids.insert(std::this_thread::get_id());
    });
  Pool.wait();
  EXPECT_GE(Ids.size(), 2u) << "all 200 tasks ran on one thread";
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

TEST(ThreadPoolStressTest, RepeatedWaitResubmitCycles) {
  // Many short submit-all / wait barriers against one long-lived pool.
  // A lost wakeup, a stale Queued count, or any reuse bug in the wait
  // protocol turns one of these iterations into a hang or a missed task.
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int Cycle = 0; Cycle != 500; ++Cycle) {
    const int Batch = 1 + (Cycle % 32);
    for (int I = 0; I != Batch; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
    Pool.wait();
    ASSERT_EQ(Count.exchange(0), Batch) << "cycle " << Cycle;
  }
}

TEST(ThreadPoolStressTest, TasksSpawningTasksAcrossWaitCycles) {
  // Nested spawning combined with barrier reuse: each root task fans out
  // children, children fan out grandchildren, and wait() must cover the
  // whole transitively submitted tree, every cycle.
  ThreadPool Pool(3);
  std::atomic<int> Count{0};
  for (int Cycle = 0; Cycle != 100; ++Cycle) {
    for (int I = 0; I != 8; ++I)
      Pool.submit([&Pool, &Count] {
        Count.fetch_add(1);
        for (int C = 0; C != 3; ++C)
          Pool.submit([&Pool, &Count] {
            Count.fetch_add(1);
            Pool.submit([&Count] { Count.fetch_add(1); });
          });
      });
    Pool.wait();
    ASSERT_EQ(Count.exchange(0), 8 + 8 * 3 + 8 * 3) << "cycle " << Cycle;
  }
}

TEST(ThreadPoolStressTest, SingleThreadNestedSpawnChain) {
  // One worker, a deep chain of tasks each spawning the next: exercises
  // self-submission with no second thread to steal, where any accounting
  // slip between Queued and Outstanding deadlocks wait() immediately.
  ThreadPool Pool(1);
  std::atomic<int> Depth{0};
  std::function<void()> Step = [&Pool, &Depth, &Step] {
    if (Depth.fetch_add(1) < 199)
      Pool.submit(Step);
  };
  Pool.submit(Step);
  Pool.wait();
  EXPECT_EQ(Depth.load(), 200);
}

TEST(ThreadPoolStressTest, ConcurrentExternalWaiters) {
  // wait() is documented thread-safe from outside the pool: two external
  // threads block on the same barrier while the main thread submits.
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int I = 0; I != 64; ++I)
    Pool.submit([&Count] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      Count.fetch_add(1);
    });
  std::thread W1([&Pool] { Pool.wait(); });
  std::thread W2([&Pool] { Pool.wait(); });
  Pool.wait();
  W1.join();
  W2.join();
  EXPECT_EQ(Count.load(), 64);
}
