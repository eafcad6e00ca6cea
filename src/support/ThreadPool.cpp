//===- ThreadPool.cpp - Small work-stealing thread pool -------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

using namespace csc;

unsigned ThreadPool::defaultThreadCount() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = defaultThreadCount();
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.push_back(std::make_unique<Worker>());
  Threads.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  wait();
  Stop.store(true);
  {
    std::lock_guard<std::mutex> G(WakeM);
    WakeCV.notify_all();
  }
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  size_t Q = NextQueue.fetch_add(1) % Workers.size();
  Outstanding.fetch_add(1);
  Queued.fetch_add(1);
  {
    std::lock_guard<std::mutex> G(Workers[Q]->M);
    Workers[Q]->Tasks.push_back(std::move(Task));
  }
  // Queued is incremented before the notify and re-checked by the wait
  // predicate under WakeM, so a wakeup can never be lost.
  std::lock_guard<std::mutex> G(WakeM);
  WakeCV.notify_one();
}

std::function<void()> ThreadPool::takeTask(unsigned Me) {
  // Queued is decremented at claim time, under the deque lock the task
  // is popped from. Decrementing later (after takeTask returned) left a
  // window where sleeping workers saw a stale Queued > 0, woke, found
  // every deque empty, and spun back to sleep — a busy-wake storm under
  // repeated submit/wait cycles that the ThreadPoolTest stress cases
  // surfaced.
  //
  // Own deque first, newest task (LIFO keeps the working set warm) ...
  {
    Worker &W = *Workers[Me];
    std::lock_guard<std::mutex> G(W.M);
    if (!W.Tasks.empty()) {
      std::function<void()> T = std::move(W.Tasks.back());
      W.Tasks.pop_back();
      Queued.fetch_sub(1);
      return T;
    }
  }
  // ... then steal the oldest task of some other worker (FIFO keeps the
  // victim's warm end untouched).
  for (size_t Off = 1; Off != Workers.size(); ++Off) {
    Worker &W = *Workers[(Me + Off) % Workers.size()];
    std::lock_guard<std::mutex> G(W.M);
    if (!W.Tasks.empty()) {
      std::function<void()> T = std::move(W.Tasks.front());
      W.Tasks.pop_front();
      Queued.fetch_sub(1);
      return T;
    }
  }
  return nullptr;
}

void ThreadPool::workerLoop(unsigned Me) {
  while (true) {
    std::function<void()> Task = takeTask(Me);
    if (Task) {
      Task();
      if (Outstanding.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> G(WakeM);
        IdleCV.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> L(WakeM);
    WakeCV.wait(L, [this] { return Stop.load() || Queued.load() > 0; });
    if (Stop.load() && Queued.load() == 0)
      return;
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> L(WakeM);
  IdleCV.wait(L, [this] { return Outstanding.load() == 0; });
}
