//===- ParallelFor.h - Run independent jobs side by side --------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tool's one form of concurrency: a flat list of independent runs
/// (each one single-threaded solve), started together and joined once.
/// Callers write results into pre-assigned slots, so completion order
/// never shows in their output.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_SUPPORT_PARALLELFOR_H
#define CSC_SUPPORT_PARALLELFOR_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <system_error>
#include <thread>
#include <vector>

namespace csc {

/// Runs \p Fn(0) ... \p Fn(N-1) on min(Jobs, N) threads, the caller's
/// among them, each taking the next index from one atomic counter; with
/// Jobs <= 1 they run inline on the caller's thread, in order. Returns
/// once every call has returned. \p Fn must be safe to call concurrently
/// for distinct indices and must not throw. A thread the system refuses
/// to start just leaves its share to the others.
template <typename FnT> void parallelFor(size_t N, unsigned Jobs, FnT &&Fn) {
  size_t Threads = std::min<size_t>(Jobs, N);
  std::atomic<size_t> Next{0};
  auto Drain = [&] {
    for (size_t I = Next.fetch_add(1); I < N; I = Next.fetch_add(1))
      Fn(I);
  };
  std::vector<std::thread> Helpers;
  if (Threads > 1)
    Helpers.reserve(Threads - 1); // no reallocation once threads run
  for (size_t T = 1; T < Threads; ++T) {
    try {
      Helpers.emplace_back(Drain);
    } catch (const std::system_error &) {
      break;
    }
  }
  Drain();
  for (std::thread &T : Helpers)
    T.join();
}

} // namespace csc

#endif // CSC_SUPPORT_PARALLELFOR_H
