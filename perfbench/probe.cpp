//===- probe.cpp - Host-speed reference job for the benchmark ------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed job that uses no repository code: hash-map inserts, vector
/// growth, sorting and pointer chasing over a few MB, like a small points-to
/// solve. run.py starts it as its own process next to every timed sample, so
/// both see the same host speed, and reports each sample relative to it (see
/// perfbench/README.md, "Host-relative timings"). Its code and flags never
/// change with the repository, so a change to the program moves the samples
/// and not the reference.
///
///   perfbench_probe        prints the checksum of the fixed job
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

int main() {
  uint64_t X = 0x9E3779B97F4A7C15ULL, Sum = 0;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  // Buckets of "points-to sets": insert, then sort and merge them.
  std::unordered_map<uint32_t, std::vector<uint32_t>> Sets;
  for (int I = 0; I < 120000; ++I) {
    uint64_t V = Next();
    Sets[static_cast<uint32_t>(V % 40000)].push_back(static_cast<uint32_t>(V));
  }
  std::vector<uint32_t> All;
  for (auto &KV : Sets) {
    std::sort(KV.second.begin(), KV.second.end());
    All.insert(All.end(), KV.second.begin(), KV.second.end());
  }
  std::sort(All.begin(), All.end());
  Sum += All[All.size() / 2];
  // A random cycle over 1M slots, chased end to end.
  std::vector<uint32_t> Succ(1u << 20);
  for (uint32_t I = 0; I < Succ.size(); ++I)
    Succ[I] = I;
  for (uint32_t I = static_cast<uint32_t>(Succ.size()) - 1; I > 0; --I)
    std::swap(Succ[I], Succ[Next() % I]);
  uint32_t At = 0;
  for (uint32_t I = 0; I < Succ.size(); ++I)
    At = Succ[At];
  Sum += At;
  std::printf("%llu\n", static_cast<unsigned long long>(Sum));
  return 0;
}
