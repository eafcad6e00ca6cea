//===- batch_throughput.cpp - Batch engine throughput bench ---------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Measures the batch executor's specs/second over the scaling-tier
// workloads in three passes sharing pre-built sessions:
//
//   jobs1   — sequential baseline (cold result cache),
//   jobsN   — the batch at --jobs N (cold result cache), verified
//             to produce a byte-identical aggregate report,
//   cached  — the jobsN executor run again over the identical batch; every
//             run must come from the result cache.
//
// With --json the BenchJson document records one row per pass (wall_ms,
// specs_per_sec) plus the speedup and cache-hit counts. Exit status 3 if
// the aggregate reports diverge or the cached pass misses the cache —
// the functional gates the perf-smoke CI job enforces (the speedup itself
// is reported, not gated: CI runner core counts vary).
//
// --emit <dir> instead writes the tier programs as <dir>/scale-*.jir plus
// a <dir>/batch.json manifest, so the same workload can be driven through
// the end-user CLI: cscpta --batch <dir>/batch.json --jobs 4.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "client/BatchExecutor.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace csc;
using namespace csc::bench;

namespace {

void usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [--json <path>] [--jobs <n>] [--tiers <n>] [--specs "
      "<list>] [--emit <dir>]\n",
      Prog);
  std::exit(2);
}

double specsPerSec(size_t Runs, double WallMs) {
  return WallMs > 0 ? static_cast<double>(Runs) / (WallMs / 1000.0) : 0.0;
}

/// Writes the tier programs as .jir files plus a cscpta --batch manifest
/// into \p Dir (which must exist). Returns the process exit code.
int emitTiers(const std::string &Dir, size_t MaxTiers,
              const std::vector<std::string> &Specs) {
  JsonWriter M;
  M.beginObject().key("entries").beginArray();
  size_t Tier = 0;
  for (const WorkloadConfig &C : scalingSuite()) {
    if (Tier >= MaxTiers)
      break;
    ++Tier;
    std::string File = C.Name + ".jir";
    std::ofstream Out(Dir + "/" + File);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s/%s'\n", Dir.c_str(),
                   File.c_str());
      return 1;
    }
    Out << generateWorkload(C);
    M.beginObject().kv("label", C.Name).kv("program", File);
    M.key("specs").beginArray();
    for (const std::string &S : Specs)
      M.value(S);
    M.endArray().endObject();
  }
  M.endArray().endObject();
  std::string Path = Dir + "/batch.json";
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return 1;
  }
  Out << M.str() << "\n";
  std::printf("wrote %zu tier programs and %s\n", Tier, Path.c_str());
  std::printf("drive them with: build/tools/cscpta --batch %s --jobs 4\n",
              Path.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  std::string EmitDir;
  std::string SpecList = "ci,csc,2obj";
  int JobsArg = 0;
  bool JobsSet = false;
  size_t MaxTiers = ~static_cast<size_t>(0);
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (Arg.rfind("--json=", 0) == 0)
      JsonPath = Arg.substr(7);
    else if (Arg == "--jobs" && I + 1 < Argc) {
      JobsArg = std::atoi(Argv[++I]);
      JobsSet = true;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      JobsArg = std::atoi(Arg.c_str() + 7);
      JobsSet = true;
    }
    else if (Arg == "--tiers" && I + 1 < Argc)
      MaxTiers = static_cast<size_t>(std::atoi(Argv[++I]));
    else if (Arg.rfind("--tiers=", 0) == 0)
      MaxTiers = static_cast<size_t>(std::atoi(Arg.c_str() + 8));
    else if (Arg == "--specs" && I + 1 < Argc)
      SpecList = Argv[++I];
    else if (Arg.rfind("--specs=", 0) == 0)
      SpecList = Arg.substr(8);
    else if (Arg == "--emit" && I + 1 < Argc)
      EmitDir = Argv[++I];
    else if (Arg.rfind("--emit=", 0) == 0)
      EmitDir = Arg.substr(7);
    else
      usage(Argv[0]);
  }
  unsigned Jobs =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u); // 0: unknown
  if (JobsSet) {
    if (JobsArg < 1 || JobsArg > 1024) {
      std::fprintf(stderr,
                   "error: --jobs expects a positive integer <= 1024\n");
      return 2;
    }
    Jobs = static_cast<unsigned>(JobsArg);
  }
  std::vector<std::string> Specs = splitSpecList(SpecList);
  if (Specs.empty())
    usage(Argv[0]);
  if (!EmitDir.empty())
    return emitTiers(EmitDir, MaxTiers, Specs);

  // Pre-build one session per tier: throughput measures analysis, not
  // workload generation/parsing. Both executors share these sessions —
  // exactly the shared-immutable-Program contract the engine relies on.
  std::vector<BatchEntry> Entries;
  size_t Tier = 0;
  for (const WorkloadConfig &C : scalingSuite()) {
    if (Tier >= MaxTiers)
      break;
    ++Tier;
    std::vector<std::string> Diags;
    auto P = buildWorkloadProgram(C, Diags);
    std::shared_ptr<AnalysisSession> S;
    if (P)
      S = AnalysisSession::adopt(std::move(P), {}, Diags);
    if (!S) {
      for (const std::string &D : Diags)
        std::fprintf(stderr, "%s\n", D.c_str());
      return 1;
    }
    S->setTimeBudgetMs(budgetMs());
    BatchEntry E;
    E.Label = C.Name;
    E.Session = std::move(S);
    E.Specs = Specs;
    Entries.push_back(std::move(E));
  }

  BatchExecutor::Options Seq;
  Seq.Jobs = 1;
  Seq.TimeBudgetMs = budgetMs();
  BatchExecutor SeqExec(Seq);

  BatchExecutor::Options Par = Seq;
  Par.Jobs = Jobs;
  BatchExecutor ParExec(Par);

  std::printf("Batch throughput: %zu entries x %zu specs, jobs %u "
              "(budget %.0f ms per run)\n",
              Entries.size(), Specs.size(), Jobs, budgetMs());
  std::printf("%-8s %10s %12s %12s\n", "pass", "wall(ms)", "specs/s",
              "cache-hits");

  BatchReport R1 = SeqExec.run(Entries);
  std::printf("%-8s %10.1f %12.1f %12llu\n", "jobs1", R1.WallMs,
              specsPerSec(R1.totalRuns(), R1.WallMs),
              static_cast<unsigned long long>(R1.CacheHits));

  BatchReport RN = ParExec.run(Entries);
  std::printf("%-8s %10.1f %12.1f %12llu\n", "jobsN", RN.WallMs,
              specsPerSec(RN.totalRuns(), RN.WallMs),
              static_cast<unsigned long long>(RN.CacheHits));

  BatchReport RC = ParExec.run(Entries);
  std::printf("%-8s %10.1f %12.1f %12llu\n", "cached", RC.WallMs,
              specsPerSec(RC.totalRuns(), RC.WallMs),
              static_cast<unsigned long long>(RC.CacheHits));

  double Speedup = RN.WallMs > 0 ? R1.WallMs / RN.WallMs : 0.0;
  std::printf("speedup jobs1 -> jobs%u: %.2fx\n", Jobs, Speedup);

  bool Identical = R1.aggregateJson() == RN.aggregateJson() &&
                   RN.aggregateJson() == RC.aggregateJson();
  bool CacheServed = RC.CacheHits == RC.totalRuns() && RC.CacheHits > 0;
  if (!Identical)
    std::fprintf(stderr, "error: aggregate reports diverged across "
                         "jobs/cache passes\n");
  if (!CacheServed)
    std::fprintf(stderr,
                 "error: cached pass expected %zu cache hits, got %llu\n",
                 RC.totalRuns(),
                 static_cast<unsigned long long>(RC.CacheHits));

  BenchJson J("batch_throughput", JsonPath);
  J.custom("all", "jobs1",
           {{"wall_ms", R1.WallMs},
            {"specs_per_sec", specsPerSec(R1.totalRuns(), R1.WallMs)},
            {"runs", static_cast<double>(R1.totalRuns())}});
  J.custom("all", "jobsN",
           {{"jobs", static_cast<double>(Jobs)},
            {"wall_ms", RN.WallMs},
            {"specs_per_sec", specsPerSec(RN.totalRuns(), RN.WallMs)},
            {"speedup", Speedup}});
  J.custom("all", "cached",
           {{"wall_ms", RC.WallMs},
            {"specs_per_sec", specsPerSec(RC.totalRuns(), RC.WallMs)},
            {"cache_hits", static_cast<double>(RC.CacheHits)},
            {"identical_reports", Identical ? 1.0 : 0.0}});
  if (!J.write())
    return 1;

  return (Identical && CacheServed) ? 0 : 3;
}
