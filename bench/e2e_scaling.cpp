//===- e2e_scaling.cpp - End-to-end scaling bench -------------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Runs a spec list (default ci,csc,2obj) over the size-parameterized
// scalingSuite() workload tiers and prints analysis time plus solver work
// counters per (tier, analysis). This is the perf record CI tracks: with
// --json the BenchJson document carries one record per run, plus a
// "program" record per tier with its size and its frontend cost: the
// parse (stdlib + the generated text, timed apart from generating it)
// and the program fingerprint every store key hashes.
//
// The first tier is the CI smoke gate: if any analysis exhausts its budget
// there, the bench exits with status 3 so the perf-smoke job fails.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "frontend/Parser.h"
#include "stdlib/Stdlib.h"
#include "store/ResultStore.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace csc;
using namespace csc::bench;

namespace {

void usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--json <path>] [--tiers <n>] [--specs <list>]\n",
               Prog);
  std::exit(2);
}

std::vector<std::string> splitSpecs(const std::string &List) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= List.size()) {
    size_t Comma = List.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = List.size();
    if (Comma > Pos)
      Out.push_back(List.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  std::string SpecList = "ci,csc,2obj";
  size_t MaxTiers = ~static_cast<size_t>(0);
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (Arg.rfind("--json=", 0) == 0)
      JsonPath = Arg.substr(7);
    else if (Arg == "--tiers" && I + 1 < Argc)
      MaxTiers = static_cast<size_t>(std::atoi(Argv[++I]));
    else if (Arg.rfind("--tiers=", 0) == 0)
      MaxTiers = static_cast<size_t>(std::atoi(Arg.c_str() + 8));
    else if (Arg == "--specs" && I + 1 < Argc)
      SpecList = Argv[++I];
    else if (Arg.rfind("--specs=", 0) == 0)
      SpecList = Arg.substr(8);
    else
      usage(Argv[0]);
  }
  std::vector<std::string> Specs = splitSpecs(SpecList);
  if (Specs.empty())
    usage(Argv[0]);

  BenchJson J("e2e_scaling", JsonPath);
  std::printf("End-to-end scaling: analysis time in seconds per workload "
              "tier (budget %.0f ms per run)\n",
              budgetMs());
  std::printf("%-10s %8s", "tier", "stmts");
  for (const std::string &Spec : Specs)
    std::printf(" %12s", Spec.c_str());
  std::printf("\n");

  bool SmokeFailed = false;
  size_t Tier = 0;
  for (const WorkloadConfig &C : scalingSuite()) {
    if (Tier >= MaxTiers)
      break;
    std::vector<std::string> Diags;
    const std::vector<std::pair<std::string, std::string>> Sources = {
        {"<stdlib>", stdlibSource()}, {C.Name + ".jir", generateWorkload(C)}};
    auto P = std::make_unique<Program>();
    Timer ParseT;
    bool Parsed = parseProgram(*P, Sources, Diags);
    double ParseMs = ParseT.elapsedMs();
    std::unique_ptr<AnalysisSession> S;
    if (Parsed)
      S = AnalysisSession::adopt(std::move(P), {}, Diags);
    if (!S) {
      for (const std::string &D : Diags)
        std::fprintf(stderr, "%s\n", D.c_str());
      return 1;
    }
    Timer FingerprintT;
    programFingerprint(S->program());
    double FingerprintMs = FingerprintT.elapsedMs();
    uint32_t Stmts = S->program().numStmts();
    J.custom(C.Name, "program",
             {{"stmts", static_cast<double>(Stmts)},
              {"vars", static_cast<double>(S->program().numVars())},
              {"parse_ms", ParseMs},
              {"fingerprint_ms", FingerprintMs}});
    std::printf("%-10s %8u", C.Name.c_str(), Stmts);
    for (const std::string &Spec : Specs) {
      AnalysisRun O = runWithBudget(*S, Spec, /*DoopMode=*/false);
      J.record(C.Name, O);
      std::printf(" %12s", fmtTime(O).c_str());
      if (Tier == 0 && !O.completed())
        SmokeFailed = true;
    }
    std::printf("\n");
    ++Tier;
  }

  if (!J.write())
    return 1;
  if (SmokeFailed) {
    std::fprintf(stderr,
                 "error: smoke tier exhausted its budget (BudgetExhausted "
                 "on the smallest workload)\n");
    return 3;
  }
  return 0;
}
