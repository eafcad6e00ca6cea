//===- DifferentialFuzzTest.cpp - Randomized differential testing ---------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
//
// Seeded randomized workloads, checked two independent ways:
//
//  1. Soundness oracle (as in RecallPropertyTest): every fact the
//     interpreter observes dynamically — reached methods, call edges,
//     variable and field points-to, failing casts — must be
//     over-approximated by every sound static configuration.
//
//  2. Configuration invariance: ci, csc, and 2obj results must be
//     byte-identical (timing-free reports) and projection-identical
//     with cycle elimination (`scc`) on and off. The knob is
//     performance-only by contract; any divergence is a solver bug, and
//     a randomized program is far more likely to find the weird topology
//     that triggers it than the hand-written examples.
//
// Every case derives its workload-generator knobs from the case seed via
// the deterministic Rng, so the whole suite is reproducible. On failure
// the offending program is dumped as .jir next to the test binary (path
// printed in the failure output) together with its seed, so a failing
// case replays outside the fuzzer.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisSession.h"
#include "client/Report.h"
#include "interp/Interpreter.h"
#include "support/Rng.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace csc;

namespace {

/// Randomized-but-reproducible generator knobs: every dimension the
/// workload generator exposes is drawn from the case seed, small enough
/// to keep one case in the tens of milliseconds but crossing container
/// use, field chains, shared hubs, copy cycles, and call bombs.
WorkloadConfig fuzzConfig(uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 1);
  WorkloadConfig C;
  C.Name = "fuzz-" + std::to_string(Seed);
  C.Seed = Seed;
  C.NumEntityClasses = 4 + R.nextInRange(8);
  C.WrapperDepth = 1 + R.nextInRange(3);
  C.NumFamilies = 2 + R.nextInRange(4);
  C.FamilySize = 2 + R.nextInRange(3);
  C.NumSelectors = 2 + R.nextInRange(3);
  C.NumScenarios = 3 + R.nextInRange(4);
  C.ActionsPerScenario = 6 + R.nextInRange(8);
  C.FieldDensity = 1 + R.nextInRange(3);
  C.CallChainDepth = R.nextInRange(4);
  C.ContainerMixPct = R.nextInRange(40);
  C.NumSharedHubs = R.nextInRange(3);
  C.HubMixPct = 5 + R.nextInRange(20);
  C.CopyCycleLen = R.nextBool(0.7) ? 2 + R.nextInRange(5) : 0;
  C.BombDepth = R.nextBool(0.5) ? 2 + R.nextInRange(2) : 0;
  C.BombWidth = C.BombDepth ? 2 + R.nextInRange(2) : 0;
  C.BombMultiClass = R.nextBool();
  return C;
}

/// Writes the offending program next to the test binary for replay and
/// reports the path; called only when a case already failed.
void dumpOffender(uint64_t Seed) {
  std::string Path = "fuzz-offender-seed" + std::to_string(Seed) + ".jir";
  std::ofstream Out(Path);
  Out << "// DifferentialFuzzTest offender, seed " << Seed << "\n"
      << "// replay: cscpta --analyses ci;scc=0 <this file>\n"
      << generateWorkload(fuzzConfig(Seed));
  ADD_FAILURE() << "offending workload dumped to " << Path << " (seed "
                << Seed << ")";
}

std::string reportOf(const AnalysisRun &Run) {
  JsonWriter J;
  appendRunJson(J, Run, /*IncludeTimings=*/false);
  return J.take();
}

/// Oracle 1: dynamic facts ⊆ static result.
void expectSound(const Program &P, const DynamicFacts &Dyn,
                 const PTAResult &R, const std::string &Label) {
  for (MethodId M : Dyn.ReachedMethods)
    EXPECT_TRUE(R.isReachable(M))
        << Label << ": missed reachable method " << P.methodString(M);
  for (uint64_t E : Dyn.CallEdges) {
    CallSiteId CS = static_cast<CallSiteId>(E >> 32);
    MethodId M = static_cast<MethodId>(E & 0xFFFFFFFFu);
    bool Found = false;
    for (MethodId Callee : R.calleesOf(CS))
      Found = Found || Callee == M;
    EXPECT_TRUE(Found) << Label << ": missed call edge to "
                       << P.methodString(M);
  }
  for (const auto &[V, Objs] : Dyn.VarPointsTo)
    for (ObjId O : Objs)
      EXPECT_TRUE(R.pt(V).contains(O))
          << Label << ": missed points-to fact " << P.var(V).Name
          << " -> o" << O;
  for (const auto &[Key, Objs] : Dyn.FieldPointsTo) {
    ObjId Base = static_cast<ObjId>(Key >> 32);
    FieldId F = static_cast<FieldId>(Key & 0xFFFFFFFFu);
    for (ObjId O : Objs)
      EXPECT_TRUE(R.ptField(Base, F).contains(O))
          << Label << ": missed field fact o" << Base << "."
          << P.field(F).Name << " -> o" << O;
  }
  std::vector<StmtId> MayFail = mayFailCasts(P, R);
  for (StmtId S : Dyn.FailedCasts) {
    bool Found = false;
    for (StmtId F : MayFail)
      Found = Found || F == S;
    EXPECT_TRUE(Found) << Label << ": dynamically failing cast not flagged";
  }
}

/// Oracle 2: engine knobs are invisible. Projections compared per
/// variable; reports compared as bytes after erasing the spec spelling.
void expectInvariant(const Program &P, AnalysisRun &Base,
                     AnalysisRun &Variant, const std::string &Label) {
  ASSERT_EQ(Variant.Status, RunStatus::Completed)
      << Label << ": " << Variant.Error;
  Variant.Name = Base.Name;
  EXPECT_EQ(reportOf(Base), reportOf(Variant)) << Label;
  for (VarId V = 0; V < P.numVars(); ++V)
    EXPECT_EQ(Base.Result.pt(V).toVector(), Variant.Result.pt(V).toVector())
        << Label << ": var " << P.var(V).Name;
  EXPECT_EQ(Base.Result.Stats.PtsInsertions,
            Variant.Result.Stats.PtsInsertions)
      << Label;
}

class DifferentialFuzzTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(DifferentialFuzzTest, SoundAndInvariantAcrossEngineKnobs) {
  const uint64_t Seed = GetParam();
  std::vector<std::string> Diags;
  auto P = buildWorkloadProgram(fuzzConfig(Seed), Diags);
  for (const std::string &D : Diags)
    ADD_FAILURE() << "seed " << Seed << ": " << D;
  ASSERT_NE(P, nullptr);

  DynamicFacts Dyn = interpretManySeeds(*P, 4);
  ASSERT_GT(Dyn.ReachedMethods.size(), 3u)
      << "seed " << Seed << " generated a trivial program";

  AnalysisSession S(*P);
  for (const char *Spec : {"ci", "csc", "2obj"}) {
    // Baseline: cycle elimination on (the default).
    AnalysisRun Base = S.run(std::string(Spec) + ";scc=1");
    ASSERT_EQ(Base.Status, RunStatus::Completed)
        << Spec << "/seed " << Seed << ": " << Base.Error;
    Base.Name = Spec;
    expectSound(*P, Dyn, Base.Result,
                std::string(Spec) + "/seed " + std::to_string(Seed));

    // Turning the engine knob off must reproduce it exactly.
    AnalysisRun V = S.run(std::string(Spec) + ";scc=0");
    expectInvariant(*P, Base, V,
                    std::string(Spec) + ";scc=0/seed " +
                        std::to_string(Seed));
  }

  if (::testing::Test::HasFailure())
    dumpOffender(Seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialFuzzTest,
                         ::testing::Values(11ULL, 23ULL, 37ULL, 59ULL,
                                           71ULL, 97ULL, 113ULL, 131ULL),
                         [](const ::testing::TestParamInfo<uint64_t> &Info) {
                           return "seed" + std::to_string(Info.param);
                         });
