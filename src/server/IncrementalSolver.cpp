//===- IncrementalSolver.cpp - Resident solver with warm restarts ---------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "server/IncrementalSolver.h"

#include <cassert>

using namespace csc;

IncrementalSolver::IncrementalSolver(const Program &P,
                                     const AnalysisRecipe &R, Options O)
    : P(P), Recipe(R),
      Setup(solverSetup(Recipe, O.WorkBudget, O.TimeBudgetMs)) {
  assert(eligible(R) && "recipe needs plugins / pre-analysis; use a full "
                        "AnalysisSession instead");
}

IncrementalSolver::~IncrementalSolver() = default;

void IncrementalSolver::noteDelta(bool CanWarmStart) {
  Valid = false;
  if (!CanWarmStart)
    ForceFull = true;
}

const PTAResult &IncrementalSolver::ensureCurrent() {
  if (Valid && SolvedStmts == P.numStmts())
    return Last;
  if (!ForceFull && S && S->canResume() && P.numStmts() >= SolvedStmts) {
    Last = S->resolveIncrement(SolvedStmts);
    ++WarmResumesV;
    LastWarm = true;
  } else {
    S = std::make_unique<Solver>(P, Setup.Opts);
    Last = S->solve();
    ++FullSolvesV;
    LastWarm = false;
  }
  SolvedStmts = P.numStmts();
  Valid = true;
  ForceFull = false;
  return Last;
}
