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
    : P(P), Recipe(R), Opts(O) {
  assert(eligible(R) && "recipe needs plugins / pre-analysis; use a full "
                        "AnalysisSession instead");
  Inner = makeSelector(Recipe);
  if (Inner && Recipe.SelectOnly) {
    Selective = std::make_unique<SelectiveSelector>(*Inner, *Recipe.SelectOnly);
    Selector = Selective.get();
  } else if (Inner) {
    Selector = Inner.get();
  }
}

IncrementalSolver::~IncrementalSolver() = default;

SolverOptions IncrementalSolver::solverOptions() const {
  SolverOptions SOpts;
  SOpts.DeltaPropagation = !Recipe.DoopMode;
  SOpts.CycleElimination = Recipe.CycleElimination;
  SOpts.WorkBudget = Opts.WorkBudget;
  SOpts.TimeBudgetMs = Opts.TimeBudgetMs;
  SOpts.Selector = Selector;
  return SOpts;
}

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
    S = std::make_unique<Solver>(P, solverOptions());
    Last = S->solve();
    ++FullSolvesV;
    LastWarm = false;
  }
  SolvedStmts = P.numStmts();
  Valid = true;
  ForceFull = false;
  return Last;
}

PTAResult
IncrementalSolver::demandSolve(const std::vector<uint8_t> &EnabledStmts) const {
  SolverOptions SOpts = solverOptions();
  SOpts.EnabledStmts = &EnabledStmts;
  Solver DS(P, SOpts);
  return DS.solve();
}
