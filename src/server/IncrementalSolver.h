//===- IncrementalSolver.h - Resident solver with warm restarts -*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived solving layer for one (program, analysis recipe) pair, the
/// incremental half of the analysis server. It keeps the Solver — pointer
/// flow graph, points-to sets, call graph, contexts — resident between
/// requests and, after an additive program delta, resumes the fixpoint via
/// Solver::resolveIncrement instead of re-solving from scratch: only the
/// new statements are replayed, so re-analysis cost tracks delta size.
///
/// The equivalence contract (every answer byte-identical to a from-scratch
/// run on the post-delta program) rests on monotonicity: additive deltas
/// only ever grow the solution, so the retained fixpoint is a valid
/// starting point. The caller classifies each delta via noteDelta():
/// deltas that could change dispatch on already-flowing objects (a new
/// method on a pre-existing class) are non-monotone in the call graph and
/// must be reported with CanWarmStart=false, forcing a full re-solve.
///
/// Eligibility: recipes with plugins (csc) or a pre-analysis (zipper-e)
/// cannot warm-start — plugin state is not replayed and the zipper method
/// selection itself depends on the pre-delta program. eligible() screens
/// them out; the server falls back to full AnalysisSession runs for those.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_SERVER_INCREMENTALSOLVER_H
#define CSC_SERVER_INCREMENTALSOLVER_H

#include "client/AnalysisRegistry.h"
#include "pta/Solver.h"

#include <memory>

namespace csc {

class IncrementalSolver {
public:
  struct Options {
    uint64_t WorkBudget = ~0ULL; ///< Per solve; ~0 = unlimited.
    double TimeBudgetMs = 0;     ///< Per solve; 0 = unlimited.
  };

  /// True if \p R can be hosted: no solver plugins, no zipper
  /// pre-analysis. (Context-sensitive selectors are fine — selection is
  /// stateless and new methods/objects get contexts on first discovery.)
  static bool eligible(const AnalysisRecipe &R) {
    return !R.UseCsc && !R.UseZipper;
  }

  /// Borrows \p P (which may grow; must outlive this object). \p R must
  /// satisfy eligible().
  IncrementalSolver(const Program &P, const AnalysisRecipe &R, Options O);
  ~IncrementalSolver();

  /// Marks the held result stale after a program delta. \p CanWarmStart
  /// is the caller's monotonicity classification: false forces the next
  /// ensureCurrent() to rebuild and solve from scratch.
  void noteDelta(bool CanWarmStart);

  /// Returns the result for the current program, (re)solving if stale.
  /// The reference stays valid until the next noteDelta/ensureCurrent.
  const PTAResult &ensureCurrent();

  bool current() const { return Valid; }
  bool lastWasWarm() const { return LastWarm; }
  uint64_t warmResumes() const { return WarmResumesV; }
  uint64_t fullSolves() const { return FullSolvesV; }
  const AnalysisRecipe &recipe() const { return Recipe; }

private:
  const Program &P;
  AnalysisRecipe Recipe;
  /// Owns the selector chain the resident solver references; all
  /// selectors are stateless.
  SolverSetup Setup;

  std::unique_ptr<Solver> S;
  PTAResult Last;
  uint32_t SolvedStmts = 0; ///< P.numStmts() when Last was computed.
  bool Valid = false;
  bool ForceFull = false;
  bool LastWarm = false;
  uint64_t WarmResumesV = 0;
  uint64_t FullSolvesV = 0;
};

} // namespace csc

#endif // CSC_SERVER_INCREMENTALSOLVER_H
