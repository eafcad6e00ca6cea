//===- PTAResult.h - Analysis result & CI projections -----------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result of one pointer-analysis run. Clients consume the
/// context-insensitive projection (points-to sets merged over contexts,
/// call edges deduplicated per call site), which is also what the paper's
/// precision metrics are computed on.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_PTA_PTARESULT_H
#define CSC_PTA_PTARESULT_H

#include "support/Hash.h"
#include "support/Ids.h"
#include "support/PointsToSet.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace csc {

/// Cycle-elimination counters (SolverOptions::CycleElimination).
/// Scheduling diagnostics like SolverStats::WorklistPops: reported via
/// `cscpta --stats` and benches, never serialized into result reports —
/// result JSON must stay a pure function of the computed fixpoint.
struct SccStats {
  uint64_t SccsFound = 0;        ///< Collapse events (one per merged SCC).
  uint64_t MembersCollapsed = 0; ///< Pointers absorbed into another rep.
  /// Whole-graph Tarjan passes: scheduled ones plus the fixpoint pass.
  uint64_t FullPasses = 0;
  /// Estimated (pointer, object) insertions the collapsed classes would
  /// have performed separately: each delta merged into a k-member class
  /// saves k-1 re-insertions plus their downstream re-propagation.
  uint64_t PropagationsSaved = 0;
};

struct SolverStats {
  /// Work measure: logical (pointer, object) additions. Under cycle
  /// elimination an insertion into a k-member representative counts k
  /// times, so at a completed fixpoint the value equals the sum of all
  /// per-pointer set sizes — identical with the subsystem on or off.
  uint64_t PtsInsertions = 0;
  uint64_t PFGEdges = 0;
  /// Worklist pops actually performed. Scheduling-dependent (changes
  /// with worklist order and cycle elimination), hence excluded from
  /// result JSON; see appendStatsJson.
  uint64_t WorklistPops = 0;
  uint64_t CallEdgesCS = 0;
  uint32_t NumPtrs = 0;
  uint32_t NumCSObjs = 0;
  uint32_t NumContexts = 0;
  uint32_t ReachableCS = 0;
  uint32_t ReachableCI = 0;
  SccStats Scc; ///< Cycle-elimination diagnostics (not serialized).
};

class PTAResult {
public:
  bool Exhausted = false; ///< True if a work/time budget was hit.
  double TimeMs = 0;
  SolverStats Stats;

  /// CI-projected points-to set of a variable (ObjIds).
  const PointsToSet &pt(VarId V) const {
    return V < VarPts.size() ? VarPts[V] : Empty;
  }
  /// CI-projected points-to set of an instance field.
  const PointsToSet &ptField(ObjId O, FieldId F) const {
    auto It = FieldPts.find({O, F});
    return It == FieldPts.end() ? Empty : It->second;
  }
  const PointsToSet &ptArray(ObjId O) const {
    auto It = ArrayPts.find(O);
    return It == ArrayPts.end() ? Empty : It->second;
  }
  const PointsToSet &ptStatic(FieldId F) const {
    auto It = StaticPts.find(F);
    return It == StaticPts.end() ? Empty : It->second;
  }

  /// Deduplicated callees of a call site (CI projection).
  const std::vector<MethodId> &calleesOf(CallSiteId CS) const {
    return CS < CalleesPerSite.size() ? CalleesPerSite[CS] : NoMethods;
  }

  bool isReachable(MethodId M) const { return Reachable.count(M) != 0; }
  const std::unordered_set<MethodId> &reachableMethods() const {
    return Reachable;
  }

  uint64_t numCallEdgesCI() const { return NumCallEdgesCI; }
  uint32_t numReachableCI() const {
    return static_cast<uint32_t>(Reachable.size());
  }

  /// True if two variables may point to a common object.
  bool mayAlias(VarId A, VarId B) const {
    return pt(A).intersects(pt(B));
  }

  // Populated by the solver's projection step.
  std::vector<PointsToSet> VarPts;
  std::unordered_map<std::pair<uint32_t, uint32_t>, PointsToSet, PairHash>
      FieldPts;
  std::unordered_map<uint32_t, PointsToSet> ArrayPts;
  std::unordered_map<uint32_t, PointsToSet> StaticPts;
  std::vector<std::vector<MethodId>> CalleesPerSite;
  std::unordered_set<MethodId> Reachable;
  uint64_t NumCallEdgesCI = 0;

private:
  inline static const PointsToSet Empty{};
  inline static const std::vector<MethodId> NoMethods{};
};

} // namespace csc

#endif // CSC_PTA_PTARESULT_H
