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
/// The points-to projection is hash-consed: most keys of a run share
/// their set with many others, so the result keeps one pool of distinct
/// immutable sets and one pool index per var, field, array and static
/// key. The accessors still hand out `const PointsToSet &`.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_PTA_PTARESULT_H
#define CSC_PTA_PTARESULT_H

#include "support/Ids.h"
#include "support/PointsToSet.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace csc {

class BinaryReader;
class BinaryWriter;

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

/// The keyed projection tables, for PTAResult::forEachKey.
enum class PtsTable : uint8_t { Field, Array, Static };

/// One keyed projection entry: Field keys are (ObjId, FieldId), Array
/// keys (ObjId, 0) and Static keys (FieldId, 0); Set is a pool index.
struct KeyedSet {
  uint32_t A = 0, B = 0;
  uint32_t Set = 0;
};

class PTAResult {
public:
  bool Exhausted = false; ///< True if a work/time budget was hit.
  double TimeMs = 0;
  SolverStats Stats;

  /// CI-projected points-to set of a variable (ObjIds).
  const PointsToSet &pt(VarId V) const {
    return V < VarSets.size() ? Pool[VarSets[V]] : Empty;
  }
  /// CI-projected points-to set of an instance field.
  const PointsToSet &ptField(ObjId O, FieldId F) const {
    return find(FieldSets, O, F);
  }
  const PointsToSet &ptArray(ObjId O) const { return find(ArraySets, O, 0); }
  const PointsToSet &ptStatic(FieldId F) const {
    return find(StaticSets, F, 0);
  }

  /// Calls \p Fn(A, B, Set) for every key of \p T with a non-empty set,
  /// in ascending (A, B) order; see KeyedSet for what A and B are.
  template <typename F> void forEachKey(PtsTable T, F &&Fn) const {
    for (const KeyedSet &K : table(T))
      Fn(K.A, K.B, Pool[K.Set]);
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
  std::vector<std::vector<MethodId>> CalleesPerSite;
  std::unordered_set<MethodId> Reachable;
  uint64_t NumCallEdgesCI = 0;

private:
  friend class Solver;
  friend void serializePTAResult(const PTAResult &, BinaryWriter &);
  friend bool deserializePTAResult(BinaryReader &, PTAResult &);
  friend bool resultsEqual(const PTAResult &, const PTAResult &);

  const std::vector<KeyedSet> &table(PtsTable T) const {
    return T == PtsTable::Field   ? FieldSets
           : T == PtsTable::Array ? ArraySets
                                  : StaticSets;
  }
  const PointsToSet &find(const std::vector<KeyedSet> &Table, uint32_t A,
                          uint32_t B) const;

  // The hash-consed points-to projection. Pool holds each distinct set
  // once: Pool[0] is the empty set, and Pool[1..] are the distinct
  // non-empty sets in first-use order — vars ascending, then the Field,
  // Array and Static tables in key order. That order is a function of
  // the sets alone, so equal results have equal pools and the codec
  // writes them as they are. Every key holds a pool index: VarSets by
  // VarId (0 for an empty set), the keyed tables sorted by (A, B) and
  // holding only keys with a non-empty set.
  std::vector<PointsToSet> Pool = std::vector<PointsToSet>(1);
  std::vector<uint32_t> VarSets;
  std::vector<KeyedSet> FieldSets, ArraySets, StaticSets;

  inline static const PointsToSet Empty{};
  inline static const std::vector<MethodId> NoMethods{};
};

inline const PointsToSet &PTAResult::find(const std::vector<KeyedSet> &Table,
                                          uint32_t A, uint32_t B) const {
  auto It = std::lower_bound(Table.begin(), Table.end(), A,
                             [B](const KeyedSet &K, uint32_t KA) {
                               return K.A < KA || (K.A == KA && K.B < B);
                             });
  return It != Table.end() && It->A == A && It->B == B ? Pool[It->Set]
                                                        : Empty;
}

} // namespace csc

#endif // CSC_PTA_PTARESULT_H
