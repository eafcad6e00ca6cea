//===- SccCollapser.h - PFG cycle elimination -------------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cycle elimination for the solver's pointer-flow graph. Every pointer
/// in a cycle of unfiltered copy edges provably converges to the same
/// points-to set, so the solver keeps one set per strongly connected
/// component and propagates between component representatives instead of
/// individual pointers — the classic integer-factor speedup for
/// Andersen-style solvers.
///
/// The collapsed graph is a **view**, not a copy: the collapser stores no
/// adjacency of its own. Representative-level successors are enumerated
/// by walking the member pointers' original PointerFlowGraph out-edges
/// and mapping targets through rep() — for the overwhelming majority of
/// pointers (never absorbed into a class) this is exactly the original
/// edge list, so the solver's hot path touches no extra memory. An early
/// implementation kept a second, representative-keyed adjacency; the
/// duplicated working set cost more in cache pressure than collapsing
/// saved, and byte-per-byte parity with the collapse-free solver is what
/// makes the optimization a pure win.
///
/// What the collapser does own:
///
///  * a UnionFind mapping pointers to representatives, fronted by a
///    dense "absorbed" bitset so the never-merged majority resolve with
///    one cache-resident bit test,
///  * member lists and class sizes for collapsed classes,
///  * an approximate topological order over pointers, which drives the
///    solver's two-level worklist.
///
/// Detection is one whole-graph Tarjan pass (fullPass), as in
/// wave-propagation solvers. The solver runs it on a schedule — graph
/// growth and, decisively, solver work milestones, so cycles collapse
/// before the bulk of propagation circulates them — and once more when
/// the worklist drains at a completed fixpoint if the graph grew since
/// the last pass. A cycle's members already hold equal sets there, so
/// that last pass adds no propagation work, and a completed solve leaves
/// no unfiltered PFG cycle uncollapsed.
///
/// The collapser never touches solver state (points-to sets, pending
/// work, plugin callbacks); the solver drives merges via mergeClass() and
/// performs the semantic part of a collapse itself (see
/// Solver::collapseClass).
///
//===----------------------------------------------------------------------===//

#ifndef CSC_PTA_SCCCOLLAPSER_H
#define CSC_PTA_SCCCOLLAPSER_H

#include "pta/PTAResult.h"
#include "pta/PointerFlowGraph.h"
#include "support/Ids.h"
#include "support/UnionFind.h"

#include <unordered_map>
#include <vector>

namespace csc {

class SccCollapser {
public:
  /// The collapser reads (never writes) the solver's original PFG: it is
  /// the edge set full passes walk.
  explicit SccCollapser(const PointerFlowGraph &PFG) : PFG(PFG) {}

  /// Pre-sizes the order/size tables.
  void reserveHint(std::size_t Nodes);

  //===--------------------------------------------------------------------===
  // Representative mapping
  //===--------------------------------------------------------------------===

  /// Representative of \p P. Fast path: a pointer that was never
  /// absorbed into another class (the overwhelming majority) IS its own
  /// representative — one bit test on a dense bitset that stays
  /// cache-resident, instead of a random access into the union-find
  /// parent array on every enqueue. Only absorbed pointers walk the
  /// forest.
  PtrId rep(PtrId P) const {
    std::size_t W = P >> 6;
    if (W >= Absorbed.size() || !((Absorbed[W] >> (P & 63)) & 1))
      return P;
    return UF.find(P);
  }

  /// Number of original pointers in \p Rep's class (>= 1).
  uint32_t classSize(PtrId Rep) const {
    return Rep < Size.size() ? Size[Rep] : 1;
  }

  /// Member list of a multi-pointer class (ascending PtrId, includes the
  /// representative); nullptr for singleton classes.
  const std::vector<PtrId> *membersOrNull(PtrId Rep) const {
    auto It = Members.find(Rep);
    return It == Members.end() ? nullptr : &It->second;
  }

  //===--------------------------------------------------------------------===
  // Ordering / bookkeeping
  //===--------------------------------------------------------------------===

  /// Records a new original PFG edge for pass scheduling and order
  /// maintenance (called by the solver after PointerFlowGraph::addEdge
  /// accepts it).
  void noteEdge(PtrId S, PtrId T) {
    ensureNode(S > T ? S : T);
    ++NumEdges;
    ++EdgesSincePass;
  }

  /// Approximate topological position of \p Rep (smaller = closer to the
  /// PFG sources). Exact only right after a full pass; new nodes append
  /// in creation order, which tracks discovery and is a good heuristic.
  uint32_t order(PtrId Rep) const {
    return Rep < Order.size() ? Order[Rep] : Rep;
  }

  //===--------------------------------------------------------------------===
  // Detection
  //===--------------------------------------------------------------------===

  /// True when a scheduled whole-graph Tarjan sweep is worth it: the
  /// graph grew, or — the decisive trigger — the solver performed enough
  /// insertion work since the last pass. Work-based scheduling
  /// (geometric, from a small initial threshold) runs the first passes
  /// right after the initial reachability cascade, i.e. BEFORE the bulk
  /// of propagation circulates redundantly around any cycle; edge-based
  /// scheduling alone fires too late because the PFG skeleton appears in
  /// one early burst.
  bool fullPassDue(uint64_t WorkDone) const {
    return EdgesSincePass >= PassEdgeThreshold || WorkDone >= NextPassWork;
  }

  /// True when an edge arrived since the last pass: the fixpoint pass
  /// runs only then (an unchanged graph has no uncollapsed cycle).
  bool grewSincePass() const { return EdgesSincePass != 0; }

  /// Iterative Tarjan over the unfiltered representative subgraph:
  /// appends every multi-node SCC to \p SccsOut (for the solver to
  /// collapse) and refreshes the approximate topological order from the
  /// condensation. Resets the fullPassDue() schedule.
  void fullPass(std::vector<std::vector<PtrId>> &SccsOut,
                uint64_t WorkDone = 0);

  //===--------------------------------------------------------------------===
  // Merging
  //===--------------------------------------------------------------------===

  /// Structurally merges the classes of \p Reps (>= 2 current
  /// representatives): unites the union-find classes, concatenates
  /// member lists, marks the absorbed, and gives the winner the smallest
  /// order among the merged classes. Returns the surviving
  /// representative. Solver-side state (points-to / pending sets) is the
  /// caller's responsibility.
  PtrId mergeClass(const std::vector<PtrId> &Reps);

  SccStats &stats() { return Stats; }
  const SccStats &stats() const { return Stats; }

private:
  void ensureNode(PtrId P);

  const PointerFlowGraph &PFG;
  UnionFind UF;
  std::vector<uint32_t> Size;  ///< Class size by representative.
  std::vector<uint32_t> Order; ///< Approximate topological position.
  std::unordered_map<PtrId, std::vector<PtrId>> Members; ///< Multi only.
  /// Bit per pointer: 1 = absorbed into another representative (see
  /// rep()). Grown on demand by mergeClass, never by ensureNode — a
  /// never-merged run keeps this at a few words.
  std::vector<uint64_t> Absorbed;

  // Full-pass scheduling.
  uint64_t NumEdges = 0;
  uint64_t EdgesSincePass = 0;
  uint64_t PassEdgeThreshold = 256;
  uint64_t NextPassWork = 16 * 1024; ///< Insertion milestone (doubles).
  uint32_t UnproductivePasses = 0;   ///< Consecutive empty passes.

  SccStats Stats;
};

} // namespace csc

#endif // CSC_PTA_SCCCOLLAPSER_H
