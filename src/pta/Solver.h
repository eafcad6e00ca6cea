//===- Solver.h - Worklist pointer-analysis solver --------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Andersen-style worklist solver with on-the-fly call-graph
/// construction, implementing the rules of Fig. 7 of the paper. One solver
/// serves every analysis in the evaluation:
///
///  * CI            — CISelector (or no selector)
///  * 2obj / 2type  — KObjSelector / KTypeSelector
///  * Zipper-e      — SelectiveSelector produced by the zipper pre-analysis
///  * Cut-Shortcut  — CISelector + CutShortcutPlugin, which populates the
///                    cutStores / cutReturns / shortcut-edge sets consulted
///                    by the [Store] / [Return] / [Shortcut] rules.
///
/// Two propagation modes emulate the paper's two frameworks: delta
/// propagation (Tai-e-style incremental) and full re-propagation
/// (Doop-style semi-naive evaluation overhead).
///
//===----------------------------------------------------------------------===//

#ifndef CSC_PTA_SOLVER_H
#define CSC_PTA_SOLVER_H

#include "ir/Program.h"
#include "pta/CSManager.h"
#include "pta/CallGraph.h"
#include "pta/Context.h"
#include "pta/ContextSelector.h"
#include "pta/PTAResult.h"
#include "pta/Plugin.h"
#include "pta/PointerFlowGraph.h"
#include "pta/SccCollapser.h"
#include "support/Hash.h"
#include "support/PointsToSet.h"
#include "support/Timer.h"

#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace csc {

struct SolverOptions {
  /// Context policy; nullptr means context insensitivity.
  ContextSelector *Selector = nullptr;
  /// Incremental (Tai-e-style) vs full re-propagation (Doop-style).
  bool DeltaPropagation = true;
  /// Cycle elimination: pointers on a cycle of unfiltered PFG edges
  /// share one points-to set behind an SCC representative, and
  /// propagation runs on the collapsed graph (see SccCollapser.h).
  /// Purely an engine optimization — results, precision metrics, the
  /// logical PtsInsertions counter, and every public query (ptsOf, pfg(),
  /// plugin callbacks, graph dumps) are identical with it on or off.
  /// Orthogonal to the engine mode: Doop-style full re-propagation keeps
  /// its semantics and simply re-propagates representative sets.
  bool CycleElimination = true;
  /// Abort after this many (pointer, object) insertions (emulates the
  /// paper's 2h timeout deterministically). ~0 = unlimited.
  uint64_t WorkBudget = ~0ULL;
  /// Optional wall-clock cap in milliseconds (0 = unlimited).
  double TimeBudgetMs = 0.0;
};

class Solver {
public:
  explicit Solver(const Program &P, SolverOptions Opts = {});
  ~Solver();

  /// Registers a plugin (not owned). Must be called before solve().
  void addPlugin(SolverPlugin *Pl) { Plugins.push_back(Pl); }

  /// Runs the analysis from the program entry point.
  PTAResult solve();

  /// True if a completed solve() can be extended in place by
  /// resolveIncrement: the previous run reached its fixpoint (not budget
  /// -exhausted) and no plugins are registered (plugin state machines —
  /// cut/shortcut discovery — are not replayed against deltas).
  bool canResume() const { return Solved && !Exhausted && Plugins.empty(); }

  /// Warm re-solve after an additive program delta: the Program this
  /// solver borrows has grown (new types/fields/methods/vars/statements
  /// appended; nothing existing removed or reordered). Statements the
  /// previous run already processed keep their facts — pointer-analysis
  /// facts are monotone, so the retained fixpoint is a sound lower bound
  /// for the post-delta program. This seeds the worklist with only the new
  /// statements' effects: new statements of already-reachable methods are
  /// replayed against the current points-to sets, and everything else
  /// (new methods, new call edges) is discovered by the resumed fixpoint.
  /// Requires canResume(). The returned PTAResult is identical in every
  /// fixpoint-determined field to a from-scratch solve of the post-delta
  /// program (scheduling diagnostics like WorklistPops may differ).
  ///
  /// Not safe for deltas that change dispatch of pre-existing classes
  /// (e.g. a new method whose owner existed before the delta): a
  /// previously resolved virtual call could gain a target the replay does
  /// not revisit. Callers classify deltas (see server/IncrementalSolver)
  /// and fall back to a fresh solver when in doubt.
  PTAResult resolveIncrement(uint32_t OldNumStmts);

  //===--------------------------------------------------------------------===
  // Plugin / query API
  //===--------------------------------------------------------------------===

  const Program &program() const { return P; }
  ContextManager &ctxManager() { return CM; }
  const ContextManager &ctxManager() const { return CM; }
  CSManager &csManager() { return CSM; }
  const CSManager &csManager() const { return CSM; }
  CallGraph &callGraph() { return CG; }
  const CallGraph &callGraph() const { return CG; }
  const PointerFlowGraph &pfg() const { return PFG; }

  /// True if the edge was added via addShortcutEdge (for diagnostics and
  /// graph dumps).
  bool isShortcutEdge(PtrId Src, PtrId Dst) const {
    return ShortcutEdgeKeys.count(packPair(Src, Dst)) != 0;
  }

  /// Current points-to set of a pointer (empty if never touched).
  /// The representative-remapping layer: under cycle elimination the set
  /// lives with \p Pr's SCC representative, so plugins and clients keep
  /// querying original (un-collapsed) pointers and see exactly the sets
  /// a collapse-free solver would compute.
  const PointsToSet &ptsOf(PtrId Pr) const {
    Pr = repOf(Pr);
    return Pr < Pts.size() ? Pts[Pr] : EmptyPts;
  }

  /// SCC representative of \p Pr (identity while cycle elimination is
  /// off or \p Pr is not in any collapsed class). Diagnostics/tests only:
  /// the query surface above already remaps.
  PtrId representative(PtrId Pr) const { return repOf(Pr); }

  // The Fig. 7 cut/shortcut sets, populated by the Cut-Shortcut plugin.
  void addCutStore(StmtId S);
  void addCutReturn(VarId V);
  bool isCutStore(StmtId S) const {
    return S < CutStores.size() && CutStores[S];
  }
  bool isCutReturn(VarId V) const {
    return V < CutReturns.size() && CutReturns[V];
  }
  /// [Shortcut]: adds Src -> Dst to E_SC (and thus to the PFG).
  /// Returns true if the edge is new.
  bool addShortcutEdge(PtrId Src, PtrId Dst);

  /// Defers return-edge creation for return variable \p V: the plugin has
  /// syntactic evidence that V may become a cut return through nested
  /// tempLoad discovery ([CutPropLoad]) and the [Return] edges must not be
  /// added before that is decided (cut edges can never be removed).
  /// Call undeferReturn to flush withheld edges if V is not cut after all;
  /// addCutReturn discards them. CI contexts only.
  void addDeferredReturn(VarId V);
  void undeferReturn(VarId V);
  bool isDeferredReturn(VarId V) const {
    return V < DeferredReturns.size() && DeferredReturns[V];
  }

  // Pointer helpers.
  PtrId varPtr(VarId V, CtxId C) { return CSM.getVarPtr(V, C); }
  PtrId varPtrCI(VarId V) { return CSM.getVarPtr(V, CM.empty()); }
  PtrId fieldPtr(CSObjId O, FieldId F) { return CSM.getFieldPtr(O, F); }
  PtrId fieldPtrCI(ObjId O, FieldId F) {
    return CSM.getFieldPtr(CSM.getCSObj(O, CM.empty()), F);
  }

  uint64_t workDone() const { return Stats.PtsInsertions; }
  bool exhausted() const { return Exhausted; }

private:
  void addReachable(MethodId M, CtxId C);
  /// Seeds statement \p S in context \p C when its effect needs no
  /// points-to facts: allocations, local and static copies, static
  /// calls. False for the rest (field and array accesses, virtual calls,
  /// returns), which points-to growth and call edges drive. Shared by
  /// addReachable and replayNewStmt.
  bool seedStmt(const Stmt &S, CtxId C);
  void processCallEdge(CSCallSiteId CS, CSMethodId Callee, const Stmt &S,
                       CtxId CallerCtx, CtxId CalleeCtx);
  void processCallOnReceiver(const Stmt &S, CtxId CallerCtx, CSObjId Recv);
  bool addPFGEdge(PtrId Src, PtrId Dst, TypeId Filter, EdgeOrigin Origin);
  void enqueueObj(PtrId Pr, CSObjId O);
  void enqueueSet(PtrId Pr, const PointsToSet &Set, TypeId Filter);
  const PointsToSet &filterMask(TypeId Filter);
  void processPointer(PtrId Pr, const PointsToSet &Delta);
  /// One base-dependent statement's reaction to new receiver facts: the
  /// per-statement half of processPointer, also used by resolveIncrement
  /// to replay a *new* statement against a base's already-computed set.
  void processBaseUse(const Stmt &S, StmtId SId, CtxId C,
                      const PointsToSet &Delta);
  /// (Re)indexes BaseUses for statements with id >= Begin.
  void indexBaseUses(StmtId Begin);
  /// Seeds the effects of one delta statement in an already-reachable
  /// (method, context) during resolveIncrement.
  void replayNewStmt(CSMethodId CSMth, const Stmt &S, StmtId SId, CtxId C);
  /// Drains the worklist to a fixpoint (or budget exhaustion), including
  /// the plugin onFixpoint resumption rounds.
  void runFixpointLoop();
  /// Plugin onFinish, stats finalization, and result projection shared by
  /// solve() and resolveIncrement().
  PTAResult finishRun();
  void markDirty(PtrId Pr);
  void ensurePtr(PtrId Pr);
  void buildProjection(PTAResult &R);

  // Cycle elimination / worklist internals.
  PtrId repOf(PtrId Pr) const { return Scc ? Scc->rep(Pr) : Pr; }
  uint32_t classSizeOf(PtrId Rep) const {
    return Scc ? Scc->classSize(Rep) : 1;
  }
  /// Flows \p Set along every out-edge of \p Rep's class (each member's
  /// original PFG out-edges; targets remap through representatives).
  void propagateAlongEdges(PtrId Rep, const PointsToSet &Set);
  /// processPointer for every original pointer of \p Rep's class (the
  /// un-collapsing half of the remapping layer: statement reprocessing
  /// and plugin callbacks fire per member, in ascending pointer order).
  void processClass(PtrId Rep, const PointsToSet &Delta);
  /// Semantic half of a collapse: merges member points-to/pending state
  /// into the winner, fires per-class catch-up deltas, and re-flushes
  /// the merged out-edges. \p Classes holds distinct current
  /// representatives (one SCC of a full pass).
  void collapseClass(std::vector<PtrId> Classes);
  void runFullSccPass();
  /// Moves Next into Current, sorted by (approximate topo order, id).
  void refillWorklist();

  const Program &P;
  SolverOptions Opts;
  std::unique_ptr<ContextSelector> DefaultSelector; ///< CI fallback.
  ContextSelector *Selector = nullptr;

  ContextManager CM;
  CSManager CSM;
  CallGraph CG;
  PointerFlowGraph PFG;
  std::vector<SolverPlugin *> Plugins;

  // Per-pointer state (indexed by PtrId; under cycle elimination only
  // representative slots are live). Pts is a deque so references to
  // individual sets stay valid while new pointers are interned mid-flight
  // (enqueueSet unions from a source set while growing the tables).
  std::deque<PointsToSet> Pts;
  std::vector<PointsToSet> Pending; ///< Facts awaiting the pointer's pop.
  std::vector<uint8_t> InQueue;     ///< By representative.

  // Two-level topology-aware worklist: Current is one sweep, sorted by
  // (approximate topological order, id) when it was sealed; pointers
  // dirtied during the sweep collect unsorted in Next and become the
  // next sweep. Entries may be stale after a collapse (absorbed ids, or
  // re-queued representatives) — the pop loop drops entries whose
  // representative's InQueue flag is clear.
  std::vector<PtrId> Current;
  std::size_t Cursor = 0;
  std::vector<PtrId> Next;

  // Cycle elimination (null when Opts.CycleElimination is off).
  std::unique_ptr<SccCollapser> Scc;

  // Lazily built per-type bitmaps over the CSObjId space: FilterMasks[T]
  // holds every interned object whose type is a subtype of T, so filtered
  // (cast / array-store) propagation is a word-parallel intersection
  // instead of a per-element subtype test. Extended on use as objects are
  // interned; object types never change, so the masks are append-only.
  std::vector<PointsToSet> FilterMasks;
  std::vector<uint32_t> FilterMaskCover; ///< #objs already classified.

  // Cut sets (dynamic bitsets over StmtId / VarId).
  std::vector<uint8_t> CutStores;
  std::vector<uint8_t> CutReturns;
  std::vector<uint8_t> DeferredReturns;
  std::unordered_map<VarId, std::vector<PtrId>> PendingReturnTargets;
  std::unordered_set<uint64_t> ShortcutEdgeKeys;

  // Per-variable statement index: statements whose Base is this variable.
  std::vector<std::vector<StmtId>> BaseUses;

  SolverStats Stats;
  bool Exhausted = false;
  bool Solved = false; ///< A solve()/resolveIncrement() has completed.
  Timer Clock;

  inline static const PointsToSet EmptyPts{};
};

} // namespace csc

#endif // CSC_PTA_SOLVER_H
