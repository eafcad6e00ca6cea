//===- FieldAccessPattern.h - §3.2 / Figs. 8–9 ------------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The field access pattern of Cut-Shortcut (§3.2, formalized in Figs. 8
/// and 9):
///
///  * Store side — a store `x.f = y` whose base and source are both
///    never-redefined parameters merges argument flows from every call
///    site; the store edges are cut ([CutStore]) and tempStores are
///    propagated up nested call chains ([PropStore]) until they anchor at
///    a level where base/source are not pass-through parameters, where
///    shortcut edges `from -> o.f` are emitted ([ShortcutStore]).
///
///  * Load side — a load `to = base.f` whose base is a never-redefined
///    parameter and whose target is a return variable returns merged
///    loads; the return edges are cut and tempLoads propagate to callers
///    ([CutPropLoad]), emitting `o.f -> lhs` shortcuts ([ShortcutLoad]).
///    In-edges of the cut return variable that did not come from the
///    qualifying loads (tracked as returnLoadEdges) are relayed to every
///    call-site LHS to preserve soundness ([RelayEdge]).
///
//===----------------------------------------------------------------------===//

#ifndef CSC_CSC_FIELDACCESSPATTERN_H
#define CSC_CSC_FIELDACCESSPATTERN_H

#include "csc/CscState.h"
#include "support/DenseTable.h"
#include "support/FlatTable.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace csc {

class FieldAccessPattern {
public:
  FieldAccessPattern(CscState &St, bool HandleStores, bool HandleLoads)
      : St(St), HandleStores(HandleStores), HandleLoads(HandleLoads) {}

  void onNewMethod(MethodId M);
  void onNewCallEdge(CSCallSiteId CS, CSMethodId Callee);
  void onNewPointsTo(PtrId P, const PointsToSet &Delta);
  void onNewPFGEdge(PtrId Src, PtrId Dst, EdgeOrigin Origin);
  void onFixpoint();

private:
  // --- Store side ---

  /// A tempStore still travelling up the call chain: `Base.F = From` where
  /// Base/From are the KBase/KFrom-th parameters of the hosting method.
  struct PropStore {
    VarId Base;
    FieldId F;
    VarId From;
    uint32_t KBase;
    uint32_t KFrom;
  };
  /// A tempStore that anchored: shortcut `From -> o.F` for o in pt(Base).
  struct TerminalStore {
    FieldId F;
    VarId From;
  };

  void addTempStore(MethodId InMethod, VarId Base, FieldId F, VarId From);
  void propagateStoreToCaller(const PropStore &PS, const Stmt &CallStmt);

  // Tables keyed by one id are SlotTables: an empty entry means "none",
  // which is the fast reject on the per-pointer hooks.
  SlotTable<std::vector<PropStore>> PropagatingStores; ///< By MethodId.
  /// Dedup of tempStores: (Base, From) -> fields already handled.
  std::unordered_map<std::pair<uint32_t, uint32_t>,
                     std::unordered_set<FieldId>, PairHash>
      SeenTempStores;

  // --- Load side ---

  /// One qualifying (possibly temp) load feeding a cut return variable:
  /// values of BaseVar (the KBase-th parameter / the call argument) are
  /// loaded through field F.
  struct LoadEntry {
    uint32_t KBase;
    FieldId F;
    VarId BaseVar;
  };
  /// A tempLoad that anchored at a call site: shortcut `o.F -> Target`
  /// for o in pt of the base argument.
  struct TerminalLoad {
    FieldId F;
    VarId Target;
  };

  void registerCutLoadVar(MethodId M, VarId RetV, LoadEntry E);
  void processLoadCallEdge(const Stmt &CallStmt, MethodId Callee);
  bool isReturnLoadEdge(VarId RetV, PtrId Src) const;
  void markNestedCandidates(MethodId M);

  /// A cut return variable: its qualifying loads, the sources of its
  /// non-returnLoad in-edges, and the call-site LHS pointers those are
  /// relayed to ([RelayEdge]).
  struct CutLoadRet {
    std::vector<LoadEntry> Loads;
    std::vector<PtrId> NonRLEIn;
    std::vector<PtrId> RelayTargets;
  };
  SlotTable<CutLoadRet> CutLoadRets; ///< By cut return VarId.
  /// packPair(cut return, pointer) dedups of NonRLEIn and RelayTargets.
  FlatSet NonRLESeen;
  FlatSet RelaySeen;
  SlotTable<std::vector<VarId>> CutLoadVarsByMethod; ///< By MethodId.
  /// The tempStores and tempLoads anchored at one base variable.
  struct Terminals {
    std::vector<TerminalStore> Stores;
    std::vector<TerminalLoad> Loads;
  };
  SlotTable<Terminals> TerminalByBase; ///< By base VarId.
  /// Dedup of tempLoads: (Target, Base) -> fields already handled.
  std::unordered_map<std::pair<uint32_t, uint32_t>,
                     std::unordered_set<FieldId>, PairHash>
      SeenTempLoads;
  /// Deferred-return bookkeeping, by invoke StmtId: the deferred LHS
  /// variable whose fate the invoke's resolution decides (InvalidId: none).
  std::vector<VarId> FlushOnResolve;
  /// Chains: a deferred variable waiting on a callee return variable that
  /// is itself still deferred (3+-level nested accessors).
  struct DeferDep {
    StmtId CallStmt;
    MethodId Callee;
    VarId Var;
  };
  SlotTable<std::vector<DeferDep>> DeferDeps; ///< By awaited VarId.
  std::vector<VarId> DeferredRegistry;

  void decideDeferred(StmtId CallStmt, MethodId Callee, VarId V);
  void undeferAndNotify(VarId V);
  void resolveDependents(VarId V);

  CscState &St;
  bool HandleStores;
  bool HandleLoads;
};

} // namespace csc

#endif // CSC_CSC_FIELDACCESSPATTERN_H
