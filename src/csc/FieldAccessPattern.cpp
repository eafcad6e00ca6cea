//===- FieldAccessPattern.cpp - §3.2 / Figs. 8–9 --------------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "csc/FieldAccessPattern.h"

#include <utility>

using namespace csc;

void FieldAccessPattern::onNewMethod(MethodId M) {
  const Program &P = St.S->program();
  const MethodInfo &MI = P.method(M);
  for (StmtId SId : MI.AllStmts) {
    const Stmt &S = P.stmt(SId);
    if (HandleStores && S.Kind == StmtKind::Store) {
      // [CutStore]: both base and source are never-redefined parameters.
      uint32_t KBase = St.paramIndexOf(M, S.Base);
      uint32_t KFrom = St.paramIndexOf(M, S.From);
      if (KBase != InvalidId && KFrom != InvalidId) {
        St.cutStore(SId);
        St.involve(M);
        addTempStore(M, S.Base, S.Field, S.From);
      }
    }
    if (HandleLoads && S.Kind == StmtKind::Load) {
      // [CutPropLoad] innermost case: base is a never-redefined parameter
      // and the target is a return variable.
      uint32_t KBase = St.paramIndexOf(M, S.Base);
      if (KBase != InvalidId && St.isRetVar(M, S.To))
        registerCutLoadVar(M, S.To, {KBase, S.Field, S.Base});
    }
  }
  if (HandleLoads)
    markNestedCandidates(M);
}

void FieldAccessPattern::markNestedCandidates(MethodId M) {
  // A return variable defined by an invoke that passes a never-redefined
  // parameter may become a cut return once the callee's tempLoads
  // propagate ([CutPropLoad] recursion). Its return edges are withheld
  // until the first such call edge decides; undecided edges are flushed.
  const Program &P = St.S->program();
  const MethodInfo &MI = P.method(M);
  for (VarId RV : MI.RetVars) {
    if (St.S->isCutReturn(RV))
      continue;
    for (StmtId D : P.var(RV).Defs) {
      const Stmt &DS = P.stmt(D);
      if (DS.Kind != StmtKind::Invoke || DS.To != RV)
        continue;
      bool HasParamArg = false;
      size_t NArgs = P.numCallArgs(DS);
      for (size_t K = 0; K != NArgs && !HasParamArg; ++K) {
        VarId Arg = P.callArg(DS, K);
        HasParamArg = Arg != InvalidId && St.paramIndexOf(M, Arg) != InvalidId;
      }
      if (!HasParamArg)
        continue;
      if (!St.S->isDeferredReturn(RV))
        DeferredRegistry.push_back(RV);
      St.S->addDeferredReturn(RV);
      if (denseGet(FlushOnResolve, D, InvalidId) == InvalidId)
        denseAssign(FlushOnResolve, D, RV, InvalidId);
    }
  }
}

void FieldAccessPattern::decideDeferred(StmtId CallStmt, MethodId Callee,
                                        VarId V) {
  // V's return edges are withheld. This call edge (one of V's defining
  // invokes) was a chance for V to become a nested cut return. Outcomes:
  //  * V got cut (registerCutLoadVar fired) — the solver cleared the
  //    deferral and the shortcut machinery covers V's flows;
  //  * the callee's own return variables are still deferred — their fate
  //    decides V's, so wait ([CutPropLoad] chains of depth >= 3);
  //  * otherwise — V cannot be cut through this edge; flush the withheld
  //    return edges (soundness requires them).
  if (!St.S->isDeferredReturn(V))
    return;
  bool Wait = false;
  for (VarId RV : St.S->program().method(Callee).RetVars)
    if (RV != V && St.S->isDeferredReturn(RV)) {
      DeferDeps[RV].push_back({CallStmt, Callee, V});
      Wait = true;
    }
  if (!Wait)
    undeferAndNotify(V);
}

void FieldAccessPattern::undeferAndNotify(VarId V) {
  St.S->undeferReturn(V);
  resolveDependents(V);
}

void FieldAccessPattern::resolveDependents(VarId V) {
  if (DeferDeps.lookup(V).empty())
    return;
  std::vector<DeferDep> Deps = std::exchange(DeferDeps[V], {});
  for (const DeferDep &D : Deps)
    decideDeferred(D.CallStmt, D.Callee, D.Var);
}

void FieldAccessPattern::onFixpoint() {
  // Cycle breaker: deferred variables whose deciding chain never resolved
  // (mutually recursive pass-through wrappers). At a fixpoint no further
  // cut can be discovered without new flows, so flushing is the sound
  // default; the solver resumes to propagate the flushed edges.
  std::vector<VarId> Registry = DeferredRegistry;
  for (VarId V : Registry)
    if (St.S->isDeferredReturn(V))
      undeferAndNotify(V);
}

//===----------------------------------------------------------------------===//
// Store side
//===----------------------------------------------------------------------===//

void FieldAccessPattern::addTempStore(MethodId InMethod, VarId Base,
                                      FieldId F, VarId From) {
  if (!SeenTempStores[{Base, From}].insert(F).second)
    return;
  uint32_t KBase = St.paramIndexOf(InMethod, Base);
  uint32_t KFrom = St.paramIndexOf(InMethod, From);
  if (KBase != InvalidId && KFrom != InvalidId) {
    // [PropStore]: both operands are pass-through parameters; the temp
    // store travels to every (current and future) caller.
    PropStore PS{Base, F, From, KBase, KFrom};
    PropagatingStores[InMethod].push_back(PS);
    CallGraph &CG = St.S->callGraph();
    const Program &P = St.S->program();
    CSMethodId CSM =
        CG.getCSMethod(InMethod, St.S->ctxManager().empty());
    // Copy: propagation may add further callers while we iterate.
    std::vector<CSCallSiteId> Callers = CG.callersOf(CSM);
    for (CSCallSiteId CS : Callers) {
      const Stmt &CallStmt = P.stmt(P.callSite(CG.csCallSite(CS).CS).S);
      propagateStoreToCaller(PS, CallStmt);
    }
    return;
  }
  // [ShortcutStore]: anchored — emit `From -> o.F` for o in pt(Base), now
  // and as pt(Base) grows.
  St.involveVar(Base);
  St.involveVar(From);
  TerminalByBase[Base].Stores.push_back({F, From});
  PtrId BasePtr = St.S->varPtrCI(Base);
  PtrId FromPtr = St.S->varPtrCI(From);
  const CSManager &CSM = St.S->csManager();
  St.S->ptsOf(BasePtr).forEach([&](CSObjId O) {
    St.shortcut(FromPtr,
                St.S->fieldPtrCI(CSM.csObj(O).O, F));
  });
}

void FieldAccessPattern::propagateStoreToCaller(const PropStore &PS,
                                                const Stmt &CallStmt) {
  const Program &P = St.S->program();
  VarId CallerBase = P.callArg(CallStmt, PS.KBase);
  VarId CallerFrom = P.callArg(CallStmt, PS.KFrom);
  if (CallerBase == InvalidId || CallerFrom == InvalidId)
    return; // Arity mismatch: no values flow through these parameters.
  addTempStore(CallStmt.Method, CallerBase, PS.F, CallerFrom);
}

//===----------------------------------------------------------------------===//
// Load side
//===----------------------------------------------------------------------===//

void FieldAccessPattern::registerCutLoadVar(MethodId M, VarId RetV,
                                            LoadEntry E) {
  if (!SeenTempLoads[{RetV, E.BaseVar}].insert(E.F).second)
    return;
  std::vector<LoadEntry> &Loads = CutLoadRets[RetV].Loads;
  bool First = Loads.empty();
  Loads.push_back(E);
  if (First) {
    St.cutReturn(RetV);
    St.involve(M);
    CutLoadVarsByMethod[M].push_back(RetV);
    // Classify in-edges that already exist (the nested-discovery case,
    // where RetV was cut after its method was analyzed).
    PtrId RetPtr = St.S->varPtrCI(RetV);
    std::vector<PtrId> Preds = St.S->pfg().pred(RetPtr);
    for (PtrId Src : Preds) {
      if (isReturnLoadEdge(RetV, Src))
        continue;
      if (NonRLESeen.insert(packPair(RetV, Src)).second)
        CutLoadRets[RetV].NonRLEIn.push_back(Src);
    }
    // Re-process existing call edges of M for this newly cut variable.
    CallGraph &CG = St.S->callGraph();
    const Program &P = St.S->program();
    CSMethodId CSM = CG.getCSMethod(M, St.S->ctxManager().empty());
    std::vector<CSCallSiteId> Callers = CG.callersOf(CSM);
    for (CSCallSiteId CS : Callers) {
      const Stmt &CallStmt = P.stmt(P.callSite(CG.csCallSite(CS).CS).S);
      processLoadCallEdge(CallStmt, M);
    }
    // Deferred variables waiting on RetV's fate can now be decided (the
    // nested registration above may have cut them; otherwise they flush).
    resolveDependents(RetV);
  }
}

bool FieldAccessPattern::isReturnLoadEdge(VarId RetV, PtrId Src) const {
  const PtrInfo &PI = St.S->csManager().ptr(Src);
  if (PI.Kind != PtrKind::Field)
    return false;
  for (const LoadEntry &E : CutLoadRets.lookup(RetV).Loads) {
    if (E.F != PI.B)
      continue;
    // Src is o.F; it is a returnLoadEdge if o came through the qualifying
    // load's base ([CutPropLoad]'s o_n ∈ pt(base)).
    PtrId BasePtr = St.S->varPtrCI(E.BaseVar);
    if (St.S->ptsOf(BasePtr).contains(PI.A))
      return true;
  }
  return false;
}

void FieldAccessPattern::processLoadCallEdge(const Stmt &CallStmt,
                                             MethodId Callee) {
  // Copy: nested registration can invalidate iterators.
  std::vector<VarId> Vars = CutLoadVarsByMethod.lookup(Callee);
  if (Vars.empty() || CallStmt.To == InvalidId)
    return;
  const Program &P = St.S->program();
  PtrId TargetPtr = St.S->varPtrCI(CallStmt.To);
  for (VarId RetV : Vars) {
    // [RelayEdge]: non-returnLoad in-edges of RetV flow to this LHS.
    if (RelaySeen.insert(packPair(RetV, TargetPtr)).second) {
      CutLoadRets[RetV].RelayTargets.push_back(TargetPtr);
      std::vector<PtrId> Srcs = CutLoadRets.lookup(RetV).NonRLEIn;
      for (PtrId Src : Srcs)
        St.shortcut(Src, TargetPtr);
    }
    std::vector<LoadEntry> Entries = CutLoadRets.lookup(RetV).Loads;
    for (const LoadEntry &E : Entries) {
      VarId ArgVar = P.callArg(CallStmt, E.KBase);
      if (ArgVar == InvalidId)
        continue;
      // tempLoad ⟨CallStmt.To, ArgVar, E.F⟩.
      if (!SeenTempLoads[{CallStmt.To, ArgVar}].insert(E.F).second)
        continue;
      St.involveVar(ArgVar);
      St.involveVar(CallStmt.To);
      // [ShortcutLoad]: o.F -> lhs for o in pt(ArgVar), now and later.
      TerminalByBase[ArgVar].Loads.push_back({E.F, CallStmt.To});
      PtrId ArgPtr = St.S->varPtrCI(ArgVar);
      const CSManager &CSMgr = St.S->csManager();
      FieldId F = E.F;
      St.S->ptsOf(ArgPtr).forEach([&](CSObjId O) {
        St.shortcut(St.S->fieldPtrCI(CSMgr.csObj(O).O, F), TargetPtr);
      });
      // [CutPropLoad] recursion: the LHS is itself a return variable fed
      // by a pass-through parameter -> cut the caller too. We must re-add
      // the dedup slot first; registerCutLoadVar re-checks it.
      MethodId CallerM = CallStmt.Method;
      uint32_t KArg = St.paramIndexOf(CallerM, ArgVar);
      if (KArg != InvalidId && St.isRetVar(CallerM, CallStmt.To)) {
        SeenTempLoads[{CallStmt.To, ArgVar}].erase(E.F);
        registerCutLoadVar(CallerM, CallStmt.To, {KArg, E.F, ArgVar});
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Hook plumbing
//===----------------------------------------------------------------------===//

void FieldAccessPattern::onNewCallEdge(CSCallSiteId CS, CSMethodId Callee) {
  const Program &P = St.S->program();
  CallGraph &CG = St.S->callGraph();
  MethodId M = CG.csMethod(Callee).M;
  StmtId CallSId = P.callSite(CG.csCallSite(CS).CS).S;
  const Stmt &CallStmt = P.stmt(CallSId);

  if (HandleStores) {
    std::vector<PropStore> Stores = PropagatingStores.lookup(M);
    for (const PropStore &PS : Stores)
      propagateStoreToCaller(PS, CallStmt);
  }
  if (HandleLoads) {
    processLoadCallEdge(CallStmt, M);
    VarId Deferred = denseGet(FlushOnResolve, CallSId, InvalidId);
    if (Deferred != InvalidId)
      decideDeferred(CallSId, M, Deferred);
  }
}

void FieldAccessPattern::onNewPointsTo(PtrId Pr, const PointsToSet &Delta) {
  const PtrInfo &PI = St.S->csManager().ptr(Pr);
  if (PI.Kind != PtrKind::Var)
    return;
  VarId V = PI.A;
  const CSManager &CSMgr = St.S->csManager();
  // Copy: shortcut() re-enters the plugin's hooks. Stores are only added
  // with HandleStores, loads only with HandleLoads.
  Terminals T = TerminalByBase.lookup(V);
  for (const TerminalStore &TS : T.Stores) {
    PtrId FromPtr = St.S->varPtrCI(TS.From);
    Delta.forEach([&](CSObjId O) {
      St.shortcut(FromPtr, St.S->fieldPtrCI(CSMgr.csObj(O).O, TS.F));
    });
  }
  for (const TerminalLoad &TL : T.Loads) {
    PtrId TargetPtr = St.S->varPtrCI(TL.Target);
    Delta.forEach([&](CSObjId O) {
      St.shortcut(St.S->fieldPtrCI(CSMgr.csObj(O).O, TL.F), TargetPtr);
    });
  }
}

void FieldAccessPattern::onNewPFGEdge(PtrId Src, PtrId Dst,
                                      EdgeOrigin Origin) {
  if (!HandleLoads)
    return;
  (void)Origin;
  const PtrInfo &PI = St.S->csManager().ptr(Dst);
  if (PI.Kind != PtrKind::Var)
    return;
  VarId V = PI.A;
  if (CutLoadRets.lookup(V).Loads.empty() || isReturnLoadEdge(V, Src))
    return;
  if (!NonRLESeen.insert(packPair(V, Src)).second)
    return;
  CutLoadRets[V].NonRLEIn.push_back(Src);
  std::vector<PtrId> Targets = CutLoadRets.lookup(V).RelayTargets;
  for (PtrId T : Targets)
    St.shortcut(Src, T);
}
