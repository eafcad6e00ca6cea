//===- Solver.cpp - Worklist pointer-analysis solver ----------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "pta/Solver.h"

#include <algorithm>
#include <cassert>
#include <tuple>

using namespace csc;

ContextSelector::~ContextSelector() = default;

SolverPlugin::~SolverPlugin() = default;
void SolverPlugin::onStart(Solver &) {}
void SolverPlugin::onNewMethod(CSMethodId) {}
void SolverPlugin::onNewPointsTo(PtrId, const PointsToSet &) {}
void SolverPlugin::onNewCallEdge(CSCallSiteId, CSMethodId) {}
void SolverPlugin::onNewPFGEdge(PtrId, PtrId, EdgeOrigin) {}
void SolverPlugin::onFixpoint() {}
void SolverPlugin::onFinish() {}

Solver::Solver(const Program &P, SolverOptions Opts) : P(P), Opts(Opts) {
  if (Opts.Selector) {
    Selector = Opts.Selector;
  } else {
    DefaultSelector = std::make_unique<CISelector>();
    Selector = DefaultSelector.get();
  }
  CutStores.assign(P.numStmts(), 0);
  CutReturns.assign(P.numVars(), 0);

  // Capacity hints proportional to program size for the per-pointer
  // tables and the PFG's node tables.
  CSM.reserveHint(P.numVars(), P.numObjs());
  PFG.reserveHint(P.numVars());

  if (Opts.CycleElimination) {
    Scc = std::make_unique<SccCollapser>(PFG);
    Scc->reserveHint(P.numVars());
  }

  // Index statements by their base variable so points-to growth of a base
  // triggers exactly the dependent loads/stores/calls.
  indexBaseUses(0);
}

void Solver::indexBaseUses(StmtId Begin) {
  BaseUses.resize(P.numVars());
  for (StmtId S = Begin; S < P.numStmts(); ++S) {
    const Stmt &St = P.stmt(S);
    switch (St.Kind) {
    case StmtKind::Load:
    case StmtKind::Store:
    case StmtKind::ArrayLoad:
    case StmtKind::ArrayStore:
      BaseUses[St.Base].push_back(S);
      break;
    case StmtKind::Invoke:
      if (St.IKind != InvokeKind::Static)
        BaseUses[St.Base].push_back(S);
      break;
    default:
      break;
    }
  }
}

Solver::~Solver() = default;

void Solver::addCutStore(StmtId S) {
  assert(S < CutStores.size() && "cutStore id out of range");
  CutStores[S] = 1;
}

void Solver::addCutReturn(VarId V) {
  assert(V < CutReturns.size() && "cutReturn id out of range");
  CutReturns[V] = 1;
  // Withheld return edges are superseded by the plugin's shortcut/relay
  // edges; drop them.
  if (isDeferredReturn(V)) {
    DeferredReturns[V] = 0;
    PendingReturnTargets.erase(V);
  }
}

void Solver::addDeferredReturn(VarId V) {
  if (isCutReturn(V))
    return;
  if (V >= DeferredReturns.size())
    DeferredReturns.resize(P.numVars(), 0);
  DeferredReturns[V] = 1;
}

void Solver::undeferReturn(VarId V) {
  if (!isDeferredReturn(V))
    return;
  DeferredReturns[V] = 0;
  auto It = PendingReturnTargets.find(V);
  if (It == PendingReturnTargets.end())
    return;
  std::vector<PtrId> Targets = std::move(It->second);
  PendingReturnTargets.erase(It);
  PtrId RetPtr = varPtrCI(V);
  for (PtrId T : Targets)
    addPFGEdge(RetPtr, T, InvalidId, EdgeOrigin::Return);
}

bool Solver::addShortcutEdge(PtrId Src, PtrId Dst) {
  // The key set doubles as the dedup: patterns re-derive the same
  // shortcut for every points-to delta, and a repeat means the PFG edge
  // was already added by the first call.
  if (!ShortcutEdgeKeys.insert(packPair(Src, Dst)).second)
    return false;
  return addPFGEdge(Src, Dst, InvalidId, EdgeOrigin::Shortcut);
}

void Solver::ensurePtr(PtrId Pr) {
  if (Pr >= Pts.size()) {
    Pts.resize(Pr + 1);
    PendingSlot.resize(Pr + 1, InvalidId);
    InQueue.resize(Pr + 1, 0);
  }
}

PointsToSet &Solver::pendingOf(PtrId Rep) {
  uint32_t &Slot = PendingSlot[Rep];
  if (Slot == InvalidId) {
    if (FreePending.empty()) {
      Slot = static_cast<uint32_t>(PendingPool.size());
      PendingPool.emplace_back();
    } else {
      Slot = FreePending.back();
      FreePending.pop_back();
    }
  }
  return PendingPool[Slot];
}

void Solver::releasePending(PtrId Rep) {
  uint32_t &Slot = PendingSlot[Rep];
  if (Slot == InvalidId)
    return;
  PendingPool[Slot] = PointsToSet();
  FreePending.push_back(Slot);
  Slot = InvalidId;
}

void Solver::markDirty(PtrId Pr) {
  // Pr is a representative (enqueue paths remap before calling). New
  // entries always join the next sweep; refillWorklist orders them.
  ensurePtr(Pr);
  if (!InQueue[Pr]) {
    InQueue[Pr] = 1;
    Next.push_back(Pr);
  }
}

void Solver::refillWorklist() {
  // Seal the next sweep in approximate topological order. Entries are
  // remapped through their representative for ordering (a collapse may
  // have absorbed them since they were pushed); ties break on the raw id
  // so runs are deterministic.
  std::sort(Next.begin(), Next.end(), [this](PtrId A, PtrId B) {
    uint32_t OA = Scc ? Scc->order(Scc->rep(A)) : A;
    uint32_t OB = Scc ? Scc->order(Scc->rep(B)) : B;
    if (OA != OB)
      return OA < OB;
    return A < B;
  });
  Current.swap(Next);
  Next.clear();
  Cursor = 0;
}

const PointsToSet &Solver::filterMask(TypeId Filter) {
  if (Filter >= FilterMasks.size()) {
    FilterMasks.resize(Filter + 1);
    FilterMaskCover.resize(Filter + 1, 0);
  }
  PointsToSet &M = FilterMasks[Filter];
  uint32_t N = CSM.numCSObjs();
  uint32_t &Covered = FilterMaskCover[Filter];
  if (Covered < N) {
    M.ensureBitmap();
    for (CSObjId O = Covered; O < N; ++O)
      if (P.isSubtype(P.obj(CSM.csObj(O).O).Type, Filter))
        M.insert(O);
    Covered = N;
  }
  return M;
}

void Solver::enqueueObj(PtrId Pr, CSObjId O) {
  Pr = repOf(Pr);
  ensurePtr(Pr);
  if (Opts.DeltaPropagation) {
    if (Pts[Pr].contains(O))
      return;
    if (pendingOf(Pr).insert(O))
      markDirty(Pr);
    return;
  }
  if (Pts[Pr].insert(O)) {
    // Logical work counter: the fact lands on every member of the class.
    Stats.PtsInsertions += classSizeOf(Pr);
    markDirty(Pr);
  }
}

void Solver::enqueueSet(PtrId Pr, const PointsToSet &Set, TypeId Filter) {
  Pr = repOf(Pr);
  ensurePtr(Pr);
  if (Opts.DeltaPropagation) {
    // Pending |= (Set ∩ mask) ∖ Pts: one word-parallel pass; only
    // genuinely new facts queue work (and keep a pool entry).
    const PointsToSet *Mask = Filter == InvalidId ? nullptr
                                                  : &filterMask(Filter);
    PointsToSet &Pend = pendingOf(Pr);
    uint32_t Added = Mask ? Pend.unionWithFiltered(Set, *Mask, Pts[Pr])
                          : Pend.unionWithExcluding(Set, Pts[Pr]);
    if (Added)
      markDirty(Pr);
    else if (Pend.empty())
      releasePending(Pr);
    return;
  }
  uint32_t Added = Filter == InvalidId
                       ? Pts[Pr].unionWith(Set)
                       : Pts[Pr].unionWithFiltered(Set, filterMask(Filter));
  if (Added) {
    Stats.PtsInsertions += static_cast<uint64_t>(Added) * classSizeOf(Pr);
    markDirty(Pr);
  }
}

bool Solver::addPFGEdge(PtrId Src, PtrId Dst, TypeId Filter,
                        EdgeOrigin Origin) {
  // The original-pointer PFG stays the system of record: it dedups on
  // un-collapsed endpoints, serves plugin pred()/succ() queries and graph
  // dumps, and keeps Stats.PFGEdges independent of collapsing.
  if (!PFG.addEdge(Src, Dst, Filter))
    return false;
  ++Stats.PFGEdges;
  ensurePtr(std::max(Src, Dst));
  for (SolverPlugin *Pl : Plugins)
    Pl->onNewPFGEdge(Src, Dst, Origin);

  if (!Scc) {
    const PointsToSet &SrcPts = ptsOf(Src);
    if (!SrcPts.empty())
      enqueueSet(Dst, SrcPts, Filter);
    return true;
  }

  // Propagation runs on the representative view of this edge. An
  // intra-class edge carries no flow (the class shares one set).
  Scc->noteEdge(Src, Dst);
  PtrId RS = Scc->rep(Src), RT = Scc->rep(Dst);
  if (RS == RT)
    return true;
  const PointsToSet &SrcPts = Pts[RS];
  if (!SrcPts.empty())
    enqueueSet(RT, SrcPts, Filter);
  return true;
}

void Solver::addReachable(MethodId M, CtxId C) {
  CSMethodId CSMth = CG.getCSMethod(M, C);
  if (!CG.addReachable(CSMth))
    return;
  for (SolverPlugin *Pl : Plugins)
    Pl->onNewMethod(CSMth);

  const MethodInfo &MI = P.method(M);
  for (StmtId SId : MI.AllStmts)
    seedStmt(P.stmt(SId), C);
}

bool Solver::seedStmt(const Stmt &S, CtxId C) {
  switch (S.Kind) {
  case StmtKind::New:
  case StmtKind::NewArray: {
    CtxId HCtx = Selector->selectHeap(CM, C, S.Obj);
    CSObjId O = CSM.getCSObj(S.Obj, HCtx);
    enqueueObj(varPtr(S.To, C), O);
    return true;
  }
  case StmtKind::Assign:
    addPFGEdge(varPtr(S.From, C), varPtr(S.To, C), InvalidId,
               EdgeOrigin::Assign);
    return true;
  case StmtKind::Cast:
    addPFGEdge(varPtr(S.From, C), varPtr(S.To, C), S.Type,
               EdgeOrigin::Cast);
    return true;
  case StmtKind::StaticLoad:
    addPFGEdge(CSM.getStaticPtr(S.Field), varPtr(S.To, C), InvalidId,
               EdgeOrigin::StaticLoad);
    return true;
  case StmtKind::StaticStore:
    addPFGEdge(varPtr(S.From, C), CSM.getStaticPtr(S.Field), InvalidId,
               EdgeOrigin::StaticStore);
    return true;
  case StmtKind::Invoke: {
    if (S.IKind != InvokeKind::Static)
      return false;
    MethodId Callee = S.DirectCallee;
    assert(Callee != InvalidId && "unresolved static call");
    CtxId CalleeCtx = Selector->selectStatic(CM, C, S.CallSite, Callee);
    CSCallSiteId CS = CG.getCSCallSite(S.CallSite, C);
    CSMethodId CSCallee = CG.getCSMethod(Callee, CalleeCtx);
    if (CG.addEdge(CS, CSCallee))
      processCallEdge(CS, CSCallee, S, C, CalleeCtx);
    return true;
  }
  case StmtKind::Load:
  case StmtKind::Store:
  case StmtKind::ArrayLoad:
  case StmtKind::ArrayStore:
  case StmtKind::Return:
  case StmtKind::If:
    return false; // Driven by points-to growth / call edges.
  }
  return false;
}

void Solver::processCallEdge(CSCallSiteId CS, CSMethodId Callee,
                             const Stmt &S, CtxId CallerCtx,
                             CtxId CalleeCtx) {
  ++Stats.CallEdgesCS;
  MethodId M = CG.csMethod(Callee).M;
  addReachable(M, CalleeCtx);
  for (SolverPlugin *Pl : Plugins)
    Pl->onNewCallEdge(CS, Callee);

  const MethodInfo &MI = P.method(M);
  size_t FirstParam = MI.IsStatic ? 0 : 1;
  size_t NParams = MI.Params.size() - FirstParam;
  for (size_t K = 0; K < S.Args.size() && K < NParams; ++K)
    addPFGEdge(varPtr(S.Args[K], CallerCtx),
               varPtr(MI.Params[FirstParam + K], CalleeCtx), InvalidId,
               EdgeOrigin::Param);

  // [Return]: suppressed for return variables in cutReturns; withheld for
  // deferred ones (nested [CutPropLoad] candidates).
  if (S.To != InvalidId)
    for (VarId RV : MI.RetVars) {
      if (isCutReturn(RV))
        continue;
      if (isDeferredReturn(RV)) {
        PendingReturnTargets[RV].push_back(varPtr(S.To, CallerCtx));
        continue;
      }
      addPFGEdge(varPtr(RV, CalleeCtx), varPtr(S.To, CallerCtx), InvalidId,
                 EdgeOrigin::Return);
    }
}

void Solver::processCallOnReceiver(const Stmt &S, CtxId CallerCtx,
                                   CSObjId Recv) {
  MethodId Callee;
  if (S.IKind == InvokeKind::Virtual) {
    Callee = P.dispatch(P.obj(CSM.csObj(Recv).O).Type, S.Subsig);
    if (Callee == InvalidId)
      return; // No concrete target (e.g. spurious receiver filtered later).
  } else {
    Callee = S.DirectCallee;
    assert(Callee != InvalidId && "unresolved special call");
  }
  CtxId CalleeCtx = Selector->select(CM, CSM, P, CallerCtx, S.CallSite, Recv,
                                     Callee);
  // Bind the receiver object to `this` of the callee.
  const MethodInfo &MI = P.method(Callee);
  if (!MI.IsStatic)
    enqueueObj(varPtr(MI.Params[0], CalleeCtx), Recv);

  CSCallSiteId CS = CG.getCSCallSite(S.CallSite, CallerCtx);
  CSMethodId CSCallee = CG.getCSMethod(Callee, CalleeCtx);
  if (CG.addEdge(CS, CSCallee))
    processCallEdge(CS, CSCallee, S, CallerCtx, CalleeCtx);
}

void Solver::processPointer(PtrId Pr, const PointsToSet &Delta) {
  const PtrInfo &PI = CSM.ptr(Pr);
  if (PI.Kind == PtrKind::Var) {
    VarId V = PI.A;
    CtxId C = PI.B;
    for (StmtId SId : BaseUses[V])
      processBaseUse(P.stmt(SId), SId, C, Delta);
  }
  for (SolverPlugin *Pl : Plugins)
    Pl->onNewPointsTo(Pr, Delta);
}

void Solver::processBaseUse(const Stmt &S, StmtId SId, CtxId C,
                            const PointsToSet &Delta) {
  switch (S.Kind) {
  case StmtKind::Load: {
    PtrId To = varPtr(S.To, C); // Loop-invariant: intern once.
    Delta.forEach([&](CSObjId O) {
      addPFGEdge(fieldPtr(O, S.Field), To, InvalidId, EdgeOrigin::Load);
    });
    break;
  }
  case StmtKind::Store:
    // [Store]: suppressed for statements in cutStores.
    if (!isCutStore(SId)) {
      PtrId From = varPtr(S.From, C);
      Delta.forEach([&](CSObjId O) {
        addPFGEdge(From, fieldPtr(O, S.Field), InvalidId,
                   EdgeOrigin::Store);
      });
    }
    break;
  case StmtKind::ArrayLoad: {
    PtrId To = varPtr(S.To, C);
    Delta.forEach([&](CSObjId O) {
      if (!P.obj(CSM.csObj(O).O).IsArray)
        return;
      addPFGEdge(CSM.getArrayPtr(O), To, InvalidId, EdgeOrigin::ArrayLoad);
    });
    break;
  }
  case StmtKind::ArrayStore: {
    PtrId From = varPtr(S.From, C);
    Delta.forEach([&](CSObjId O) {
      const ObjInfo &OI = P.obj(CSM.csObj(O).O);
      if (!OI.IsArray)
        return;
      // Runtime array-store check: filter by the array's element type.
      addPFGEdge(From, CSM.getArrayPtr(O), P.type(OI.Type).ArrayElem,
                 EdgeOrigin::ArrayStore);
    });
    break;
  }
  case StmtKind::Invoke:
    Delta.forEach([&](CSObjId O) { processCallOnReceiver(S, C, O); });
    break;
  default:
    break;
  }
}

void Solver::propagateAlongEdges(PtrId Rep, const PointsToSet &Set) {
  // The representative's out-edges are the union of its members' original
  // PFG out-edges (the collapsed graph is a view, not a copy — see
  // SccCollapser.h). Intra-class targets remap to Rep and diff to
  // nothing; enqueueSet remaps every target through its representative.
  if (!Scc) {
    for (const PFGEdge &E : PFG.succ(Rep))
      enqueueSet(E.To, Set, E.Filter);
    return;
  }
  const std::vector<PtrId> *Members = Scc->membersOrNull(Rep);
  if (!Members) {
    for (const PFGEdge &E : PFG.succ(Rep))
      enqueueSet(E.To, Set, E.Filter);
    return;
  }
  // Most of a collapsed class's edges point back into the class (that is
  // what made it a class); skip them up front instead of paying a no-op
  // word-parallel diff against the class's own set per edge per delta.
  for (PtrId M : *Members)
    for (const PFGEdge &E : PFG.succ(M))
      if (repOf(E.To) != Rep)
        enqueueSet(E.To, Set, E.Filter);
}

void Solver::processClass(PtrId Rep, const PointsToSet &Delta) {
  const std::vector<PtrId> *Members = Scc ? Scc->membersOrNull(Rep) : nullptr;
  if (!Members) {
    processPointer(Rep, Delta);
    return;
  }
  // Un-collapsed view for statements and plugins: the delta reaches every
  // member pointer, exactly as if each still carried its own set.
  // Collapses happen only between pops, so the member list is stable.
  for (PtrId M : *Members)
    processPointer(M, Delta);
}

void Solver::collapseClass(std::vector<PtrId> Classes) {
  // Ascending ids, so the union-find elects the same winner every run.
  std::sort(Classes.begin(), Classes.end());

  // (a) Semantic snapshot: the merged set, and per class the catch-up
  // delta its members are missing plus the member list (mergeClass
  // rewires both). Pending work and queue flags consolidate on the
  // winner; stale worklist entries die at pop via the cleared flags.
  PtrId MaxRep = 0;
  for (PtrId C : Classes)
    MaxRep = std::max(MaxRep, C);
  ensurePtr(MaxRep);

  PointsToSet Merged;
  for (PtrId C : Classes)
    Merged.unionWith(Pts[C]);

  struct CatchUp {
    std::vector<PtrId> Members; ///< Snapshot (single element if lone).
    PointsToSet Delta;          ///< Merged ∖ the class's previous set.
  };
  std::vector<CatchUp> CatchUps;
  PointsToSet MergedPending;
  bool AnyQueued = false;
  for (PtrId C : Classes) {
    CatchUp CU;
    CU.Delta.unionWithExcluding(Merged, Pts[C]);
    if (!CU.Delta.empty()) {
      if (const std::vector<PtrId> *M = Scc->membersOrNull(C))
        CU.Members = *M;
      else
        CU.Members.push_back(C);
      CatchUps.push_back(std::move(CU));
    }
    if (PendingSlot[C] != InvalidId) {
      MergedPending.unionWith(PendingPool[PendingSlot[C]]);
      releasePending(C);
    }
    AnyQueued = AnyQueued || InQueue[C];
    InQueue[C] = 0;
  }

  // (b) Structural merge: union-find, member lists, orders, adjacency.
  PtrId W = Scc->mergeClass(Classes);
  Pts[W] = std::move(Merged);
  // Release the losing classes' storage outright (clear() would keep the
  // buffers): the slots are unreachable now — every reader remaps
  // through the representative — and a class built over many merges
  // would otherwise retain one dead bitmap per absorbed representative.
  for (PtrId C : Classes)
    if (C != W)
      Pts[C] = PointsToSet();
  bool HasPending = !MergedPending.empty();
  if (HasPending)
    pendingOf(W) = std::move(MergedPending);
  if (HasPending || (AnyQueued && !Opts.DeltaPropagation))
    markDirty(W);

  // (c) Fire the semantics of the merge. First flow the merged set along
  // the class's out-edges (every member's original out-edges; intra-class
  // targets diff to nothing) — targets that only saw one member's set now
  // receive the rest; the word-parallel diff at each target keeps this
  // cheap. Then replay the catch-up delta for every member whose class
  // was missing facts: statement reprocessing and plugin callbacks
  // observe exactly the growth a collapse-free run would have propagated
  // around the cycle. Logical insertions count per catching-up member.
  // Nested edge insertions self-propagate.
  propagateAlongEdges(W, Pts[W]);
  for (const CatchUp &CU : CatchUps) {
    Stats.PtsInsertions +=
        static_cast<uint64_t>(CU.Delta.size()) * CU.Members.size();
    Stats.Scc.PropagationsSaved +=
        static_cast<uint64_t>(CU.Delta.size()) * (CU.Members.size() - 1);
    for (PtrId M : CU.Members)
      processPointer(M, CU.Delta);
  }
}

void Solver::runFullSccPass() {
  std::vector<std::vector<PtrId>> Sccs;
  Scc->fullPass(Sccs, Stats.PtsInsertions);
  for (std::vector<PtrId> &Cycle : Sccs)
    collapseClass(std::move(Cycle));
}

PTAResult Solver::solve() {
  Clock.reset();

  for (SolverPlugin *Pl : Plugins)
    Pl->onStart(*this);

  assert(P.entry() != InvalidId && "program has no entry point");
  addReachable(P.entry(), CM.empty());

  runFixpointLoop();
  return finishRun();
}

PTAResult Solver::resolveIncrement(uint32_t OldNumStmts) {
  assert(canResume() &&
         "resolveIncrement requires a completed plugin-free run");
  Clock.reset();
  Solved = false;

  // Grow the per-entity tables to the post-delta program and index only
  // the new statements (additive deltas never touch existing ids).
  CutStores.resize(P.numStmts(), 0);
  CutReturns.resize(P.numVars(), 0);
  indexBaseUses(OldNumStmts);

  // Seed the worklist with the delta: replay every new statement of every
  // already-reachable (method, context). New methods need nothing here —
  // the resumed fixpoint discovers them through the call edges the
  // replays (and subsequent propagation) create, exactly as a cold run
  // would. Snapshot copy: replays extend the underlying reachable list.
  std::vector<CSMethodId> Snapshot = CG.reachableMethods();
  for (CSMethodId CSMth : Snapshot) {
    const CSMethodInfo &CSMI = CG.csMethod(CSMth);
    const MethodInfo &MI = P.method(CSMI.M);
    for (StmtId SId : MI.AllStmts)
      if (SId >= OldNumStmts)
        replayNewStmt(CSMth, P.stmt(SId), SId, CSMI.Ctx);
  }

  runFixpointLoop();
  return finishRun();
}

void Solver::replayNewStmt(CSMethodId CSMth, const Stmt &S, StmtId SId,
                           CtxId C) {
  if (seedStmt(S, C))
    return;
  switch (S.Kind) {
  case StmtKind::Invoke: {
    // A virtual call (seedStmt took the static ones). Receiver objects
    // discovered before the delta will never revisit this new site on
    // their own; replay them. Copy — dispatch may trigger collapses that
    // grow the base's set mid-iteration.
    PointsToSet Recv = ptsOf(varPtr(S.Base, C));
    if (!Recv.empty())
      processBaseUse(S, SId, C, Recv);
    break;
  }
  case StmtKind::Load:
  case StmtKind::Store:
  case StmtKind::ArrayLoad:
  case StmtKind::ArrayStore: {
    PointsToSet Base = ptsOf(varPtr(S.Base, C)); // Copy; see Invoke case.
    if (!Base.empty())
      processBaseUse(S, SId, C, Base);
    break;
  }
  case StmtKind::Return:
    // A new return statement in an already-reachable method: wire the
    // [Return] edges its *existing* call edges would have received in
    // processCallEdge (edges added after the delta pick the variable up
    // from the method's updated RetVars there).
    if (S.From != InvalidId && !isCutReturn(S.From)) {
      std::vector<CSCallSiteId> Callers = CG.callersOf(CSMth);
      for (CSCallSiteId CallerCS : Callers) {
        const CSCallSiteInfo &CSI = CG.csCallSite(CallerCS);
        const Stmt &Call = P.stmt(P.callSite(CSI.CS).S);
        if (Call.To == InvalidId)
          continue;
        if (isDeferredReturn(S.From)) {
          PendingReturnTargets[S.From].push_back(varPtr(Call.To, CSI.Ctx));
          continue;
        }
        addPFGEdge(varPtr(S.From, C), varPtr(Call.To, CSI.Ctx), InvalidId,
                   EdgeOrigin::Return);
      }
    }
    break;
  case StmtKind::New:
  case StmtKind::NewArray:
  case StmtKind::Assign:
  case StmtKind::Cast:
  case StmtKind::StaticLoad:
  case StmtKind::StaticStore: // seedStmt took these
  case StmtKind::If:
    break;
  }
}

void Solver::runFixpointLoop() {
  // Scratch sets reused across iterations (buffers survive clear()).
  PointsToSet Delta;
  PointsToSet FullSet;
  bool MoreRounds = true;
  while (MoreRounds) {
    while (true) {
      if (Cursor == Current.size()) {
        if (Next.empty())
          break;
        refillWorklist();
      }
      if (Stats.PtsInsertions > Opts.WorkBudget) {
        Exhausted = true;
        break;
      }
      if (Opts.TimeBudgetMs > 0 && (Stats.WorklistPops & 1023) == 0 &&
          Clock.elapsedMs() > Opts.TimeBudgetMs) {
        Exhausted = true;
        break;
      }
      // Scheduled cycle detection: a full Tarjan pass over the
      // representative graph (on edge growth and work milestones), which
      // also refreshes the worklist's topological order.
      if (Scc && Scc->fullPassDue(Stats.PtsInsertions))
        runFullSccPass();

      PtrId Pr = repOf(Current[Cursor++]);
      if (!InQueue[Pr])
        continue; // Stale entry: absorbed by a collapse, or a duplicate.
      InQueue[Pr] = 0;
      ++Stats.WorklistPops;

      if (Opts.DeltaPropagation) {
        // Merge the pending facts in one word-parallel union; Delta
        // receives exactly the genuinely new elements. The pool entry is
        // released, not cleared, so no drained bitmap outlives its facts.
        if (PendingSlot[Pr] == InvalidId)
          continue;
        uint32_t Added =
            Pts[Pr].unionWith(PendingPool[PendingSlot[Pr]], Delta);
        releasePending(Pr);
        if (!Added)
          continue;
        // Logical work counter: every member of the class gains Added
        // facts, so a completed run reports the same total with cycle
        // elimination on or off.
        uint32_t Members = classSizeOf(Pr);
        Stats.PtsInsertions += static_cast<uint64_t>(Added) * Members;
        if (Members > 1)
          Stats.Scc.PropagationsSaved +=
              static_cast<uint64_t>(Added) * (Members - 1);
        propagateAlongEdges(Pr, Delta);
        processClass(Pr, Delta);
      } else {
        // Full re-propagation (Doop-style): reprocess the complete set.
        // The snapshot is a word-level copy and the per-edge unions diff
        // against each target, so this mode measures the strategy's
        // re-processing cost, not per-element copy cost.
        if (Pts[Pr].empty())
          continue;
        FullSet = Pts[Pr];
        propagateAlongEdges(Pr, FullSet);
        processClass(Pr, FullSet);
      }
    }
    // Worklist drained (or budget hit): give plugins a chance to resolve
    // deferred work (e.g. flush withheld return edges); resume if they
    // added anything.
    if (Exhausted)
      break;
    // The fixpoint pass: at a drained worklist every cycle's members hold
    // equal sets, so collapsing costs no propagation, and a completed
    // solve leaves no unfiltered cycle uncollapsed.
    if (Scc && Scc->grewSincePass())
      runFullSccPass();
    for (SolverPlugin *Pl : Plugins)
      Pl->onFixpoint();
    MoreRounds = !Next.empty() || Cursor != Current.size();
  }
}

PTAResult Solver::finishRun() {
  for (SolverPlugin *Pl : Plugins)
    Pl->onFinish();

  PTAResult R;
  R.Exhausted = Exhausted;
  if (Scc) {
    // Merge the collapser-side counters; PropagationsSaved accumulated
    // solver-side (it depends on delta sizes the collapser never sees).
    const SccStats &CS = Scc->stats();
    Stats.Scc.SccsFound = CS.SccsFound;
    Stats.Scc.MembersCollapsed = CS.MembersCollapsed;
    Stats.Scc.FullPasses = CS.FullPasses;
  }
  Stats.NumPtrs = CSM.numPtrs();
  Stats.NumCSObjs = CSM.numCSObjs();
  Stats.NumContexts = CM.numContexts();
  Stats.ReachableCS = static_cast<uint32_t>(CG.reachableMethods().size());
  Stats.ReachableCI = static_cast<uint32_t>(CG.reachableCI().size());
  R.Stats = Stats;
  buildProjection(R);
  Solved = true;
  R.TimeMs = Clock.elapsedMs();
  return R;
}

void Solver::buildProjection(PTAResult &R) {
  // Hash-consed projection (see PTAResult). Each distinct solver set is
  // projected once: sets are found by representative in a dense table,
  // then — when large enough that mapping their elements costs more
  // than hashing their words — by content hash across representatives,
  // so equal sets share one projection. A key fed by one solver pointer
  // (every var under ci and csc) takes that pool slot; a key fed by
  // several (contexts under 2obj, zipper-e) unions their sets and
  // interns the union.
  constexpr uint32_t ProjectDirectlyUpTo = 24; // PointsToSet's small tier
  std::vector<PointsToSet> &Pool = R.Pool;
  PointsToSetInterner Interner(Pool);
  std::vector<uint32_t> RepSlot(CSM.numPtrs(), InvalidId);
  SetHashIndex RepByHash;
  auto SlotOf = [&](PtrId Rep, const PointsToSet &S) {
    if (RepSlot[Rep] != InvalidId)
      return RepSlot[Rep];
    if (S.size() > ProjectDirectlyUpTo) {
      uint64_t H = S.hash();
      PtrId Same =
          RepByHash.find(H, [&](PtrId Other) { return Pts[Other] == S; });
      if (Same != SetHashIndex::None)
        return RepSlot[Rep] = RepSlot[Same];
      RepByHash.insert(H, Rep);
    }
    PointsToSet Proj;
    S.forEach([&](CSObjId O) { Proj.insert(CSM.csObj(O).O); });
    return RepSlot[Rep] = Interner.intern(std::move(Proj));
  };

  // Vars feed their dense slot; a second distinct set turns the slot
  // into a Merged index, tagged by the high bit.
  constexpr uint32_t MergedTag = 1u << 31;
  std::vector<PointsToSet> Merged;
  R.VarSets.assign(P.numVars(), 0);
  std::vector<KeyedSet> Keyed[3]; // by PtsTable
  for (PtrId Pr = 0; Pr < CSM.numPtrs(); ++Pr) {
    PtrId Rep = repOf(Pr);
    if (Rep >= Pts.size() || Pts[Rep].empty())
      continue;
    uint32_t Slot = SlotOf(Rep, Pts[Rep]);
    const PtrInfo &PI = CSM.ptr(Pr);
    switch (PI.Kind) {
    case PtrKind::Var: {
      uint32_t &Cur = R.VarSets[PI.A];
      if (Cur == 0) {
        Cur = Slot;
      } else if (Cur & MergedTag) {
        Merged[Cur & ~MergedTag].unionWith(Pool[Slot]);
      } else if (Cur != Slot) {
        Merged.push_back(Pool[Cur]);
        Merged.back().unionWith(Pool[Slot]);
        Cur = static_cast<uint32_t>(Merged.size() - 1) | MergedTag;
      }
      break;
    }
    case PtrKind::Field:
      Keyed[0].push_back({CSM.csObj(PI.A).O, PI.B, Slot});
      break;
    case PtrKind::Array:
      Keyed[1].push_back({CSM.csObj(PI.A).O, 0, Slot});
      break;
    case PtrKind::Static:
      Keyed[2].push_back({PI.A, 0, Slot});
      break;
    }
  }
  for (uint32_t &Cur : R.VarSets)
    if (Cur & MergedTag)
      Cur = Interner.intern(std::move(Merged[Cur & ~MergedTag]));

  // Keyed tables: sort by (key, slot), then fold each key's run.
  std::vector<KeyedSet> *Tables[3] = {&R.FieldSets, &R.ArraySets,
                                      &R.StaticSets};
  for (int T = 0; T != 3; ++T) {
    std::vector<KeyedSet> &In = Keyed[T];
    std::sort(In.begin(), In.end(), [](const KeyedSet &X, const KeyedSet &Y) {
      return std::tie(X.A, X.B, X.Set) < std::tie(Y.A, Y.B, Y.Set);
    });
    std::vector<KeyedSet> &Out = *Tables[T];
    for (size_t I = 0, E = In.size(); I != E;) {
      size_t J = I + 1;
      while (J != E && In[J].A == In[I].A && In[J].B == In[I].B)
        ++J;
      KeyedSet K = In[I];
      if (In[J - 1].Set != K.Set) {
        PointsToSet Union = Pool[K.Set];
        for (size_t U = I + 1; U != J; ++U)
          if (In[U].Set != In[U - 1].Set)
            Union.unionWith(Pool[In[U].Set]);
        K.Set = Interner.intern(std::move(Union));
      }
      Out.push_back(K);
      I = J;
    }
  }

  // Renumber the pool in first-use order, dropping the sets no key
  // kept (a context's set that only reached a key through a union).
  std::vector<uint32_t> Renum(Pool.size(), InvalidId);
  std::vector<PointsToSet> Canonical(1);
  Renum[0] = 0;
  auto Use = [&](uint32_t &Set) {
    if (Renum[Set] == InvalidId) {
      Renum[Set] = static_cast<uint32_t>(Canonical.size());
      Canonical.push_back(std::move(Pool[Set]));
    }
    Set = Renum[Set];
  };
  for (uint32_t &Set : R.VarSets)
    Use(Set);
  for (std::vector<KeyedSet> *Table : Tables)
    for (KeyedSet &K : *Table)
      Use(K.Set);
  Pool = std::move(Canonical);

  R.CalleesPerSite.resize(P.numCallSites());
  for (const auto &[CS, M] : CG.ciEdges())
    R.CalleesPerSite[CS].push_back(M);
  // Canonical per-site order: ciEdges() is in discovery order, which a
  // warm-started run (resolveIncrement) interleaves differently than a
  // cold run. Sorting makes the projection fixpoint-determined.
  for (std::vector<MethodId> &Callees : R.CalleesPerSite)
    std::sort(Callees.begin(), Callees.end());
  R.Reachable = CG.reachableCI();
  R.NumCallEdgesCI = CG.ciEdges().size();
}
