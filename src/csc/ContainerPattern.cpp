//===- ContainerPattern.cpp - §3.3 / Fig. 10 ------------------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "csc/ContainerPattern.h"

using namespace csc;

void ContainerPattern::onNewMethod(MethodId M) {
  // [CutContainer]: all return edges of Exit methods are cut.
  if (!Spec.isExit(M))
    return;
  St.involve(M);
  for (VarId RV : St.S->program().method(M).RetVars)
    St.cutReturn(RV);
}

bool ContainerPattern::methodIsContainer(MethodId M) {
  int8_t Memo = denseGet<int8_t>(ContainerMethodMemo, M, -1);
  if (Memo < 0) {
    Memo = Spec.isContainerMethod(M) ? 1 : 0;
    denseAssign<int8_t>(ContainerMethodMemo, M, Memo, -1);
  }
  return Memo != 0;
}

void ContainerPattern::onNewCallEdge(CSCallSiteId CS, CSMethodId Callee) {
  CallGraph &CG = St.S->callGraph();
  MethodId M = CG.csMethod(Callee).M;
  if (!methodIsContainer(M))
    return;
  const Program &P = St.S->program();
  StmtId SId = P.callSite(CG.csCallSite(CS).CS).S;
  const Stmt &S = P.stmt(SId);
  if (S.IKind == InvokeKind::Static)
    return; // Container methods are instance methods.
  St.involve(S.Method);
  St.involve(M);
  PtrId RecvPtr = St.S->varPtrCI(S.Base);
  uint64_t Key = edgeKey(RecvPtr, SId);
  if (SeenSubs.insert(Key).second) {
    Sub SubInfo{SId, M};
    RecvSubs[RecvPtr].push_back(SubInfo);
    // Process hosts the receiver already carries.
    std::vector<ObjId> Existing = hostsOf(RecvPtr).toVector();
    for (ObjId H : Existing)
      processSub(SubInfo, H);
  }
  drain();
}

bool ContainerPattern::typeIsHost(TypeId T) {
  int8_t Memo = denseGet<int8_t>(HostTypeMemo, T, -1);
  if (Memo < 0) {
    Memo = Spec.isHostType(St.S->program(), T) ? 1 : 0;
    denseAssign<int8_t>(HostTypeMemo, T, Memo, -1);
  }
  return Memo != 0;
}

void ContainerPattern::onNewPointsTo(PtrId P, const PointsToSet &Delta) {
  // [ColHost] / [MapHost]: container objects are their own hosts, at every
  // pointer that points to them.
  const Program &Prog = St.S->program();
  const CSManager &CSMgr = St.S->csManager();
  Delta.forEach([&](CSObjId O) {
    ObjId Obj = CSMgr.csObj(O).O;
    if (typeIsHost(Prog.obj(Obj).Type))
      pendHost(P, Obj);
  });
  drain();
}

void ContainerPattern::onNewPFGEdge(PtrId Src, PtrId Dst,
                                    EdgeOrigin Origin) {
  // [PropHost]: hosts flow along PFG edges, except return edges of
  // Transfer methods ([TransferHost] already covers those and merging
  // hosts inside the transfer method would be imprecise).
  if (Origin == EdgeOrigin::Return) {
    const PtrInfo &PI = St.S->csManager().ptr(Src);
    if (PI.Kind == PtrKind::Var &&
        Spec.isTransfer(St.S->program().var(PI.A).Method)) {
      ExcludedEdges.insert(edgeKey(Src, Dst));
      return;
    }
  }
  const PointsToSet &SrcHosts = hostsOf(Src);
  if (!SrcHosts.empty()) {
    std::vector<ObjId> Existing = SrcHosts.toVector();
    for (ObjId H : Existing)
      pendHost(Dst, H);
    drain();
  }
}

void ContainerPattern::pendHost(PtrId P, ObjId H) {
  HostWL.emplace_back(P, H);
}

void ContainerPattern::drain() {
  if (Draining)
    return;
  Draining = true;
  while (!HostWL.empty()) {
    auto [P, H] = HostWL.front();
    HostWL.pop_front();
    if (!Hosts[P].insert(H))
      continue;
    // Propagate along current out-edges ([PropHost]).
    for (const PFGEdge &E : St.S->pfg().succ(P))
      if (!ExcludedEdges.contains(edgeKey(P, E.To)))
        pendHost(E.To, H);
    // Wake subscribed container call sites on this receiver.
    std::vector<Sub> Subs = RecvSubs.lookup(P);
    for (const Sub &SubInfo : Subs)
      processSub(SubInfo, H);
  }
  Draining = false;
}

void ContainerPattern::processSub(const Sub &SubInfo, ObjId Host) {
  const Program &P = St.S->program();
  const Stmt &S = P.stmt(SubInfo.S);
  MethodId M = SubInfo.Callee;
  // [HostSource]: entrance arguments become Sources of the host.
  if (Spec.isEntrance(M)) {
    for (const ContainerSpec::EntranceParam &EP : Spec.entranceParams(M)) {
      VarId Arg = P.callArg(S, EP.ParamIdx);
      if (Arg != InvalidId)
        addSource(Host, EP.Cat, St.S->varPtrCI(Arg));
    }
  }
  // [HostTarget]: exit LHS variables become Targets of the host.
  if (Spec.isExit(M) && S.To != InvalidId)
    addTarget(Host, Spec.exitCategory(M), St.S->varPtrCI(S.To));
  // [TransferHost]: the LHS inherits the receiver's hosts.
  if (Spec.isTransfer(M) && S.To != InvalidId)
    pendHost(St.S->varPtrCI(S.To), Host);
}

void ContainerPattern::addSource(ObjId H, ElemCategory C, PtrId Src) {
  Matches &MT = MatchesByHostCat[matchKey(H, C)];
  if (!MT.SeenSources.insert(Src).second)
    return;
  MT.Sources.push_back(Src);
  // [ShortcutContainer]: connect to every matched Target.
  std::vector<PtrId> Targets = MT.Targets;
  for (PtrId T : Targets)
    St.shortcut(Src, T);
}

void ContainerPattern::addTarget(ObjId H, ElemCategory C, PtrId Tgt) {
  Matches &MT = MatchesByHostCat[matchKey(H, C)];
  if (!MT.SeenTargets.insert(Tgt).second)
    return;
  MT.Targets.push_back(Tgt);
  std::vector<PtrId> Sources = MT.Sources;
  for (PtrId S : Sources)
    St.shortcut(S, Tgt);
}
