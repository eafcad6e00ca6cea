//===- CutShortcutPlugin.cpp - The Cut-Shortcut analysis ------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "csc/CutShortcutPlugin.h"

#include <cassert>

using namespace csc;

CutShortcutPlugin::CutShortcutPlugin(const Program &P,
                                     const ContainerSpec &Spec,
                                     CutShortcutOptions Opts)
    : P(P), Opts(Opts) {
  if (Opts.FieldStore || Opts.FieldLoad)
    Field = std::make_unique<FieldAccessPattern>(State, Opts.FieldStore,
                                                 Opts.FieldLoad);
  if (Opts.Container)
    Cont = std::make_unique<ContainerPattern>(State, Spec);
  if (Opts.LocalFlow)
    Local = std::make_unique<LocalFlowPattern>(State);
}

CutShortcutPlugin::~CutShortcutPlugin() = default;

void CutShortcutPlugin::onStart(Solver &S) {
  State.S = &S;
  // Cut-Shortcut applies no contexts to any method (§3.1); it must run on
  // the context-insensitive solver.
}

void CutShortcutPlugin::onNewMethod(CSMethodId M) {
  CallGraph &CG = State.S->callGraph();
  const CSMethodInfo &MI = CG.csMethod(M);
  assert(MI.Ctx == State.S->ctxManager().empty() &&
         "Cut-Shortcut requires the context-insensitive solver");
  if (Field)
    Field->onNewMethod(MI.M);
  if (Cont)
    Cont->onNewMethod(MI.M);
  if (Local)
    Local->onNewMethod(MI.M);
}

void CutShortcutPlugin::onNewPointsTo(PtrId Pr, const PointsToSet &Delta) {
  if (Field)
    Field->onNewPointsTo(Pr, Delta);
  if (Cont)
    Cont->onNewPointsTo(Pr, Delta);
}

void CutShortcutPlugin::onNewCallEdge(CSCallSiteId CS, CSMethodId Callee) {
  if (Field)
    Field->onNewCallEdge(CS, Callee);
  if (Cont)
    Cont->onNewCallEdge(CS, Callee);
  if (Local)
    Local->onNewCallEdge(CS, Callee);
}

void CutShortcutPlugin::onNewPFGEdge(PtrId Src, PtrId Dst,
                                     EdgeOrigin Origin) {
  if (Field)
    Field->onNewPFGEdge(Src, Dst, Origin);
  if (Cont)
    Cont->onNewPFGEdge(Src, Dst, Origin);
}

void CutShortcutPlugin::onFixpoint() {
  if (Field)
    Field->onFixpoint();
}
