//===- LocalFlowPattern.cpp - §3.4 / Fig. 11 ------------------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "csc/LocalFlowPattern.h"

#include "support/Hash.h"

#include <algorithm>

using namespace csc;

/// The mask computeFlows found for \p V in \p MI, 0 if \p V is not one of
/// MI's variables. MI.Vars is ascending: Program::addVar appends fresh ids.
static uint64_t maskOf(const MethodInfo &MI, const std::vector<uint64_t> &Mask,
                       VarId V) {
  auto It = std::lower_bound(MI.Vars.begin(), MI.Vars.end(), V);
  return It != MI.Vars.end() && *It == V ? Mask[It - MI.Vars.begin()] : 0;
}

std::vector<uint64_t> LocalFlowPattern::computeFlows(MethodId M) const {
  const Program &P = St.S->program();
  const MethodInfo &MI = P.method(M);
  std::vector<uint64_t> Mask(MI.Vars.size(), 0);
  if (MI.Params.size() > 64)
    return Mask; // Mask width exceeded; pattern disabled for this method.

  // [Param2Var]: never-redefined parameters qualify with their own index.
  // Parameters with definitions do NOT qualify: their values mix incoming
  // arguments with the redefinitions, which the shortcut edges could not
  // cover soundly.
  for (size_t K = 0; K != MI.Params.size(); ++K) {
    auto It = std::lower_bound(MI.Vars.begin(), MI.Vars.end(), MI.Params[K]);
    if (P.var(MI.Params[K]).Defs.empty())
      Mask[It - MI.Vars.begin()] = 1ULL << K;
  }

  // [Param2VarRec]: least fixed point — x qualifies if it has definitions
  // and every definition is a local assignment from a qualifying variable.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I != MI.Vars.size(); ++I) {
      VarId V = MI.Vars[I];
      const VarInfo &VI = P.var(V);
      if (VI.Defs.empty())
        continue;
      // Parameters never re-qualify through definitions (see above).
      bool IsParam = false;
      for (VarId PV : MI.Params)
        IsParam = IsParam || PV == V;
      if (IsParam)
        continue;
      uint64_t Combined = 0;
      bool AllQualify = true;
      for (StmtId D : VI.Defs) {
        const Stmt &DS = P.stmt(D);
        if (DS.Kind != StmtKind::Assign) {
          AllQualify = false;
          break;
        }
        uint64_t From = maskOf(MI, Mask, DS.From);
        if (From == 0) {
          AllQualify = false;
          break;
        }
        Combined |= From;
      }
      if (!AllQualify)
        continue;
      uint64_t &Cur = Mask[I];
      if (Cur != Combined) {
        Cur = Combined;
        Changed = true;
      }
    }
  }
  return Mask;
}

uint64_t LocalFlowPattern::paramMaskOf(MethodId M, VarId V) {
  return maskOf(St.S->program().method(M), computeFlows(M), V);
}

void LocalFlowPattern::onNewMethod(MethodId M) {
  const Program &P = St.S->program();
  const MethodInfo &MI = P.method(M);
  if (MI.RetVars.empty())
    return;
  std::vector<uint64_t> Flows = computeFlows(M);
  std::vector<CutRet> Cuts;
  for (VarId RV : MI.RetVars) {
    uint64_t Mask = maskOf(MI, Flows, RV);
    if (Mask == 0)
      continue;
    // [CutLFlow].
    St.cutReturn(RV);
    St.involve(M);
    Cuts.push_back({RV, Mask});
  }
  if (!Cuts.empty())
    CutRets[M] = std::move(Cuts);
}

void LocalFlowPattern::onNewCallEdge(CSCallSiteId CS, CSMethodId Callee) {
  CallGraph &CG = St.S->callGraph();
  MethodId M = CG.csMethod(Callee).M;
  const std::vector<CutRet> &Cuts = CutRets.lookup(M);
  if (Cuts.empty())
    return;
  const Program &P = St.S->program();
  const Stmt &S = P.stmt(P.callSite(CG.csCallSite(CS).CS).S);
  if (S.To == InvalidId)
    return;
  St.involve(S.Method);
  PtrId TargetPtr = St.S->varPtrCI(S.To);
  for (const CutRet &CR : Cuts) {
    // [ShortcutLFlow]: argument k -> call-site LHS for each flowing k.
    uint64_t Mask = CR.Mask;
    while (Mask) {
      unsigned K = countTrailingZeros(Mask);
      Mask &= Mask - 1;
      VarId Arg = P.callArg(S, K);
      if (Arg != InvalidId)
        St.shortcut(St.S->varPtrCI(Arg), TargetPtr);
    }
  }
}
