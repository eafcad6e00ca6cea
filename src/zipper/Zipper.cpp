//===- Zipper.cpp - Selective context sensitivity (Zipper-e) --------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "zipper/Zipper.h"

#include <algorithm>
#include <unordered_map>

using namespace csc;

namespace {

/// Intraprocedural value-flow facts for one method: which variables carry
/// parameter values forward (param-flow) and which reach a return variable
/// backward (return-flow), both through local assignments.
struct MethodFlows {
  std::unordered_set<VarId> FromParam;
  std::unordered_set<VarId> ToReturn;
};

MethodFlows computeMethodFlows(const Program &P, MethodId M) {
  MethodFlows F;
  const MethodInfo &MI = P.method(M);
  for (VarId V : MI.Params)
    F.FromParam.insert(V);
  for (VarId V : MI.RetVars)
    F.ToReturn.insert(V);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (StmtId S : MI.AllStmts) {
      const Stmt &St = P.stmt(S);
      switch (St.Kind) {
      case StmtKind::Assign:
      case StmtKind::Cast:
        if (F.FromParam.count(St.From) && F.FromParam.insert(St.To).second)
          Changed = true;
        if (F.ToReturn.count(St.To) && F.ToReturn.insert(St.From).second)
          Changed = true;
        break;
      case StmtKind::Load:
      case StmtKind::ArrayLoad:
        // Objects reachable from parameters: loading through a
        // param-flow base yields param-flow values (Zipper's object flow
        // graph follows such heap hops).
        if (F.FromParam.count(St.Base) && F.FromParam.insert(St.To).second)
          Changed = true;
        break;
      default:
        break;
      }
    }
  }
  return F;
}

/// True if method M exhibits an IN→OUT flow: direct (param reaches
/// return), wrapped (param value stored into a field of a param object),
/// or unwrapped (a field of a param object loaded into a return).
bool hasInOutFlow(const Program &P, MethodId M) {
  const MethodInfo &MI = P.method(M);
  if (MI.AllStmts.empty())
    return false;
  MethodFlows F = computeMethodFlows(P, M);
  // Direct flow.
  for (VarId RV : MI.RetVars)
    if (F.FromParam.count(RV))
      return true;
  for (StmtId S : MI.AllStmts) {
    const Stmt &St = P.stmt(S);
    // Wrapped flow: param value flows into a field (or array slot) of a
    // param-reachable object.
    if ((St.Kind == StmtKind::Store || St.Kind == StmtKind::ArrayStore) &&
        F.FromParam.count(St.Base) && F.FromParam.count(St.From))
      return true;
    // Unwrapped flow: field (or array slot) of a param-reachable object
    // flows to the return.
    if ((St.Kind == StmtKind::Load || St.Kind == StmtKind::ArrayLoad) &&
        F.FromParam.count(St.Base) && F.ToReturn.count(St.To))
      return true;
    // Calls relaying params whose result reaches the return behave like
    // direct flows once callees are inlined; treat conservatively.
    if (St.Kind == StmtKind::Invoke && St.To != InvalidId &&
        F.ToReturn.count(St.To)) {
      for (size_t K = 0, E = P.numCallArgs(St); K != E; ++K) {
        VarId A = P.callArg(St, K);
        if (A != InvalidId && F.FromParam.count(A))
          return true;
      }
    }
  }
  return false;
}

} // namespace

ZipperSelection csc::runZipperSelection(const Program &P, const PTAResult &CI,
                                        const ZipperOptions &Opts) {
  ZipperSelection Sel;

  // Phase 1, the context-insensitive pre-analysis, is the caller's CI.
  // Phase 2: per-class IN→OUT flow detection over reachable methods.
  std::unordered_set<TypeId> CriticalClasses;
  for (MethodId M : CI.reachableMethods())
    if (hasInOutFlow(P, M))
      CriticalClasses.insert(P.method(M).Owner);
  Sel.CriticalClasses = static_cast<uint32_t>(CriticalClasses.size());

  // Phase 3: efficiency guard. Estimate the context-sensitive cost of a
  // class as the points-to volume accumulated in its methods during the
  // pre-analysis; classes above the CostFraction of the program total are
  // scalability threats and stay context-insensitive.
  std::unordered_map<TypeId, uint64_t> ClassCost;
  uint64_t TotalCost = 0;
  for (MethodId M : CI.reachableMethods()) {
    uint64_t Cost = 0;
    for (VarId V : P.method(M).Vars)
      Cost += CI.pt(V).size();
    ClassCost[P.method(M).Owner] += Cost;
    TotalCost += Cost;
  }
  uint64_t Threshold = std::max(
      Opts.MinCostFloor,
      static_cast<uint64_t>(Opts.CostFraction *
                            static_cast<double>(TotalCost)));

  for (TypeId C : CriticalClasses) {
    if (ClassCost[C] > Threshold) {
      ++Sel.UnselectedByCostGuard;
      continue;
    }
    for (MethodId M : P.type(C).Methods)
      if (!P.method(M).IsAbstract)
        Sel.Selected.insert(M);
  }
  return Sel;
}
