//===- DemandSlicer.cpp - Backward PFG slices for demand queries ----------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "server/DemandSlicer.h"

using namespace csc;

DemandSlicer::DemandSlicer(const Program &P) : P(P) {
  for (StmtId S = 0; S < P.numStmts(); ++S) {
    const Stmt &St = P.stmt(S);
    switch (St.Kind) {
    case StmtKind::Store:
      StoresByField[St.Field].push_back(S);
      break;
    case StmtKind::StaticStore:
      StaticStoresByField[St.Field].push_back(S);
      break;
    case StmtKind::ArrayStore:
      ArrayStores.push_back(S);
      break;
    case StmtKind::Invoke:
      if (St.IKind == InvokeKind::Virtual)
        SitesBySubsig[St.Subsig].push_back(S);
      else
        SitesByCallee[St.DirectCallee].push_back(S);
      break;
    default:
      break;
    }
  }
  for (MethodId M = 0; M < P.numMethods(); ++M) {
    const MethodInfo &MI = P.method(M);
    if (!MI.IsAbstract)
      MethodsBySubsig[MI.Subsig].push_back(M);
  }
}

DemandSlicer::Slice
DemandSlicer::sliceFor(const std::vector<VarId> &Roots) const {
  Slice Out;
  Out.Enabled.assign(P.numStmts(), 0);
  std::vector<uint8_t> Relevant(P.numVars(), 0);
  std::vector<VarId> Work;

  auto MarkVar = [&](VarId V) {
    if (V == InvalidId || V >= Relevant.size() || Relevant[V])
      return;
    Relevant[V] = 1;
    ++Out.RelevantVars;
    Work.push_back(V);
  };
  auto Enable = [&](StmtId S) {
    if (!Out.Enabled[S]) {
      Out.Enabled[S] = 1;
      ++Out.EnabledStmts;
    }
  };

  // Call-graph core: every invoke runs, and every receiver's set must be
  // exact for dispatch (and reachability) to match the full analysis.
  for (StmtId S = 0; S < P.numStmts(); ++S) {
    const Stmt &St = P.stmt(S);
    if (St.Kind != StmtKind::Invoke)
      continue;
    Enable(S);
    if (St.IKind != InvokeKind::Static)
      MarkVar(St.Base);
  }
  for (VarId V : Roots)
    MarkVar(V);

  while (!Work.empty()) {
    VarId V = Work.back();
    Work.pop_back();

    // Backward over V's defining statements.
    for (StmtId SId : P.var(V).Defs) {
      const Stmt &S = P.stmt(SId);
      switch (S.Kind) {
      case StmtKind::New:
      case StmtKind::NewArray:
        Enable(SId);
        break;
      case StmtKind::Assign:
      case StmtKind::Cast:
        Enable(SId);
        MarkVar(S.From);
        break;
      case StmtKind::Load: {
        Enable(SId);
        MarkVar(S.Base);
        auto It = StoresByField.find(S.Field);
        if (It != StoresByField.end())
          for (StmtId StoreId : It->second) {
            const Stmt &St = P.stmt(StoreId);
            Enable(StoreId);
            MarkVar(St.From);
            MarkVar(St.Base);
          }
        break;
      }
      case StmtKind::ArrayLoad:
        Enable(SId);
        MarkVar(S.Base);
        // Index-insensitive arrays: any array store may feed any load.
        for (StmtId StoreId : ArrayStores) {
          const Stmt &St = P.stmt(StoreId);
          Enable(StoreId);
          MarkVar(St.From);
          MarkVar(St.Base);
        }
        break;
      case StmtKind::StaticLoad: {
        Enable(SId);
        auto It = StaticStoresByField.find(S.Field);
        if (It != StaticStoresByField.end())
          for (StmtId StoreId : It->second) {
            Enable(StoreId);
            MarkVar(P.stmt(StoreId).From);
          }
        break;
      }
      case StmtKind::Invoke: {
        // V receives a callee's return value: the CHA-approximated
        // callees' return variables flow in ([Return] edges are wired per
        // discovered call edge, which the enabled invokes make exact).
        if (S.IKind == InvokeKind::Virtual) {
          auto It = MethodsBySubsig.find(S.Subsig);
          if (It != MethodsBySubsig.end())
            for (MethodId CM : It->second)
              for (VarId RV : P.method(CM).RetVars)
                MarkVar(RV);
        } else if (S.DirectCallee != InvalidId) {
          for (VarId RV : P.method(S.DirectCallee).RetVars)
            MarkVar(RV);
        }
        break;
      }
      default:
        break;
      }
    }

    // Parameter inflow: objects reach a parameter from the matching
    // argument of any CHA-plausible caller site.
    const VarInfo &VI = P.var(V);
    if (VI.Method == InvalidId)
      continue;
    const MethodInfo &MI = P.method(VI.Method);
    size_t FirstParam = MI.IsStatic ? 0 : 1;
    for (size_t K = 0; K < MI.Params.size(); ++K) {
      if (MI.Params[K] != V)
        continue;
      if (K < FirstParam)
        break; // `this`: receiver bases are already in the core.
      size_t ArgIdx = K - FirstParam;
      auto BindAt = [&](StmtId SId) {
        const Stmt &S = P.stmt(SId);
        if (ArgIdx < S.Args.size())
          MarkVar(S.Args[ArgIdx]);
      };
      if (!MI.IsStatic) {
        auto It = SitesBySubsig.find(MI.Subsig);
        if (It != SitesBySubsig.end())
          for (StmtId SId : It->second)
            BindAt(SId);
      }
      auto It = SitesByCallee.find(VI.Method);
      if (It != SitesByCallee.end())
        for (StmtId SId : It->second)
          BindAt(SId);
      break;
    }
  }
  return Out;
}
