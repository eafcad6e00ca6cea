//===- Metrics.cpp - The paper's four precision clients -------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "client/Metrics.h"

using namespace csc;

std::vector<StmtId> csc::mayFailCasts(const Program &P, const PTAResult &R) {
  std::vector<StmtId> Out;
  // Per cast target type: a bitmap over the source TypeIds that would
  // fail the cast (numTypes subtype queries, once), so checking a pointee
  // is one bit test and a scan stops at the first failing pointee. A
  // verdict depends only on the type and the set, and the result keeps
  // one copy of each distinct set, so verdicts on large sets are kept:
  // under ci thousands of casts read the same few hundred sets of
  // hundreds of objects.
  struct CastCheck {
    PointsToSet FailTypes;
    std::unordered_map<const PointsToSet *, bool> LargeVerdicts;
  };
  constexpr uint32_t LargeSet = 64;
  std::unordered_map<TypeId, CastCheck> Checks;
  for (StmtId S = 0; S < P.numStmts(); ++S) {
    const Stmt &St = P.stmt(S);
    if (St.Kind != StmtKind::Cast || !R.isReachable(St.Method))
      continue;
    auto [It, New] = Checks.try_emplace(St.Type);
    CastCheck &C = It->second;
    if (New)
      for (TypeId T = 0; T < P.numTypes(); ++T)
        if (!P.isSubtype(T, St.Type))
          C.FailTypes.insert(T);
    const PointsToSet &Pts = R.pt(St.From);
    auto MayFail = [&] {
      return Pts.anyOf(
          [&](ObjId O) { return C.FailTypes.contains(P.obj(O).Type); });
    };
    bool Fails;
    if (Pts.size() <= LargeSet) {
      Fails = MayFail();
    } else {
      auto [Verdict, Unseen] = C.LargeVerdicts.try_emplace(&Pts);
      if (Unseen)
        Verdict->second = MayFail();
      Fails = Verdict->second;
    }
    if (Fails)
      Out.push_back(S);
  }
  return Out;
}

std::vector<CallSiteId> csc::polyCallSites(const Program &P,
                                           const PTAResult &R) {
  std::vector<CallSiteId> Out;
  for (CallSiteId CS = 0; CS < P.numCallSites(); ++CS) {
    const Stmt &St = P.stmt(P.callSite(CS).S);
    if (St.IKind != InvokeKind::Virtual || !R.isReachable(St.Method))
      continue;
    if (R.calleesOf(CS).size() >= 2)
      Out.push_back(CS);
  }
  return Out;
}

PrecisionMetrics csc::computeMetrics(const Program &P, const PTAResult &R) {
  PrecisionMetrics M;
  M.FailCasts = static_cast<uint32_t>(mayFailCasts(P, R).size());
  M.ReachMethods = R.numReachableCI();
  M.PolyCalls = static_cast<uint32_t>(polyCallSites(P, R).size());
  M.CallEdges = R.numCallEdgesCI();
  return M;
}
