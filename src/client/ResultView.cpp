//===- ResultView.cpp - Query API over one analysis result ----------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "client/ResultView.h"

#include "client/Metrics.h"

#include <algorithm>

using namespace csc;

std::vector<CallSiteId> ResultView::callSitesIn(MethodId M) const {
  std::vector<CallSiteId> Out;
  for (CallSiteId CS = 0; CS < P.numCallSites(); ++CS)
    if (P.callSite(CS).Caller == M)
      Out.push_back(CS);
  return Out;
}

std::vector<MethodId> ResultView::reachableMethods() const {
  std::vector<MethodId> Out(R.reachableMethods().begin(),
                            R.reachableMethods().end());
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<StmtId> ResultView::mayFailCasts() const {
  return csc::mayFailCasts(P, R);
}

std::vector<CallSiteId> ResultView::polyCallSites() const {
  return csc::polyCallSites(P, R);
}
