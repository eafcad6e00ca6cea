//===- CallGraph.h - On-the-fly context-sensitive call graph ----*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The call graph constructed on the fly by the solver. Context-sensitive
/// nodes are interned (call site, context) and (method, context) pairs; the
/// CI projection used by clients (#call-edge, #reach-mtd) is maintained
/// incrementally.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_PTA_CALLGRAPH_H
#define CSC_PTA_CALLGRAPH_H

#include "support/FlatTable.h"
#include "support/Hash.h"
#include "support/Ids.h"

#include <unordered_set>
#include <vector>

namespace csc {

struct CSCallSiteInfo {
  CallSiteId CS = InvalidId;
  CtxId Ctx = InvalidId;
};

struct CSMethodInfo {
  MethodId M = InvalidId;
  CtxId Ctx = InvalidId;
};

class CallGraph {
public:
  CSCallSiteId getCSCallSite(CallSiteId CS, CtxId C) {
    // The empty context (the CI-based analyses) indexes densely by
    // CallSiteId; other contexts go through the flat table (see CSManager
    // for the same split on pointers).
    if (C == 0) {
      if (CS >= CSSiteCI.size())
        CSSiteCI.resize(CS + 1, InvalidId);
      if (CSSiteCI[CS] == InvalidId)
        CSSiteCI[CS] = newCSCallSite(CS, C);
      return CSSiteCI[CS];
    }
    auto [Id, Inserted] = CSIndex.insert(packPair(CS, C), numCSSites());
    if (Inserted)
      newCSCallSite(CS, C);
    return Id;
  }

  CSMethodId getCSMethod(MethodId M, CtxId C) {
    if (C == 0) {
      if (M >= CSMethodCI.size())
        CSMethodCI.resize(M + 1, InvalidId);
      if (CSMethodCI[M] == InvalidId)
        CSMethodCI[M] = newCSMethod(M, C);
      return CSMethodCI[M];
    }
    auto [Id, Inserted] = MIndex.insert(packPair(M, C), numCSMethods());
    if (Inserted)
      newCSMethod(M, C);
    return Id;
  }

  /// Adds a call edge; returns false if it already existed.
  bool addEdge(CSCallSiteId CS, CSMethodId Callee) {
    if (!EdgeSet.insert(packPair(CS, Callee)).second)
      return false;
    Callees[CS].push_back(Callee);
    Callers[Callee].push_back(CS);
    ++NumCSEdges;
    // CI projection.
    uint64_t CIKey = packPair(CSSites[CS].CS, CSMethods[Callee].M);
    if (CIEdgeSet.insert(CIKey).second)
      CIEdges.push_back({CSSites[CS].CS, CSMethods[Callee].M});
    return true;
  }

  /// Marks a context-sensitive method reachable; returns true if new.
  bool addReachable(CSMethodId M) {
    if (ReachableCS[M])
      return false;
    ReachableCS[M] = 1;
    ReachableCI.insert(CSMethods[M].M);
    ReachableList.push_back(M);
    return true;
  }

  const CSCallSiteInfo &csCallSite(CSCallSiteId C) const {
    return CSSites[C];
  }
  const CSMethodInfo &csMethod(CSMethodId M) const { return CSMethods[M]; }

  const std::vector<CSMethodId> &calleesOf(CSCallSiteId CS) const {
    return Callees[CS];
  }
  const std::vector<CSCallSiteId> &callersOf(CSMethodId M) const {
    return Callers[M];
  }

  const std::vector<CSMethodId> &reachableMethods() const {
    return ReachableList;
  }
  bool isReachableCI(MethodId M) const { return ReachableCI.count(M) != 0; }
  const std::unordered_set<MethodId> &reachableCI() const {
    return ReachableCI;
  }

  /// CI-projected call edges (call site, target method), deduplicated.
  const std::vector<std::pair<CallSiteId, MethodId>> &ciEdges() const {
    return CIEdges;
  }

  uint64_t numCSEdges() const { return NumCSEdges; }
  uint32_t numCSMethods() const {
    return static_cast<uint32_t>(CSMethods.size());
  }

private:
  uint32_t numCSSites() const {
    return static_cast<uint32_t>(CSSites.size());
  }

  CSCallSiteId newCSCallSite(CallSiteId CS, CtxId C) {
    CSSites.push_back({CS, C});
    Callees.emplace_back();
    return numCSSites() - 1;
  }

  CSMethodId newCSMethod(MethodId M, CtxId C) {
    CSMethods.push_back({M, C});
    Callers.emplace_back();
    ReachableCS.push_back(0);
    return numCSMethods() - 1;
  }

  std::vector<CSCallSiteInfo> CSSites;
  std::vector<CSMethodInfo> CSMethods;
  std::vector<CSCallSiteId> CSSiteCI; ///< By CallSiteId, empty ctx only.
  std::vector<CSMethodId> CSMethodCI; ///< By MethodId, empty ctx only.
  FlatTable<CSCallSiteId> CSIndex; ///< (CallSiteId, CtxId), other ctxs.
  FlatTable<CSMethodId> MIndex;    ///< (MethodId, CtxId), other ctxs.
  std::vector<std::vector<CSMethodId>> Callees;  ///< Indexed by CSCallSiteId.
  std::vector<std::vector<CSCallSiteId>> Callers; ///< Indexed by CSMethodId.
  FlatSet EdgeSet;   ///< (CSCallSiteId, CSMethodId).
  FlatSet CIEdgeSet; ///< (CallSiteId, MethodId).
  std::vector<std::pair<CallSiteId, MethodId>> CIEdges;
  std::vector<uint8_t> ReachableCS; ///< By CSMethodId.
  std::unordered_set<MethodId> ReachableCI;
  std::vector<CSMethodId> ReachableList;
  uint64_t NumCSEdges = 0;
};

} // namespace csc

#endif // CSC_PTA_CALLGRAPH_H
