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

#include "support/DenseTable.h"
#include "support/Hash.h"
#include "support/Ids.h"

#include <unordered_map>
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
    // Dense fast path for the empty context (the CI-based analyses; see
    // CSManager for the same pattern on pointers).
    if (C == 0) {
      CSCallSiteId Cached = denseGet(CSSiteCI, CS, InvalidId);
      if (Cached != InvalidId)
        return Cached;
      CSCallSiteId Id = internCSCallSite(CS, C);
      denseAssign(CSSiteCI, CS, Id, InvalidId);
      return Id;
    }
    return internCSCallSite(CS, C);
  }

  CSMethodId getCSMethod(MethodId M, CtxId C) {
    if (C == 0) {
      CSMethodId Cached = denseGet(CSMethodCI, M, InvalidId);
      if (Cached != InvalidId)
        return Cached;
      CSMethodId Id = internCSMethod(M, C);
      denseAssign(CSMethodCI, M, Id, InvalidId);
      return Id;
    }
    return internCSMethod(M, C);
  }

  /// Pre-sizes the dedup tables from the program's call-site count.
  void reserveHint(std::size_t CallSites) {
    EdgeSet.reserve(CallSites * 2);
    CIEdgeSet.reserve(CallSites * 2);
    CSIndex.reserve(CallSites);
  }

  /// Adds a call edge; returns false if it already existed.
  bool addEdge(CSCallSiteId CS, CSMethodId Callee) {
    uint64_t Key = packPair(CS, Callee);
    if (!EdgeSet.insert(Key).second)
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
    if (!ReachableCS.insert(M).second)
      return false;
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
  CSCallSiteId internCSCallSite(CallSiteId CS, CtxId C) {
    auto Key = std::make_pair(CS, C);
    auto It = CSIndex.find(Key);
    if (It != CSIndex.end())
      return It->second;
    CSCallSiteId Id = static_cast<CSCallSiteId>(CSSites.size());
    CSSites.push_back({CS, C});
    Callees.emplace_back();
    CSIndex.emplace(Key, Id);
    return Id;
  }

  CSMethodId internCSMethod(MethodId M, CtxId C) {
    auto Key = std::make_pair(M, C);
    auto It = MIndex.find(Key);
    if (It != MIndex.end())
      return It->second;
    CSMethodId Id = static_cast<CSMethodId>(CSMethods.size());
    CSMethods.push_back({M, C});
    Callers.emplace_back();
    MIndex.emplace(Key, Id);
    return Id;
  }

  std::vector<CSCallSiteInfo> CSSites;
  std::vector<CSMethodInfo> CSMethods;
  std::vector<CSCallSiteId> CSSiteCI; ///< By CallSiteId, empty ctx only.
  std::vector<CSMethodId> CSMethodCI; ///< By MethodId, empty ctx only.
  std::unordered_map<std::pair<uint32_t, uint32_t>, CSCallSiteId, PairHash>
      CSIndex;
  std::unordered_map<std::pair<uint32_t, uint32_t>, CSMethodId, PairHash>
      MIndex;
  std::vector<std::vector<CSMethodId>> Callees;  ///< Indexed by CSCallSiteId.
  std::vector<std::vector<CSCallSiteId>> Callers; ///< Indexed by CSMethodId.
  std::unordered_set<uint64_t> EdgeSet;
  std::unordered_set<uint64_t> CIEdgeSet;
  std::vector<std::pair<CallSiteId, MethodId>> CIEdges;
  std::unordered_set<CSMethodId> ReachableCS;
  std::unordered_set<MethodId> ReachableCI;
  std::vector<CSMethodId> ReachableList;
  uint64_t NumCSEdges = 0;
};

} // namespace csc

#endif // CSC_PTA_CALLGRAPH_H
