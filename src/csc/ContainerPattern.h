//===- ContainerPattern.h - §3.3 / Fig. 10 ----------------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The container access pattern (§3.3, formalized in Fig. 10). Return edges
/// of Exit methods are cut ([CutContainer]); the pointer-host map ptH is
/// computed on the fly ([ColHost]/[MapHost]/[TransferHost]/[PropHost]); at
/// call sites of Entrances/Exits whose receivers share a host of matching
/// element category, shortcut edges connect the entrance argument to the
/// exit LHS ([HostSource]/[HostTarget]/[ShortcutContainer]).
///
//===----------------------------------------------------------------------===//

#ifndef CSC_CSC_CONTAINERPATTERN_H
#define CSC_CSC_CONTAINERPATTERN_H

#include "csc/CscState.h"
#include "stdlib/ContainerSpec.h"
#include "support/DenseTable.h"
#include "support/FlatTable.h"
#include "support/Hash.h"
#include "support/PointsToSet.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace csc {

class ContainerPattern {
public:
  ContainerPattern(CscState &St, const ContainerSpec &Spec)
      : St(St), Spec(Spec) {}

  void onNewMethod(MethodId M);
  void onNewCallEdge(CSCallSiteId CS, CSMethodId Callee);
  void onNewPointsTo(PtrId P, const PointsToSet &Delta);
  void onNewPFGEdge(PtrId Src, PtrId Dst, EdgeOrigin Origin);

  /// ptH(P): hosts associated with a pointer (for tests/diagnostics).
  /// Valid until the next host is recorded.
  const PointsToSet &hostsOf(PtrId P) const { return Hosts.lookup(P); }

private:
  /// A call site subscribed to its receiver's hosts, with the container
  /// role of the resolved callee.
  struct Sub {
    StmtId S;
    MethodId Callee;
  };

  /// Per (host object, element category): matched Sources and Targets.
  struct Matches {
    std::vector<PtrId> Sources;
    std::vector<PtrId> Targets;
    std::unordered_set<PtrId> SeenSources;
    std::unordered_set<PtrId> SeenTargets;
  };

  void pendHost(PtrId P, ObjId H);
  void drain();
  void processSub(const Sub &SubInfo, ObjId Host);
  void addSource(ObjId H, ElemCategory C, PtrId Src);
  void addTarget(ObjId H, ElemCategory C, PtrId Tgt);
  static uint64_t edgeKey(PtrId S, PtrId T) { return packPair(S, T); }
  static uint64_t matchKey(ObjId H, ElemCategory C) {
    return (static_cast<uint64_t>(H) << 2) | static_cast<uint64_t>(C);
  }

  bool typeIsHost(TypeId T);
  bool methodIsContainer(MethodId M);

  CscState &St;
  const ContainerSpec &Spec;

  SlotTable<std::vector<Sub>> RecvSubs; ///< By receiver PtrId.
  FlatSet SeenSubs;                     ///< (recvPtr, stmt) dedup.
  SlotTable<PointsToSet> Hosts;         ///< ptH, by PtrId.
  /// Memoized host-type classification by TypeId and container-method
  /// classification by MethodId.
  std::vector<int8_t> HostTypeMemo;        ///< -1 unknown, else 0/1.
  std::vector<int8_t> ContainerMethodMemo; ///< -1 unknown, else 0/1.
  std::unordered_map<uint64_t, Matches> MatchesByHostCat;
  FlatSet ExcludedEdges; ///< Transfer return edges.
  std::deque<std::pair<PtrId, ObjId>> HostWL;
  bool Draining = false;
};

} // namespace csc

#endif // CSC_CSC_CONTAINERPATTERN_H
