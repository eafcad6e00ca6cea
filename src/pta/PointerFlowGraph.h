//===- PointerFlowGraph.h - The PFG manipulated by Cut-Shortcut -*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pointer flow graph: nodes are interned pointers (PtrId), an edge
/// s -> t is the subset constraint pt(s) ⊆ pt(t) ([Propagate] in Fig. 7).
/// Cast edges carry a type filter. Predecessor lists are maintained because
/// the Cut-Shortcut relay rule ([RelayEdge], Fig. 9) needs the in-edges of
/// cut return variables.
///
/// This graph always stores **original, un-collapsed** endpoints. Cycle
/// elimination (SccCollapser) finds cycles with full Tarjan passes and
/// propagates on a representative-level view computed from these lists
/// (no second adjacency is stored), while this graph remains the system
/// of record for edge dedup and Stats.PFGEdges, for the plugins'
/// pred()/succ() queries, for shortcut-edge bookkeeping, and for graph
/// dumps — so every consumer sees the same PFG whether or not cycles
/// were collapsed.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_PTA_POINTERFLOWGRAPH_H
#define CSC_PTA_POINTERFLOWGRAPH_H

#include "support/FlatTable.h"
#include "support/Hash.h"
#include "support/Ids.h"

#include <algorithm>
#include <vector>

namespace csc {

struct PFGEdge {
  PtrId To = InvalidId;
  TypeId Filter = InvalidId; ///< InvalidId = unfiltered.
};

class PointerFlowGraph {
public:
  /// Adds s -> t (with optional cast filter); returns false if present.
  /// Dedup is hybrid: low-degree sources scan their (short) successor
  /// list; sources past SmallDegree look the (s, t) pair up in one flat
  /// table that keeps the first filter seen for it. A hit with another
  /// filter is a parallel cast edge, settled by scanning the list.
  bool addEdge(PtrId S, PtrId T, TypeId Filter) {
    ensure(std::max(S, T));
    std::vector<PFGEdge> &Out = Succ[S];
    if (Out.size() <= SmallDegree) {
      if (hasEdge(Out, T, Filter))
        return false;
      if (Out.size() == SmallDegree) {
        // Crossing the threshold: index every edge of this source
        // (including the new one) before switching over.
        for (const PFGEdge &E : Out)
          Index.insert(packPair(S, E.To), E.Filter);
        Index.insert(packPair(S, T), Filter);
      }
    } else {
      auto [First, New] = Index.insert(packPair(S, T), Filter);
      if (!New && (First == Filter || hasEdge(Out, T, Filter)))
        return false;
    }
    Out.push_back({T, Filter});
    Pred[T].push_back(S);
    ++NumEdges;
    return true;
  }

  /// Pre-sizes the node tables. The dedup index grows on demand:
  /// reserving it from the statement count raised 2obj's peak RSS on
  /// scale-xl by 0.5 MB.
  void reserveHint(std::size_t Nodes) {
    Succ.reserve(Nodes);
    Pred.reserve(Nodes);
  }

  const std::vector<PFGEdge> &succ(PtrId P) const {
    return P < Succ.size() ? Succ[P] : EmptyEdges;
  }
  const std::vector<PtrId> &pred(PtrId P) const {
    return P < Pred.size() ? Pred[P] : EmptyPreds;
  }

  uint64_t numEdges() const { return NumEdges; }

private:
  static bool hasEdge(const std::vector<PFGEdge> &Out, PtrId T,
                      TypeId Filter) {
    return std::any_of(Out.begin(), Out.end(), [&](const PFGEdge &E) {
      return E.To == T && E.Filter == Filter;
    });
  }

  void ensure(PtrId P) {
    if (P >= Succ.size()) {
      Succ.resize(P + 1);
      Pred.resize(P + 1);
    }
  }

  /// Sources with at most this many out-edges dedup by linear scan.
  static constexpr std::size_t SmallDegree = 8;

  std::vector<std::vector<PFGEdge>> Succ;
  std::vector<std::vector<PtrId>> Pred;
  /// packPair(s, t) -> the first filter added for the pair, for sources
  /// with more than SmallDegree out-edges.
  FlatTable<TypeId> Index;
  uint64_t NumEdges = 0;

  inline static const std::vector<PFGEdge> EmptyEdges{};
  inline static const std::vector<PtrId> EmptyPreds{};
};

} // namespace csc

#endif // CSC_PTA_POINTERFLOWGRAPH_H
