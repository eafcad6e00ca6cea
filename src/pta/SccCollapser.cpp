//===- SccCollapser.cpp - PFG cycle elimination ---------------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "pta/SccCollapser.h"

#include <algorithm>
#include <cassert>

using namespace csc;

void SccCollapser::reserveHint(std::size_t Nodes) {
  Size.reserve(Nodes);
  Order.reserve(Nodes);
}

void SccCollapser::ensureNode(PtrId P) {
  if (P < Order.size())
    return;
  std::size_t Old = Order.size();
  Size.resize(P + 1, 1);
  Order.resize(P + 1);
  // Creation order approximates topological order until the first full
  // pass: edges mostly point from earlier-discovered to later-discovered
  // pointers. Ids always exceed every pass-assigned order (the pass emits
  // fewer SCCs than there are nodes), so post-pass nodes sort last.
  for (std::size_t I = Old; I <= P; ++I)
    Order[I] = static_cast<uint32_t>(I);
}

void SccCollapser::fullPass(std::vector<std::vector<PtrId>> &SccsOut,
                            uint64_t WorkDone) {
  ++Stats.FullPasses;
  const uint32_t N = static_cast<uint32_t>(Order.size());

  // Materialize the representative-level unfiltered graph once (CSR):
  // the pass is O(V+E) anyway and a compact transient copy beats chasing
  // member lists from inside the Tarjan loops.
  std::vector<uint32_t> Head(N + 1, 0);
  for (PtrId P = 0; P < N; ++P) {
    PtrId R = rep(P);
    for (const PFGEdge &E : PFG.succ(P))
      if (E.Filter == InvalidId && rep(E.To) != R)
        ++Head[R + 1];
  }
  for (uint32_t I = 0; I < N; ++I)
    Head[I + 1] += Head[I];
  std::vector<PtrId> Adj(Head[N]);
  {
    std::vector<uint32_t> Fill(Head.begin(), Head.end() - 1);
    for (PtrId P = 0; P < N; ++P) {
      PtrId R = rep(P);
      for (const PFGEdge &E : PFG.succ(P)) {
        PtrId T = E.Filter == InvalidId ? rep(E.To) : R;
        if (T != R)
          Adj[Fill[R]++] = T;
      }
    }
  }

  // Iterative Tarjan over the condensed graph. Emission order is reverse
  // topological (sink components first), which doubles as the order
  // refresh: SCC k of K gets order K-1-k, so sources sort before sinks
  // in the worklist.
  std::vector<uint32_t> Index(N, InvalidId), Lowlink(N, 0);
  std::vector<uint32_t> SccIx(N, InvalidId);
  std::vector<uint8_t> OnStack(N, 0);
  std::vector<PtrId> TarjanStack;
  struct Frame {
    PtrId Node;
    uint32_t EdgeIx;
  };
  std::vector<Frame> Dfs;
  uint32_t NextIndex = 0, NumSccs = 0;
  std::vector<PtrId> Comp;

  for (PtrId Root = 0; Root < N; ++Root) {
    if (Index[Root] != InvalidId || rep(Root) != Root)
      continue;
    Dfs.push_back({Root, Head[Root]});
    Index[Root] = Lowlink[Root] = NextIndex++;
    TarjanStack.push_back(Root);
    OnStack[Root] = 1;
    while (!Dfs.empty()) {
      Frame &F = Dfs.back();
      bool Descended = false;
      while (F.EdgeIx < Head[F.Node + 1]) {
        PtrId W = Adj[F.EdgeIx++];
        if (Index[W] == InvalidId) {
          Index[W] = Lowlink[W] = NextIndex++;
          TarjanStack.push_back(W);
          OnStack[W] = 1;
          Dfs.push_back({W, Head[W]});
          Descended = true;
          break;
        }
        if (OnStack[W] && Index[W] < Lowlink[F.Node])
          Lowlink[F.Node] = Index[W];
      }
      if (Descended)
        continue;
      // F.Node finished: emit its SCC if it is a root.
      PtrId Done = F.Node;
      if (Lowlink[Done] == Index[Done]) {
        Comp.clear();
        for (;;) {
          PtrId M = TarjanStack.back();
          TarjanStack.pop_back();
          OnStack[M] = 0;
          SccIx[M] = NumSccs;
          Comp.push_back(M);
          if (M == Done)
            break;
        }
        ++NumSccs;
        if (Comp.size() > 1)
          SccsOut.push_back(Comp);
      }
      Dfs.pop_back();
      if (!Dfs.empty() && Lowlink[Done] < Lowlink[Dfs.back().Node])
        Lowlink[Dfs.back().Node] = Lowlink[Done];
    }
  }

  for (PtrId P = 0; P < N; ++P)
    if (SccIx[P] != InvalidId)
      Order[P] = NumSccs - 1 - SccIx[P];

  EdgesSincePass = 0;
  PassEdgeThreshold = std::max<uint64_t>(256, NumEdges);
  // Productive passes re-check soon (×2 work); unproductive ones back
  // off (×4), and after two unproductive passes in a row the work
  // trigger retires entirely — the standing cycles are collapsed, and
  // genuinely new structure re-arms scheduling through the edge-growth
  // trigger (and the fixpoint pass) instead.
  if (SccsOut.empty()) {
    if (++UnproductivePasses >= 2)
      NextPassWork = ~0ULL;
    else
      NextPassWork = std::max<uint64_t>(4 * WorkDone, 16 * 1024);
  } else {
    UnproductivePasses = 0;
    NextPassWork = std::max<uint64_t>(2 * WorkDone, 16 * 1024);
  }
}

PtrId SccCollapser::mergeClass(const std::vector<PtrId> &Reps) {
  assert(Reps.size() >= 2 && "nothing to merge");

  // Snapshot per-class state before the union-find rewires rep().
  std::vector<PtrId> AllMembers;
  uint32_t MinOrder = InvalidId;
  uint64_t Total = 0;
  for (PtrId R : Reps) {
    ensureNode(R);
    Total += Size[R];
    MinOrder = std::min(MinOrder, Order[R]);
    if (const std::vector<PtrId> *M = membersOrNull(R))
      AllMembers.insert(AllMembers.end(), M->begin(), M->end());
    else
      AllMembers.push_back(R);
    Members.erase(R);
  }

  PtrId W = Reps[0];
  uint32_t WinnerPrevSize = Size[W];
  for (std::size_t I = 1; I < Reps.size(); ++I) {
    uint32_t SizeI = Size[Reps[I]];
    if (UF.unite(W, Reps[I], W) && W == Reps[I])
      WinnerPrevSize = SizeI;
  }

  Size[W] = static_cast<uint32_t>(Total);
  Order[W] = MinOrder;
  std::sort(AllMembers.begin(), AllMembers.end());
  // Mark everyone but the winner absorbed (rep()'s fast-path bitset).
  std::size_t NeedWords =
      (static_cast<std::size_t>(AllMembers.back()) >> 6) + 1;
  if (Absorbed.size() < NeedWords)
    Absorbed.resize(NeedWords, 0);
  for (PtrId M : AllMembers)
    if (M != W)
      Absorbed[M >> 6] |= 1ULL << (M & 63);
  ++Stats.SccsFound;
  Stats.MembersCollapsed += Total - WinnerPrevSize;
  Members[W] = std::move(AllMembers);
  return W;
}
