//===- ResultCodec.cpp - Binary (de)serialization of analysis runs --------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "store/ResultCodec.h"

#include <algorithm>
#include <tuple>
#include <vector>

using namespace csc;

namespace {

// Ids, counts and pool indices are LEB128 varints (BinaryWriter::uvar):
// most are small, and the reader accepts only shortest forms, so the
// encoding stays canonical. Every varint is at least one byte, which is
// what the fits() guards below assume.

/// A pool set as count + ascending ids (forEach iterates ascending in
/// both representations, so the encoding is canonical).
void writeSet(const PointsToSet &S, BinaryWriter &W) {
  W.uvar(S.size());
  S.forEach([&](uint32_t O) { W.uvar(O); });
}

/// Reads one pool set: non-empty, ids strictly ascending.
bool readSet(BinaryReader &R, PointsToSet &Out) {
  uint32_t N;
  if (!R.uvar(N) || N == 0 || !R.fits(N, 1))
    return false;
  uint32_t Prev = 0;
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t O;
    if (!R.uvar(O) || (I != 0 && O <= Prev))
      return false;
    Out.insert(O);
    Prev = O;
  }
  return true;
}

template <typename Container>
void writeIds(const Container &Ids, BinaryWriter &W) {
  W.uvar(static_cast<uint32_t>(Ids.size()));
  for (uint32_t Id : Ids)
    W.uvar(Id);
}

/// Reads a count + strictly ascending ids into \p Out.
template <typename Container>
bool readAscending(BinaryReader &R, Container &Out) {
  uint32_t N;
  if (!R.uvar(N) || !R.fits(N, 1))
    return false;
  uint32_t Prev = 0;
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t Id;
    if (!R.uvar(Id) || (I != 0 && Id <= Prev))
      return false;
    Out.insert(Out.end(), Id);
    Prev = Id;
  }
  return true;
}

/// Pool indices must appear in first-use order: each one either names a
/// set already used or is the next unused one. Index 0 (the empty set)
/// is only valid for vars.
struct FirstUse {
  uint32_t PoolSize;
  uint32_t Used = 0;
  bool take(uint32_t Set, bool AllowEmpty) {
    if (Set == 0)
      return AllowEmpty;
    if (Set > Used + 1 || Set > PoolSize)
      return false;
    Used += Set == Used + 1;
    return true;
  }
};

/// A keyed table: count, then (A[, B], pool index) per key, keys
/// strictly ascending. \p Pair says whether B is stored (Field only).
void writeTable(const std::vector<KeyedSet> &Table, bool Pair,
                BinaryWriter &W) {
  W.uvar(static_cast<uint32_t>(Table.size()));
  for (const KeyedSet &K : Table) {
    W.uvar(K.A);
    if (Pair)
      W.uvar(K.B);
    W.uvar(K.Set);
  }
}

bool readTable(BinaryReader &R, bool Pair, FirstUse &Sets,
               std::vector<KeyedSet> &Out) {
  uint32_t N;
  if (!R.uvar(N) || !R.fits(N, Pair ? 3 : 2))
    return false;
  Out.resize(N);
  for (uint32_t I = 0; I != N; ++I) {
    KeyedSet &K = Out[I];
    K.B = 0;
    if (!R.uvar(K.A) || (Pair && !R.uvar(K.B)) || !R.uvar(K.Set) ||
        !Sets.take(K.Set, /*AllowEmpty=*/false))
      return false;
    if (I != 0 && std::tie(Out[I - 1].A, Out[I - 1].B) >= std::tie(K.A, K.B))
      return false;
  }
  return true;
}

bool readStatus(uint8_t Raw, RunStatus &Out) {
  switch (Raw) {
  case 0:
    Out = RunStatus::Completed;
    return true;
  case 1:
    Out = RunStatus::BudgetExhausted;
    return true;
  case 2:
    Out = RunStatus::SpecError;
    return true;
  default:
    return false;
  }
}

uint8_t statusByte(RunStatus S) {
  return S == RunStatus::Completed         ? 0
         : S == RunStatus::BudgetExhausted ? 1
                                           : 2;
}

} // namespace

void csc::serializePTAResult(const PTAResult &R, BinaryWriter &W) {
  W.u8(R.Exhausted ? 1 : 0);
  W.f64(R.TimeMs);

  const SolverStats &S = R.Stats;
  W.u64(S.PtsInsertions);
  W.u64(S.PFGEdges);
  W.u64(S.WorklistPops);
  W.u64(S.CallEdgesCS);
  W.u32(S.NumPtrs);
  W.u32(S.NumCSObjs);
  W.u32(S.NumContexts);
  W.u32(S.ReachableCS);
  W.u32(S.ReachableCI);
  W.u64(S.Scc.SccsFound);
  W.u64(S.Scc.MembersCollapsed);
  W.u64(S.Scc.FullPasses);
  W.u64(S.Scc.PropagationsSaved);

  // The pool is canonical in memory (first-use order), so it is written
  // as it is: its non-empty sets, then every key's pool index.
  W.uvar(static_cast<uint32_t>(R.Pool.size() - 1));
  for (size_t I = 1; I < R.Pool.size(); ++I)
    writeSet(R.Pool[I], W);
  writeIds(R.VarSets, W);
  writeTable(R.FieldSets, /*Pair=*/true, W);
  writeTable(R.ArraySets, /*Pair=*/false, W);
  writeTable(R.StaticSets, /*Pair=*/false, W);

  W.uvar(static_cast<uint32_t>(R.CalleesPerSite.size()));
  for (const std::vector<MethodId> &Callees : R.CalleesPerSite)
    writeIds(Callees, W);

  std::vector<MethodId> Reach(R.Reachable.begin(), R.Reachable.end());
  std::sort(Reach.begin(), Reach.end());
  writeIds(Reach, W);

  W.u64(R.NumCallEdgesCI);
}

bool csc::deserializePTAResult(BinaryReader &R, PTAResult &Out) {
  uint8_t Exhausted;
  if (!R.u8(Exhausted) || Exhausted > 1 || !R.f64(Out.TimeMs))
    return false;
  Out.Exhausted = Exhausted != 0;

  SolverStats &S = Out.Stats;
  if (!R.u64(S.PtsInsertions) || !R.u64(S.PFGEdges) ||
      !R.u64(S.WorklistPops) || !R.u64(S.CallEdgesCS) ||
      !R.u32(S.NumPtrs) || !R.u32(S.NumCSObjs) || !R.u32(S.NumContexts) ||
      !R.u32(S.ReachableCS) || !R.u32(S.ReachableCI) ||
      !R.u64(S.Scc.SccsFound) || !R.u64(S.Scc.MembersCollapsed) ||
      !R.u64(S.Scc.FullPasses) || !R.u64(S.Scc.PropagationsSaved))
    return false;

  // Pool sets decode straight into the pool. The interner rejects a
  // second copy of a set, so a decoded pool is one copy of each.
  uint32_t N;
  if (!R.uvar(N) || !R.fits(N, 2)) // each set is >= 2 bytes
    return false;
  Out.Pool.assign(1, PointsToSet());
  PointsToSetInterner Interner(Out.Pool);
  for (uint32_t I = 0; I != N; ++I) {
    PointsToSet Set;
    if (!readSet(R, Set) || Interner.intern(std::move(Set)) != I + 1)
      return false;
  }
  FirstUse Sets{N};
  if (!R.uvar(N) || !R.fits(N, 1))
    return false;
  Out.VarSets.resize(N);
  for (uint32_t &Set : Out.VarSets)
    if (!R.uvar(Set) || !Sets.take(Set, /*AllowEmpty=*/true))
      return false;
  if (!readTable(R, /*Pair=*/true, Sets, Out.FieldSets) ||
      !readTable(R, /*Pair=*/false, Sets, Out.ArraySets) ||
      !readTable(R, /*Pair=*/false, Sets, Out.StaticSets) ||
      Sets.Used != Sets.PoolSize) // every pool set is some key's
    return false;

  if (!R.uvar(N) || !R.fits(N, 1))
    return false;
  Out.CalleesPerSite.assign(N, {});
  for (std::vector<MethodId> &Callees : Out.CalleesPerSite)
    if (!readAscending(R, Callees))
      return false;
  Out.Reachable.clear();
  return readAscending(R, Out.Reachable) && R.u64(Out.NumCallEdgesCI);
}

bool csc::resultsEqual(const PTAResult &A, const PTAResult &B) {
  const SolverStats &SA = A.Stats, &SB = B.Stats;
  if (A.Exhausted != B.Exhausted || A.TimeMs != B.TimeMs ||
      SA.PtsInsertions != SB.PtsInsertions || SA.PFGEdges != SB.PFGEdges ||
      SA.WorklistPops != SB.WorklistPops ||
      SA.CallEdgesCS != SB.CallEdgesCS || SA.NumPtrs != SB.NumPtrs ||
      SA.NumCSObjs != SB.NumCSObjs || SA.NumContexts != SB.NumContexts ||
      SA.ReachableCS != SB.ReachableCS ||
      SA.ReachableCI != SB.ReachableCI ||
      SA.Scc.SccsFound != SB.Scc.SccsFound ||
      SA.Scc.MembersCollapsed != SB.Scc.MembersCollapsed ||
      SA.Scc.FullPasses != SB.Scc.FullPasses ||
      SA.Scc.PropagationsSaved != SB.Scc.PropagationsSaved)
    return false;

  // Pools are canonical, so equal projections have equal pools and
  // equal index tables.
  auto SameTable = [](const std::vector<KeyedSet> &X,
                      const std::vector<KeyedSet> &Y) {
    return std::equal(X.begin(), X.end(), Y.begin(), Y.end(),
                      [](const KeyedSet &P, const KeyedSet &Q) {
                        return P.A == Q.A && P.B == Q.B && P.Set == Q.Set;
                      });
  };
  return A.Pool == B.Pool && A.VarSets == B.VarSets &&
         SameTable(A.FieldSets, B.FieldSets) &&
         SameTable(A.ArraySets, B.ArraySets) &&
         SameTable(A.StaticSets, B.StaticSets) &&
         A.CalleesPerSite == B.CalleesPerSite &&
         A.Reachable == B.Reachable && A.NumCallEdgesCI == B.NumCallEdgesCI;
}

void csc::serializeStoredResult(const AnalysisRun &Run,
                                const std::string &RunJson, BinaryWriter &W) {
  W.u8(statusByte(Run.Status));
  W.str(Run.Error);
  W.u32(Run.Metrics.FailCasts);
  W.u32(Run.Metrics.ReachMethods);
  W.u32(Run.Metrics.PolyCalls);
  W.u64(Run.Metrics.CallEdges);
  W.str(RunJson);
  W.u32(Run.SelectedMethods);
  W.u64(Run.Csc.CutStores);
  W.u64(Run.Csc.CutReturns);
  W.u64(Run.Csc.ShortcutEdges);
  std::vector<MethodId> Involved(Run.Csc.Involved.begin(),
                                 Run.Csc.Involved.end());
  std::sort(Involved.begin(), Involved.end());
  writeIds(Involved, W);
  serializePTAResult(Run.Result, W);
}

std::string csc::serializeStoredResult(const StoredResult &S) {
  BinaryWriter W;
  serializeStoredResult(S.Run, S.RunJson, W);
  return W.take();
}

bool csc::deserializeStoredResult(const char *Data, size_t Size,
                                  StoredResult &Out) {
  Out = StoredResult();
  AnalysisRun &Run = Out.Run;
  BinaryReader R(Data, Size);
  uint8_t Status;
  // The result must consume the rest of the value exactly — trailing
  // bytes mean a framing bug or format skew, either way not this entry.
  return R.u8(Status) && readStatus(Status, Run.Status) && R.str(Run.Error) &&
         R.u32(Run.Metrics.FailCasts) && R.u32(Run.Metrics.ReachMethods) &&
         R.u32(Run.Metrics.PolyCalls) && R.u64(Run.Metrics.CallEdges) &&
         R.str(Out.RunJson) && R.u32(Run.SelectedMethods) &&
         R.u64(Run.Csc.CutStores) && R.u64(Run.Csc.CutReturns) &&
         R.u64(Run.Csc.ShortcutEdges) && readAscending(R, Run.Csc.Involved) &&
         deserializePTAResult(R, Run.Result) && R.atEnd();
}

bool csc::deserializeStoredResult(const std::string &Bytes,
                                  StoredResult &Out) {
  return deserializeStoredResult(Bytes.data(), Bytes.size(), Out);
}

StoredResult csc::storedFromRun(const AnalysisRun &Run,
                                std::string RunJson) {
  return {Run, std::move(RunJson)};
}
