//===- ResultCodec.cpp - Binary (de)serialization of analysis runs --------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "store/ResultCodec.h"

#include <algorithm>

using namespace csc;

namespace {

/// A points-to set as u32 count + ascending ids (forEach iterates
/// ascending in both representations, so the encoding is canonical).
void writeSet(const PointsToSet &S, BinaryWriter &W) {
  W.u32(S.size());
  S.forEach([&](uint32_t O) { W.u32(O); });
}

bool readSet(BinaryReader &R, PointsToSet &Out) {
  uint32_t N;
  if (!R.u32(N) || !R.fits(N, 4))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t O;
    if (!R.u32(O))
      return false;
    Out.insert(O);
  }
  return true;
}

bool setsEqual(const PointsToSet &A, const PointsToSet &B) {
  if (A.size() != B.size())
    return false;
  bool Equal = true;
  A.forEach([&](uint32_t O) { Equal = Equal && B.contains(O); });
  return Equal;
}

/// Sorted key snapshot of an unordered map — the canonical iteration
/// order every map-valued field is serialized in.
template <typename Map>
std::vector<typename Map::key_type> sortedKeys(const Map &M) {
  std::vector<typename Map::key_type> Keys;
  Keys.reserve(M.size());
  for (const auto &KV : M)
    Keys.push_back(KV.first);
  std::sort(Keys.begin(), Keys.end());
  return Keys;
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

  W.u32(static_cast<uint32_t>(R.VarPts.size()));
  for (const PointsToSet &P : R.VarPts)
    writeSet(P, W);

  W.u32(static_cast<uint32_t>(R.FieldPts.size()));
  for (const auto &Key : sortedKeys(R.FieldPts)) {
    W.u32(Key.first);
    W.u32(Key.second);
    writeSet(R.FieldPts.at(Key), W);
  }

  W.u32(static_cast<uint32_t>(R.ArrayPts.size()));
  for (uint32_t Key : sortedKeys(R.ArrayPts)) {
    W.u32(Key);
    writeSet(R.ArrayPts.at(Key), W);
  }

  W.u32(static_cast<uint32_t>(R.StaticPts.size()));
  for (uint32_t Key : sortedKeys(R.StaticPts)) {
    W.u32(Key);
    writeSet(R.StaticPts.at(Key), W);
  }

  W.u32(static_cast<uint32_t>(R.CalleesPerSite.size()));
  for (const std::vector<MethodId> &Callees : R.CalleesPerSite) {
    W.u32(static_cast<uint32_t>(Callees.size()));
    for (MethodId M : Callees)
      W.u32(M);
  }

  std::vector<MethodId> Reach(R.Reachable.begin(), R.Reachable.end());
  std::sort(Reach.begin(), Reach.end());
  W.u32(static_cast<uint32_t>(Reach.size()));
  for (MethodId M : Reach)
    W.u32(M);

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

  uint32_t N;
  if (!R.u32(N) || !R.fits(N, 4)) // each set is >= 4 bytes (its count)
    return false;
  Out.VarPts.resize(N);
  for (uint32_t I = 0; I != N; ++I)
    if (!readSet(R, Out.VarPts[I]))
      return false;

  if (!R.u32(N) || !R.fits(N, 12))
    return false;
  Out.FieldPts.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t O, F;
    if (!R.u32(O) || !R.u32(F) || !readSet(R, Out.FieldPts[{O, F}]))
      return false;
  }

  if (!R.u32(N) || !R.fits(N, 8))
    return false;
  Out.ArrayPts.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t O;
    if (!R.u32(O) || !readSet(R, Out.ArrayPts[O]))
      return false;
  }

  if (!R.u32(N) || !R.fits(N, 8))
    return false;
  Out.StaticPts.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t F;
    if (!R.u32(F) || !readSet(R, Out.StaticPts[F]))
      return false;
  }

  if (!R.u32(N) || !R.fits(N, 4))
    return false;
  Out.CalleesPerSite.resize(N);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t K;
    if (!R.u32(K) || !R.fits(K, 4))
      return false;
    Out.CalleesPerSite[I].resize(K);
    for (uint32_t J = 0; J != K; ++J)
      if (!R.u32(Out.CalleesPerSite[I][J]))
        return false;
  }

  if (!R.u32(N) || !R.fits(N, 4))
    return false;
  Out.Reachable.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t M;
    if (!R.u32(M))
      return false;
    Out.Reachable.insert(M);
  }

  return R.u64(Out.NumCallEdgesCI);
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

  if (A.VarPts.size() != B.VarPts.size() ||
      A.FieldPts.size() != B.FieldPts.size() ||
      A.ArrayPts.size() != B.ArrayPts.size() ||
      A.StaticPts.size() != B.StaticPts.size() ||
      A.CalleesPerSite.size() != B.CalleesPerSite.size() ||
      A.Reachable.size() != B.Reachable.size() ||
      A.NumCallEdgesCI != B.NumCallEdgesCI)
    return false;

  for (size_t I = 0; I != A.VarPts.size(); ++I)
    if (!setsEqual(A.VarPts[I], B.VarPts[I]))
      return false;
  for (const auto &[Key, Set] : A.FieldPts) {
    auto It = B.FieldPts.find(Key);
    if (It == B.FieldPts.end() || !setsEqual(Set, It->second))
      return false;
  }
  for (const auto &[Key, Set] : A.ArrayPts) {
    auto It = B.ArrayPts.find(Key);
    if (It == B.ArrayPts.end() || !setsEqual(Set, It->second))
      return false;
  }
  for (const auto &[Key, Set] : A.StaticPts) {
    auto It = B.StaticPts.find(Key);
    if (It == B.StaticPts.end() || !setsEqual(Set, It->second))
      return false;
  }
  for (size_t I = 0; I != A.CalleesPerSite.size(); ++I)
    if (A.CalleesPerSite[I] != B.CalleesPerSite[I])
      return false;
  for (MethodId M : A.Reachable)
    if (!B.Reachable.count(M))
      return false;
  return true;
}

std::string csc::serializeStoredResult(const StoredResult &S) {
  BinaryWriter W;
  W.u8(statusByte(S.Status));
  W.str(S.Error);
  W.u32(S.Metrics.FailCasts);
  W.u32(S.Metrics.ReachMethods);
  W.u32(S.Metrics.PolyCalls);
  W.u64(S.Metrics.CallEdges);
  W.str(S.RunJson);
  W.u32(S.SelectedMethods);
  W.u64(S.CutStores);
  W.u64(S.CutReturns);
  W.u64(S.ShortcutEdges);
  W.u32(static_cast<uint32_t>(S.InvolvedMethods.size()));
  for (MethodId M : S.InvolvedMethods)
    W.u32(M);
  serializePTAResult(S.Result, W);
  return W.take();
}

bool csc::deserializeStoredResult(const std::string &Bytes,
                                  StoredResult &Out) {
  BinaryReader R(Bytes);
  uint8_t Status;
  if (!R.u8(Status) || !readStatus(Status, Out.Status) ||
      !R.str(Out.Error) || !R.u32(Out.Metrics.FailCasts) ||
      !R.u32(Out.Metrics.ReachMethods) || !R.u32(Out.Metrics.PolyCalls) ||
      !R.u64(Out.Metrics.CallEdges) || !R.str(Out.RunJson) ||
      !R.u32(Out.SelectedMethods) || !R.u64(Out.CutStores) ||
      !R.u64(Out.CutReturns) || !R.u64(Out.ShortcutEdges))
    return false;
  uint32_t N;
  if (!R.u32(N) || !R.fits(N, 4))
    return false;
  Out.InvolvedMethods.resize(N);
  for (uint32_t I = 0; I != N; ++I)
    if (!R.u32(Out.InvolvedMethods[I]))
      return false;
  // The result must consume the rest of the value exactly — trailing
  // bytes mean a framing bug or format skew, either way not this entry.
  return deserializePTAResult(R, Out.Result) && R.atEnd();
}

StoredResult csc::storedFromRun(const AnalysisRun &Run,
                                std::string RunJson) {
  StoredResult S;
  S.Status = Run.Status;
  S.Error = Run.Error;
  S.Metrics = Run.Metrics;
  S.RunJson = std::move(RunJson);
  S.SelectedMethods = Run.SelectedMethods;
  S.CutStores = Run.Csc.CutStores;
  S.CutReturns = Run.Csc.CutReturns;
  S.ShortcutEdges = Run.Csc.ShortcutEdges;
  S.InvolvedMethods.assign(Run.Csc.Involved.begin(),
                           Run.Csc.Involved.end());
  std::sort(S.InvolvedMethods.begin(), S.InvolvedMethods.end());
  S.Result = Run.Result;
  return S;
}

AnalysisRun csc::runFromStored(const StoredResult &S) {
  AnalysisRun Run;
  Run.Status = S.Status;
  Run.Error = S.Error;
  Run.Metrics = S.Metrics;
  Run.SelectedMethods = S.SelectedMethods;
  Run.Csc.CutStores = S.CutStores;
  Run.Csc.CutReturns = S.CutReturns;
  Run.Csc.ShortcutEdges = S.ShortcutEdges;
  Run.Csc.Involved.insert(S.InvolvedMethods.begin(),
                          S.InvolvedMethods.end());
  Run.Result = S.Result;
  return Run;
}
