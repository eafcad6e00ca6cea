//===- CSManager.h - Context-sensitive entity interning ---------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns the context-sensitive pointers and objects the solver works on:
/// (variable, context) pairs, (object, field) instance-field pointers,
/// array-element pointers, static-field pointers, and (allocation site,
/// heap context) abstract objects. All pointers share one dense PtrId space
/// so per-pointer solver state is plain array indexing.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_PTA_CSMANAGER_H
#define CSC_PTA_CSMANAGER_H

#include "support/DenseTable.h"
#include "support/Hash.h"
#include "support/Ids.h"

#include <unordered_map>
#include <vector>

namespace csc {

enum class PtrKind : uint8_t { Var, Field, Array, Static };

/// Descriptor of an interned pointer. Slot meaning depends on Kind:
///  Var:    A = VarId,   B = CtxId
///  Field:  A = CSObjId, B = FieldId
///  Array:  A = CSObjId
///  Static: A = FieldId
struct PtrInfo {
  PtrKind Kind;
  uint32_t A = InvalidId;
  uint32_t B = InvalidId;
};

/// An abstract object qualified by its heap context.
struct CSObjInfo {
  ObjId O = InvalidId;
  CtxId HeapCtx = InvalidId;
};

class CSManager {
public:
  PtrId getVarPtr(VarId V, CtxId C) {
    // Dense fast path for the empty context: the CI-based analyses (CI
    // itself and Cut-Shortcut) intern every variable there, and the
    // lookup sits on the propagation hot path.
    if (C == EmptyCtx) {
      PtrId Cached = denseGet(VarPtrCI, V, InvalidId);
      if (Cached != InvalidId)
        return Cached;
      PtrId Id = internPtr(VarPtrs, {V, C}, PtrKind::Var, V, C);
      denseAssign(VarPtrCI, V, Id, InvalidId);
      return Id;
    }
    return internPtr(VarPtrs, {V, C}, PtrKind::Var, V, C);
  }
  PtrId getFieldPtr(CSObjId O, FieldId F) {
    // Objects have a handful of fields: a per-object (field, ptr) list
    // beats hashing on the hot path.
    if (O >= FieldPtrCache.size())
      FieldPtrCache.resize(O + 1);
    for (const auto &[CachedF, CachedP] : FieldPtrCache[O])
      if (CachedF == F)
        return CachedP;
    PtrId Id = internPtr(FieldPtrs, {O, F}, PtrKind::Field, O, F);
    FieldPtrCache[O].emplace_back(F, Id);
    return Id;
  }
  PtrId getArrayPtr(CSObjId O) {
    PtrId Cached = denseGet(ArrayPtrCI, O, InvalidId);
    if (Cached != InvalidId)
      return Cached;
    PtrId Id = internPtr(ArrayPtrs, {O, 0}, PtrKind::Array, O, 0);
    denseAssign(ArrayPtrCI, O, Id, InvalidId);
    return Id;
  }
  PtrId getStaticPtr(FieldId F) {
    PtrId Cached = denseGet(StaticPtrCI, F, InvalidId);
    if (Cached != InvalidId)
      return Cached;
    PtrId Id = internPtr(StaticPtrs, {F, 0}, PtrKind::Static, F, 0);
    denseAssign(StaticPtrCI, F, Id, InvalidId);
    return Id;
  }

  CSObjId getCSObj(ObjId O, CtxId HeapCtx) {
    if (HeapCtx == EmptyCtx) {
      CSObjId Cached = denseGet(CSObjCI, O, InvalidId);
      if (Cached != InvalidId)
        return Cached;
      CSObjId Id = internCSObj(O, HeapCtx);
      denseAssign(CSObjCI, O, Id, InvalidId);
      return Id;
    }
    return internCSObj(O, HeapCtx);
  }

  /// Pre-sizes the interning tables from the program's entity counts.
  void reserveHint(std::size_t Vars, std::size_t Objs) {
    Ptrs.reserve(Vars + 2 * Objs);
    VarPtrs.reserve(Vars);
    FieldPtrs.reserve(2 * Objs);
    CSObjs.reserve(Objs);
    CSObjIndex.reserve(Objs);
    FieldPtrCache.reserve(Objs);
  }

  const PtrInfo &ptr(PtrId P) const { return Ptrs[P]; }
  const CSObjInfo &csObj(CSObjId O) const { return CSObjs[O]; }

  uint32_t numPtrs() const { return static_cast<uint32_t>(Ptrs.size()); }
  uint32_t numCSObjs() const { return static_cast<uint32_t>(CSObjs.size()); }

private:
  using Key = std::pair<uint32_t, uint32_t>;
  using Map = std::unordered_map<Key, PtrId, PairHash>;

  static constexpr CtxId EmptyCtx = 0; ///< ContextManager::empty().

  PtrId internPtr(Map &M, Key K, PtrKind Kind, uint32_t A, uint32_t B) {
    auto It = M.find(K);
    if (It != M.end())
      return It->second;
    PtrId Id = static_cast<PtrId>(Ptrs.size());
    Ptrs.push_back({Kind, A, B});
    M.emplace(K, Id);
    return Id;
  }

  CSObjId internCSObj(ObjId O, CtxId HeapCtx) {
    auto Key = std::make_pair(O, HeapCtx);
    auto It = CSObjIndex.find(Key);
    if (It != CSObjIndex.end())
      return It->second;
    CSObjId Id = static_cast<CSObjId>(CSObjs.size());
    CSObjs.push_back({O, HeapCtx});
    CSObjIndex.emplace(Key, Id);
    return Id;
  }

  std::vector<PtrInfo> Ptrs;
  Map VarPtrs, FieldPtrs, ArrayPtrs, StaticPtrs;
  std::vector<CSObjInfo> CSObjs;
  std::unordered_map<Key, CSObjId, PairHash> CSObjIndex;

  // Dense hot-path caches over the hash maps above (see the getters).
  std::vector<PtrId> VarPtrCI;    ///< By VarId, empty context only.
  std::vector<PtrId> ArrayPtrCI;  ///< By CSObjId.
  std::vector<PtrId> StaticPtrCI; ///< By FieldId.
  std::vector<CSObjId> CSObjCI;   ///< By ObjId, empty heap context only.
  std::vector<std::vector<std::pair<FieldId, PtrId>>> FieldPtrCache;
};

} // namespace csc

#endif // CSC_PTA_CSMANAGER_H
