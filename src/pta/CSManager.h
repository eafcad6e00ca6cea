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

#include "support/FlatTable.h"
#include "support/Hash.h"
#include "support/Ids.h"

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
    // The empty context indexes densely by VarId: the CI-based analyses
    // (CI itself and Cut-Shortcut) intern every variable there, and the
    // lookup sits on the propagation hot path. Other contexts go through
    // the flat table.
    if (C == EmptyCtx)
      return internDense(VarPtrCI, V, PtrKind::Var, V, C);
    return internPtr(VarPtrs, V, C, PtrKind::Var);
  }
  PtrId getFieldPtr(CSObjId O, FieldId F) {
    return internPtr(FieldPtrs, O, F, PtrKind::Field);
  }
  PtrId getArrayPtr(CSObjId O) {
    return internDense(ArrayPtrs, O, PtrKind::Array, O, 0);
  }
  PtrId getStaticPtr(FieldId F) {
    return internDense(StaticPtrs, F, PtrKind::Static, F, 0);
  }

  CSObjId getCSObj(ObjId O, CtxId HeapCtx) {
    if (HeapCtx == EmptyCtx) {
      if (O >= CSObjCI.size())
        CSObjCI.resize(O + 1, InvalidId);
      if (CSObjCI[O] == InvalidId)
        CSObjCI[O] = newCSObj(O, HeapCtx);
      return CSObjCI[O];
    }
    auto [Id, Inserted] = CSObjIndex.insert(packPair(O, HeapCtx),
                                            numCSObjs());
    if (Inserted)
      newCSObj(O, HeapCtx);
    return Id;
  }

  /// Pre-sizes the descriptor tables from the program's entity counts.
  void reserveHint(std::size_t Vars, std::size_t Objs) {
    Ptrs.reserve(Vars + 2 * Objs);
    CSObjs.reserve(Objs);
  }

  const PtrInfo &ptr(PtrId P) const { return Ptrs[P]; }
  const CSObjInfo &csObj(CSObjId O) const { return CSObjs[O]; }

  uint32_t numPtrs() const { return static_cast<uint32_t>(Ptrs.size()); }
  uint32_t numCSObjs() const { return static_cast<uint32_t>(CSObjs.size()); }

private:
  static constexpr CtxId EmptyCtx = 0; ///< ContextManager::empty().

  PtrId newPtr(PtrKind Kind, uint32_t A, uint32_t B) {
    Ptrs.push_back({Kind, A, B});
    return numPtrs() - 1;
  }

  CSObjId newCSObj(ObjId O, CtxId HeapCtx) {
    CSObjs.push_back({O, HeapCtx});
    return numCSObjs() - 1;
  }

  /// A pointer keyed by one dense id: \p Index[I] is its id.
  PtrId internDense(std::vector<PtrId> &Index, uint32_t I, PtrKind Kind,
                    uint32_t A, uint32_t B) {
    if (I >= Index.size())
      Index.resize(I + 1, InvalidId);
    if (Index[I] == InvalidId)
      Index[I] = newPtr(Kind, A, B);
    return Index[I];
  }

  /// A pointer keyed by the pair (\p A, \p B).
  PtrId internPtr(FlatTable<PtrId> &Index, uint32_t A, uint32_t B,
                  PtrKind Kind) {
    auto [Id, Inserted] = Index.insert(packPair(A, B), numPtrs());
    if (Inserted)
      newPtr(Kind, A, B);
    return Id;
  }

  std::vector<PtrInfo> Ptrs;
  std::vector<CSObjInfo> CSObjs;

  // Each key has exactly one index: the dense tables for the empty
  // context and for single-id keys, the flat tables for the rest.
  std::vector<PtrId> VarPtrCI;     ///< By VarId, empty context only.
  std::vector<PtrId> ArrayPtrs;    ///< By CSObjId.
  std::vector<PtrId> StaticPtrs;   ///< By FieldId.
  std::vector<CSObjId> CSObjCI;    ///< By ObjId, empty heap context only.
  FlatTable<PtrId> VarPtrs;        ///< (VarId, CtxId), other contexts.
  FlatTable<PtrId> FieldPtrs;      ///< (CSObjId, FieldId).
  FlatTable<CSObjId> CSObjIndex;   ///< (ObjId, CtxId), other contexts.
};

} // namespace csc

#endif // CSC_PTA_CSMANAGER_H
