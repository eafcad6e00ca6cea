//===- ContextSelector.h - Context-sensitivity policies ---------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Context selection policies. The solver is policy-agnostic: CI is the
/// empty selector, 2obj/2type/2cs are k-limiting selectors, and selective
/// context sensitivity (Zipper-e) wraps another selector with a method set.
/// Cut-Shortcut itself runs with the CI selector — "no contexts are applied
/// to any methods" (paper §3.1).
///
//===----------------------------------------------------------------------===//

#ifndef CSC_PTA_CONTEXTSELECTOR_H
#define CSC_PTA_CONTEXTSELECTOR_H

#include "ir/Program.h"
#include "pta/CSManager.h"
#include "pta/Context.h"
#include "support/DenseTable.h"

#include <unordered_set>
#include <vector>

namespace csc {

/// Decides the callee context at call edges and the heap context at
/// allocation sites.
class ContextSelector {
public:
  virtual ~ContextSelector();

  /// Context for \p Callee at a virtual/special call on receiver \p Recv.
  virtual CtxId select(ContextManager &CM, const CSManager &CSM,
                       const Program &P, CtxId CallerCtx, CallSiteId CS,
                       CSObjId Recv, MethodId Callee) = 0;

  /// Context for a static callee.
  virtual CtxId selectStatic(ContextManager &CM, CtxId CallerCtx,
                             CallSiteId CS, MethodId Callee) = 0;

  /// Heap context for an allocation in a method analyzed under \p MethodCtx.
  virtual CtxId selectHeap(ContextManager &CM, CtxId MethodCtx, ObjId O) = 0;
};

/// Context insensitivity: everything under the empty context.
class CISelector : public ContextSelector {
public:
  CtxId select(ContextManager &CM, const CSManager &, const Program &, CtxId,
               CallSiteId, CSObjId, MethodId) override {
    return CM.empty();
  }
  CtxId selectStatic(ContextManager &CM, CtxId, CallSiteId,
                     MethodId) override {
    return CM.empty();
  }
  CtxId selectHeap(ContextManager &CM, CtxId, ObjId) override {
    return CM.empty();
  }
};

/// k-object sensitivity with k-1 heap contexts (Milanova et al.).
class KObjSelector : public ContextSelector {
public:
  explicit KObjSelector(unsigned K) : K(K) {}

  CtxId select(ContextManager &CM, const CSManager &CSM, const Program &,
               CtxId, CallSiteId, CSObjId Recv, MethodId) override {
    const CSObjInfo &O = CSM.csObj(Recv);
    return CM.push(O.HeapCtx, O.O, K);
  }
  CtxId selectStatic(ContextManager &, CtxId CallerCtx, CallSiteId,
                     MethodId) override {
    return CallerCtx;
  }
  CtxId selectHeap(ContextManager &CM, CtxId MethodCtx, ObjId) override {
    return CM.truncate(MethodCtx, K - 1);
  }

private:
  unsigned K;
};

/// k-type sensitivity: like k-obj but context elements are the classes
/// containing the allocation sites (Smaragdakis et al.).
class KTypeSelector : public ContextSelector {
public:
  explicit KTypeSelector(unsigned K) : K(K) {}

  CtxId select(ContextManager &CM, const CSManager &CSM, const Program &P,
               CtxId, CallSiteId, CSObjId Recv, MethodId) override {
    const CSObjInfo &O = CSM.csObj(Recv);
    TypeId AllocClass = P.type(P.method(P.obj(O.O).Method).Owner).Kind ==
                                TypeKind::Array
                            ? P.objectType()
                            : P.method(P.obj(O.O).Method).Owner;
    return CM.push(O.HeapCtx, AllocClass, K);
  }
  CtxId selectStatic(ContextManager &, CtxId CallerCtx, CallSiteId,
                     MethodId) override {
    return CallerCtx;
  }
  CtxId selectHeap(ContextManager &CM, CtxId MethodCtx, ObjId) override {
    return CM.truncate(MethodCtx, K - 1);
  }

private:
  unsigned K;
};

/// k-call-site sensitivity (k-CFA).
class KCallSiteSelector : public ContextSelector {
public:
  explicit KCallSiteSelector(unsigned K) : K(K) {}

  CtxId select(ContextManager &CM, const CSManager &, const Program &,
               CtxId CallerCtx, CallSiteId CS, CSObjId, MethodId) override {
    return CM.push(CallerCtx, CS, K);
  }
  CtxId selectStatic(ContextManager &CM, CtxId CallerCtx, CallSiteId CS,
                     MethodId) override {
    return CM.push(CallerCtx, CS, K);
  }
  CtxId selectHeap(ContextManager &CM, CtxId MethodCtx, ObjId) override {
    return CM.truncate(MethodCtx, K - 1);
  }

private:
  unsigned K;
};

/// Selective context sensitivity: applies \p Inner only to the selected
/// methods, everything else is analyzed context-insensitively.
class SelectiveSelector : public ContextSelector {
public:
  SelectiveSelector(ContextSelector &Inner,
                    const std::unordered_set<MethodId> &Selected)
      : Inner(Inner) {
    // Dense flags: the test runs once per (call site, receiver object).
    for (MethodId M : Selected)
      denseAssign<uint8_t>(IsSelected, M, 1, 0);
  }

  CtxId select(ContextManager &CM, const CSManager &CSM, const Program &P,
               CtxId CallerCtx, CallSiteId CS, CSObjId Recv,
               MethodId Callee) override {
    if (!denseGet<uint8_t>(IsSelected, Callee, 0))
      return CM.empty();
    return Inner.select(CM, CSM, P, CallerCtx, CS, Recv, Callee);
  }
  CtxId selectStatic(ContextManager &CM, CtxId CallerCtx, CallSiteId CS,
                     MethodId Callee) override {
    if (!denseGet<uint8_t>(IsSelected, Callee, 0))
      return CM.empty();
    return Inner.selectStatic(CM, CallerCtx, CS, Callee);
  }
  CtxId selectHeap(ContextManager &CM, CtxId MethodCtx, ObjId O) override {
    return Inner.selectHeap(CM, MethodCtx, O);
  }

private:
  ContextSelector &Inner;
  std::vector<uint8_t> IsSelected; ///< By MethodId.
};

} // namespace csc

#endif // CSC_PTA_CONTEXTSELECTOR_H
