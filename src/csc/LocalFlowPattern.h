//===- LocalFlowPattern.h - §3.4 / Fig. 11 ----------------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The local flow pattern (§3.4, formalized in Fig. 11). An intraprocedural
/// value-flow analysis computes ⟨m,k⟩ ↣ x — "x's values all come from m's
/// k-th parameter via local assignments". Return variables that qualify
/// have their return edges cut ([CutLFlow]) and each call site gets
/// shortcut edges from the corresponding arguments to its LHS
/// ([ShortcutLFlow]).
///
//===----------------------------------------------------------------------===//

#ifndef CSC_CSC_LOCALFLOWPATTERN_H
#define CSC_CSC_LOCALFLOWPATTERN_H

#include "csc/CscState.h"
#include "support/DenseTable.h"

#include <vector>

namespace csc {

class LocalFlowPattern {
public:
  explicit LocalFlowPattern(CscState &St) : St(St) {}

  void onNewMethod(MethodId M);
  void onNewCallEdge(CSCallSiteId CS, CSMethodId Callee);

  /// The ⟨m,k⟩ ↣ x parameter mask computed for a variable (bit k set means
  /// values flow from call-argument k); 0 if the variable does not qualify.
  /// Exposed for tests.
  uint64_t paramMaskOf(MethodId M, VarId V);

private:
  struct CutRet {
    VarId V;
    uint64_t Mask; ///< Bit k: values come from call-argument k.
  };

  /// Computes ⟨m,k⟩↣x for all variables of M (least fixed point): entry I
  /// is the mask of M's I-th variable (MethodInfo::Vars order).
  std::vector<uint64_t> computeFlows(MethodId M) const;

  SlotTable<std::vector<CutRet>> CutRets; ///< By MethodId.

  CscState &St;
};

} // namespace csc

#endif // CSC_CSC_LOCALFLOWPATTERN_H
