//===- CutShortcutPlugin.h - The Cut-Shortcut analysis ----------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution as a solver plugin: runs the standard
/// context-insensitive analysis on a transformed PFG' = (N, E \ cut ∪
/// shortcuts), with the three program patterns deciding the cuts and
/// shortcuts on the fly. Options allow disabling individual patterns (the
/// Doop version omits the field-load handling; the ablation bench enables
/// one pattern at a time).
///
/// Usage:
/// \code
///   ContainerSpec Spec = ContainerSpec::forProgram(P);
///   CutShortcutPlugin CSC(P, Spec);
///   Solver S(P, {});          // CI selector: no contexts anywhere.
///   S.addPlugin(&CSC);
///   PTAResult R = S.solve();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CSC_CSC_CUTSHORTCUTPLUGIN_H
#define CSC_CSC_CUTSHORTCUTPLUGIN_H

#include "csc/ContainerPattern.h"
#include "csc/CscState.h"
#include "csc/FieldAccessPattern.h"
#include "csc/LocalFlowPattern.h"
#include "stdlib/ContainerSpec.h"

#include <memory>

namespace csc {

struct CutShortcutOptions {
  bool FieldStore = true;
  bool FieldLoad = true; ///< False reproduces the paper's Doop version.
  bool Container = true;
  bool LocalFlow = true;
};

class CutShortcutPlugin : public SolverPlugin {
public:
  CutShortcutPlugin(const Program &P, const ContainerSpec &Spec,
                    CutShortcutOptions Opts = {});
  ~CutShortcutPlugin() override;

  void onStart(Solver &S) override;
  void onNewMethod(CSMethodId M) override;
  void onNewPointsTo(PtrId P, const PointsToSet &Delta) override;
  void onNewCallEdge(CSCallSiteId CS, CSMethodId Callee) override;
  void onNewPFGEdge(PtrId Src, PtrId Dst, EdgeOrigin Origin) override;
  void onFixpoint() override;

  const CutShortcutStats &stats() const { return State.Stats; }
  const ContainerPattern *container() const { return Cont.get(); }

private:
  const Program &P;
  CutShortcutOptions Opts;
  CscState State;
  std::unique_ptr<FieldAccessPattern> Field;
  std::unique_ptr<ContainerPattern> Cont;
  std::unique_ptr<LocalFlowPattern> Local;
};

} // namespace csc

#endif // CSC_CSC_CUTSHORTCUTPLUGIN_H
