//===- DemandSlicer.h - Backward PFG slices for demand queries --*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the set of statements a fixpoint restricted to a handful of
/// queried variables would need, per Lazy Pointer Analysis (PAPERS.md): a
/// query for pt(v) only has to evaluate the backward slice of the pointer
/// flow graph reaching v.
///
/// Nothing solves a slice any more. Every slice keeps the call-graph core
/// below, so on the scaling workloads a slice is most of the program and a
/// restricted solve ran about as long as a whole-program one; the server
/// answers every query from a whole-program fixpoint. The slicer remains
/// as a measurement: perfbench times sliceFor() and counts slice sizes.
///
/// The slice is syntactic (computed before any solving) and closed under
/// every rule that can add an object to a relevant pointer's set:
///
///  * the roots, and transitively every variable whose value can flow
///    into a relevant variable (assign/cast sources, field-matched
///    store sources and their bases, array-store sources and bases,
///    static-store sources, CHA-approximated callee return variables,
///    CHA-approximated caller arguments for relevant parameters);
///  * the "call-graph core": every invoke statement plus every invoke
///    receiver base, so a restricted run would build the exact on-the-fly
///    call graph (receivers dispatch on points-to facts, and parameter /
///    return bindings are wired per discovered call edge — identical to
///    the whole-program run). The CHA closures above only decide which
///    *value-flow* statements join the slice; they over-approximate
///    dispatch, which is always sound.
///
/// Soundness is per-variable and selector-independent: for every variable
/// marked relevant, a restricted fixpoint would compute exactly the
/// whole-program points-to set under any ContextSelector (the slice never
/// mentions contexts). Variables outside the slice may see smaller sets —
/// that is the point — so a restricted run could only be read for the
/// queried roots (and the call graph, which stays exact).
///
//===----------------------------------------------------------------------===//

#ifndef CSC_SERVER_DEMANDSLICER_H
#define CSC_SERVER_DEMANDSLICER_H

#include "ir/Program.h"

#include <unordered_map>
#include <vector>

namespace csc {

class DemandSlicer {
public:
  /// Indexes \p P (stores by field, call sites by callee); O(#stmts).
  /// The slicer borrows the program and must be rebuilt after it grows.
  explicit DemandSlicer(const Program &P);

  struct Slice {
    /// Per-StmtId enable bit, sized to the program at slicing time.
    std::vector<uint8_t> Enabled;
    uint32_t EnabledStmts = 0;  ///< Number of set bits.
    uint32_t RelevantVars = 0;  ///< Variables in the backward closure.
  };

  /// The backward slice for pt-queries on \p Roots.
  Slice sliceFor(const std::vector<VarId> &Roots) const;

private:
  const Program &P;

  // Value-flow indexes, each in ascending statement order.
  std::unordered_map<FieldId, std::vector<StmtId>> StoresByField;
  std::unordered_map<FieldId, std::vector<StmtId>> StaticStoresByField;
  std::vector<StmtId> ArrayStores;
  /// Virtual invoke sites by dispatch subsignature (CHA approximation).
  std::unordered_map<uint32_t, std::vector<StmtId>> SitesBySubsig;
  /// Static/special invoke sites by resolved direct callee.
  std::unordered_map<MethodId, std::vector<StmtId>> SitesByCallee;
  /// Concrete methods by subsignature (CHA callee approximation).
  std::unordered_map<uint32_t, std::vector<MethodId>> MethodsBySubsig;
};

} // namespace csc

#endif // CSC_SERVER_DEMANDSLICER_H
