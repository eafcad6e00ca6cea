//===- ResultView.h - Query API over one analysis result --------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A client-facing query layer over a PTAResult: points-to sets, aliasing,
/// call-site resolution, reachability, and the derived precision clients
/// (may-fail casts, polymorphic sites) — plus name-based lookups
/// ("Class.method.var") so drivers and tools can query without holding
/// raw ids. The view borrows the program and result; both must outlive it.
///
/// Thread-safety: a view is read-only over immutable data — any number
/// of threads may query one view (or distinct views over the same
/// result) concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_CLIENT_RESULTVIEW_H
#define CSC_CLIENT_RESULTVIEW_H

#include "ir/Program.h"
#include "pta/PTAResult.h"

#include <string_view>
#include <vector>

namespace csc {

class ResultView {
public:
  /// Borrows \p P and \p R; both must outlive the view.
  ResultView(const Program &P, const PTAResult &R) : P(P), R(R) {}

  /// The borrowed program / raw result the view queries.
  const Program &program() const { return P; }
  const PTAResult &result() const { return R; }

  //===--------------------------------------------------------------------===
  // Core queries
  //===--------------------------------------------------------------------===

  /// CI-projected points-to set of a variable.
  const PointsToSet &pointsTo(VarId V) const { return R.pt(V); }
  /// Points-to set of an instance field of an abstract object.
  const PointsToSet &pointsTo(ObjId Base, FieldId F) const {
    return R.ptField(Base, F);
  }
  /// True if two variables may point to a common object.
  bool mayAlias(VarId A, VarId B) const { return R.mayAlias(A, B); }

  /// Deduplicated callees resolved at a call site.
  const std::vector<MethodId> &calleesAt(CallSiteId CS) const {
    return R.calleesOf(CS);
  }
  /// Call sites contained in a method, in statement order.
  std::vector<CallSiteId> callSitesIn(MethodId M) const;

  bool isReachable(MethodId M) const { return R.isReachable(M); }
  /// Reachable methods, sorted by id (deterministic order for clients).
  std::vector<MethodId> reachableMethods() const;

  //===--------------------------------------------------------------------===
  // Derived precision clients
  //===--------------------------------------------------------------------===

  /// Reachable cast statements that may fail.
  std::vector<StmtId> mayFailCasts() const;
  /// Reachable virtual call sites with >= 2 resolved targets.
  std::vector<CallSiteId> polyCallSites() const;

  //===--------------------------------------------------------------------===
  // Name-based lookups
  //===--------------------------------------------------------------------===

  /// Program::methodByName / varByName over the borrowed program.
  MethodId findMethod(std::string_view Qualified) const {
    return P.methodByName(Qualified);
  }
  VarId findVar(MethodId M, std::string_view Name) const {
    return P.varByName(M, Name);
  }
  VarId findVar(std::string_view Qualified) const {
    return P.varByName(Qualified);
  }

private:
  const Program &P;
  const PTAResult &R;
};

} // namespace csc

#endif // CSC_CLIENT_RESULTVIEW_H
