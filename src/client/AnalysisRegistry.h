//===- AnalysisRegistry.h - The fixed table of named analyses ---*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Analyses as named configurations of the one solver engine, mirroring
/// how Tai-e exposes its analyses. A spec string names an analysis plus
/// optional parameters:
///
///   spec      := name (";" key "=" value)*
///   specList  := spec ("," spec)*
///
/// Examples: "ci", "csc", "csc-doop", "2obj", "k-type;k=3",
/// "zipper-e;pv=0.05", "csc;container=0;engine=doop".
///
/// The registry is one fixed table: each row holds a name's kind,
/// canonical name, aliases, accepted parameter keys and description.
/// build() turns a spec into an AnalysisRecipe — plain data (kind, k,
/// engine mode, plugin and pre-analysis options) that the AnalysisSession
/// and the IncrementalSolver wire into a solver — and names it: the
/// recipe's Canonical spec is the one name the result cache, the store,
/// batch reports and server answers use. No other code canonicalizes.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_CLIENT_ANALYSISREGISTRY_H
#define CSC_CLIENT_ANALYSISREGISTRY_H

#include "csc/CutShortcutPlugin.h"
#include "pta/ContextSelector.h"
#include "pta/Solver.h"
#include "zipper/Zipper.h"

#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace csc {

enum class AnalysisKind { CI, CSC, ZipperE, TwoObj, TwoType, TwoCallSite };

/// A parsed "name;key=value;..." analysis spec.
struct AnalysisSpec {
  std::string Name; ///< Lowercased head.
  std::vector<std::pair<std::string, std::string>> Params; ///< In order.
  std::string Text; ///< The trimmed original spelling.

  /// Value of \p Key or nullptr.
  const std::string *param(std::string_view Key) const;
  /// Typed accessors: leave \p Out untouched and return true when the key
  /// is absent; false (with \p Error set) on a malformed value.
  bool paramUnsigned(std::string_view Key, unsigned &Out,
                     std::string &Error) const;
  /// Accepts a number in [0, \p Max]; NaN and infinities are out of
  /// range. \p Range spells the interval in the diagnostic.
  bool paramDouble(std::string_view Key, double Max, const char *Range,
                   double &Out, std::string &Error) const;
  bool paramBool(std::string_view Key, bool &Out, std::string &Error) const;
  /// Rejects params whose key is not in \p Known (null-terminated array).
  bool checkKnownParams(const char *const *Known, std::string &Error) const;
};

/// Parses one spec. Returns false with \p Error set on malformed input
/// (empty spec, missing name head, parameter without '=', empty or
/// duplicate parameter key). The exact diagnostic strings are documented
/// in docs/CLI.md and pinned by tests/client/SpecErrorTest.cpp.
bool parseAnalysisSpec(std::string_view Text, AnalysisSpec &Out,
                       std::string &Error);

/// Splits a comma-separated spec list ("ci,k-type;k=3,csc"); parameters
/// never contain commas, so this is a plain split with trimming. Empty
/// items are dropped.
std::vector<std::string> splitSpecList(std::string_view ListText);

/// Everything the session needs to run one analysis, as plain data: the
/// kind and k that fix the context selector (see makeSelector), the
/// engine mode, the Cut-Shortcut plugin configuration, and the Zipper-e
/// pre-analysis request.
struct AnalysisRecipe {
  std::string Name; ///< Display name (the spec as written).
  /// The canonical spec: the alias-resolved name plus the params sorted
  /// by key ("k-type; K=3" -> "2type;k=3"). The one name a run is
  /// reported, cached and stored under, whichever spelling asked for it.
  std::string Canonical;
  AnalysisKind Kind = AnalysisKind::CI;
  unsigned K = 2;        ///< Context depth of the k-limited selectors.
  bool DoopMode = false; ///< Full re-propagation engine (Table 1).
  /// Online cycle elimination in the solver (spec parameter `scc`,
  /// default on). Engine-level only: results are identical either way.
  bool CycleElimination = true;
  bool UseCsc = false;   ///< Attach a CutShortcutPlugin.
  CutShortcutOptions Csc;
  bool UseZipper = false; ///< Run (or reuse) the Zipper-e pre-analysis.
  ZipperOptions Zipper;
  /// If set (and UseZipper is off), restrict the selector to exactly these
  /// methods via a SelectiveSelector — the §3.4 hybrid-selection knob.
  std::shared_ptr<const std::unordered_set<MethodId>> SelectOnly;
};

/// The context selector \p R's kind and k call for (the inner selector
/// of a Zipper-e recipe); null for the context-insensitive kinds.
std::unique_ptr<ContextSelector> makeSelector(const AnalysisRecipe &R);

/// A recipe wired for the solver: SolverOptions plus the selectors
/// Opts.Selector points into. They live on the heap, so a moved setup
/// stays valid; it must outlive every solver built from Opts.
struct SolverSetup {
  SolverOptions Opts;
  std::unique_ptr<ContextSelector> Inner;
  std::unique_ptr<SelectiveSelector> Selective;
};

/// The one recipe-to-solver wiring, shared by AnalysisSession and
/// IncrementalSolver: DoopMode and CycleElimination pick the engine, the
/// per-run budgets bound it, and makeSelector's selector is restricted
/// to \p Only (a Zipper-e selection) or else to R.SelectOnly.
SolverSetup solverSetup(const AnalysisRecipe &R, uint64_t WorkBudget,
                        double TimeBudgetMs,
                        const std::unordered_set<MethodId> *Only = nullptr);

/// One row of the analysis table: everything about a name.
struct AnalysisEntry {
  const char *Name; ///< Canonical spec name.
  AnalysisKind Kind;
  bool ForceDoop; ///< Always the Doop engine without the load pattern.
  const char *Aliases[3]; ///< Null-terminated; matched case-insensitively.
  const char *const *Params; ///< Accepted keys, null-terminated.
  const char *Description;
};

/// The fixed table of analyses. Stateless: every member is a pure read,
/// safe from any number of threads.
class AnalysisRegistry {
public:
  /// The table rows, sorted by name.
  static const std::vector<AnalysisEntry> &entries();

  /// (name, description) pairs of the rows, sorted by name.
  std::vector<std::pair<std::string, std::string>> list() const;

  /// Builds a recipe from a parsed spec / a spec string. Out.Name and
  /// Out.Canonical are filled whenever the spec parses, also when the
  /// build then fails (an unknown name keeps its lowered spelling), so a
  /// spec-error row still has its report name; the rest of \p Out is
  /// meaningful only on success. A spec that does not parse leaves
  /// Out.Canonical empty.
  bool build(const AnalysisSpec &Spec, AnalysisRecipe &Out,
             std::string &Error) const;
  bool build(std::string_view SpecText, AnalysisRecipe &Out,
             std::string &Error) const;

  /// The one registry.
  static const AnalysisRegistry &global();
};

} // namespace csc

#endif // CSC_CLIENT_ANALYSISREGISTRY_H
