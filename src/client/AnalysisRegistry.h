//===- AnalysisRegistry.h - Named, pluggable analyses -----------*- C++ -*-===//
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
/// The registry maps spec names to factories producing an AnalysisRecipe —
/// the selector/plugin/engine-mode wiring the AnalysisSession consumes.
/// Built-in names come from the shared AnalysisNames table; clients may
/// register additional analyses (or override built-ins in a copy).
///
//===----------------------------------------------------------------------===//

#ifndef CSC_CLIENT_ANALYSISREGISTRY_H
#define CSC_CLIENT_ANALYSISREGISTRY_H

#include "client/AnalysisNames.h"
#include "csc/CutShortcutPlugin.h"
#include "pta/ContextSelector.h"
#include "zipper/Zipper.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace csc {

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
  bool paramDouble(std::string_view Key, double &Out,
                   std::string &Error) const;
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

/// The canonical cache spelling of a parsed spec: lowercased name plus
/// params sorted by key ("csc;container=0;engine=doop"). Normalizes
/// case, whitespace, and parameter order; registry aliases are NOT
/// resolved here (this is a registry-free function) — resolve the name
/// through AnalysisRegistry::resolveName first when alias-insensitive
/// keys are needed, as the batch executor's result cache does.
std::string canonicalSpec(const AnalysisSpec &Spec);
/// Parses, then canonicalizes. False with \p Error on a malformed spec.
bool canonicalSpec(std::string_view SpecText, std::string &Out,
                   std::string &Error);

/// Splits a comma-separated spec list ("ci,k-type;k=3,csc"); parameters
/// never contain commas, so this is a plain split with trimming. Empty
/// items are dropped.
std::vector<std::string> splitSpecList(std::string_view ListText);

/// Everything the session needs to run one analysis: the engine mode, an
/// optional context-selector factory (null = context-insensitive), the
/// Cut-Shortcut plugin configuration, and the Zipper-e pre-analysis
/// request. Custom factories may combine the fields freely (e.g. CSC plus
/// a selective selector).
struct AnalysisRecipe {
  std::string Name; ///< Display name (the canonical spec).
  AnalysisKind Kind = AnalysisKind::CI; ///< Informational tag.
  bool DoopMode = false; ///< Full re-propagation engine (Table 1).
  /// Online cycle elimination in the solver (spec parameter `scc`,
  /// default on). Engine-level only: results are identical either way.
  bool CycleElimination = true;
  bool UseCsc = false;   ///< Attach a CutShortcutPlugin.
  CutShortcutOptions Csc;
  bool UseZipper = false; ///< Run (or reuse) the Zipper-e pre-analysis.
  ZipperOptions Zipper;
  /// Builds the context selector (the inner selector for Zipper recipes);
  /// null means context insensitivity.
  std::function<std::unique_ptr<ContextSelector>()> MakeSelector;
  /// If set (and UseZipper is off), restrict the selector to exactly these
  /// methods via a SelectiveSelector — the §3.4 hybrid-selection knob.
  std::shared_ptr<const std::unordered_set<MethodId>> SelectOnly;
};

/// Builds the canonical recipe for a kind — the single place the
/// selector/plugin wiring of the evaluated analyses lives. Used by the
/// built-in factories, which apply the `engine` parameter on top.
AnalysisRecipe makeKindRecipe(AnalysisKind Kind, unsigned K,
                              const ZipperOptions &Zipper,
                              const CutShortcutOptions &Csc);

/// String-keyed analysis factory table.
///
/// Thread-safety: a fully built registry is immutable through its const
/// API — build()/known()/list() are safe from any number of threads
/// (this is how batch tasks resolve specs concurrently). add()/addAlias()
/// mutate and must not race with readers; global() is a const magic
/// static and always safe.
class AnalysisRegistry {
public:
  /// Fills \p Out from \p Spec; returns false with \p Error on bad params.
  using Factory = std::function<bool(const AnalysisSpec &Spec,
                                     AnalysisRecipe &Out,
                                     std::string &Error)>;

  /// Registers (or replaces) an analysis under \p Name (lowercased).
  void add(std::string Name, std::string Description, Factory F);
  /// Registers \p Alias to resolve to \p Canonical.
  void addAlias(std::string Alias, std::string Canonical);

  /// True when \p Name (or an alias, case-insensitively) is registered.
  bool known(std::string_view Name) const;
  /// Resolves an alias (case-insensitively) to its canonical registered
  /// name; returns the lowercased input unchanged when it is not an
  /// alias. The batch executor maps spec names through this before
  /// canonicalSpec() so aliased spellings ("k-type" vs "2type") share
  /// one result-cache key.
  std::string resolveName(std::string_view Name) const;
  /// (name, description) pairs of primary entries, sorted by name.
  std::vector<std::pair<std::string, std::string>> list() const;

  /// Builds a recipe from a parsed spec / a spec string.
  bool build(const AnalysisSpec &Spec, AnalysisRecipe &Out,
             std::string &Error) const;
  bool build(std::string_view SpecText, AnalysisRecipe &Out,
             std::string &Error) const;

  /// A fresh registry preloaded with the built-in analyses.
  static AnalysisRegistry withBuiltins();
  /// The shared default registry (built-ins only).
  static const AnalysisRegistry &global();

private:
  struct Entry {
    std::string Description;
    Factory F;
  };
  std::map<std::string, Entry> Entries;
  std::map<std::string, std::string> Aliases;
};

} // namespace csc

#endif // CSC_CLIENT_ANALYSISREGISTRY_H
