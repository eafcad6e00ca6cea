//===- AnalysisRegistry.cpp - The fixed table of named analyses -----------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisRegistry.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

using namespace csc;

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

namespace {

std::string_view trim(std::string_view S) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  return S;
}

std::string lowered(std::string_view S) {
  std::string Out(S);
  for (char &C : Out)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return Out;
}

} // namespace

const std::string *AnalysisSpec::param(std::string_view Key) const {
  for (const auto &[K, V] : Params)
    if (K == Key)
      return &V;
  return nullptr;
}

bool AnalysisSpec::paramUnsigned(std::string_view Key, unsigned &Out,
                                 std::string &Error) const {
  const std::string *V = param(Key);
  if (!V)
    return true;
  errno = 0;
  char *End = nullptr;
  unsigned long N = std::strtoul(V->c_str(), &End, 10);
  if (errno != 0 || End == V->c_str() || *End != '\0' || N == 0 ||
      N > 1u << 20) {
    Error = "parameter '" + std::string(Key) + "' expects a positive " +
            "integer, got '" + *V + "'";
    return false;
  }
  Out = static_cast<unsigned>(N);
  return true;
}

bool AnalysisSpec::paramDouble(std::string_view Key, double Max,
                               const char *Range, double &Out,
                               std::string &Error) const {
  const std::string *V = param(Key);
  if (!V)
    return true;
  errno = 0;
  char *End = nullptr;
  double D = std::strtod(V->c_str(), &End);
  if (errno != 0 || End == V->c_str() || *End != '\0') {
    Error = "parameter '" + std::string(Key) + "' expects a number, got '" +
            *V + "'";
    return false;
  }
  // NaN fails both comparisons; infinities fail the second.
  if (!(D >= 0 && D <= Max)) {
    Error = "parameter '" + std::string(Key) + "' expects a number in " +
            Range + ", got '" + *V + "'";
    return false;
  }
  Out = D;
  return true;
}

bool AnalysisSpec::paramBool(std::string_view Key, bool &Out,
                             std::string &Error) const {
  const std::string *V = param(Key);
  if (!V)
    return true;
  if (*V == "1" || *V == "true" || *V == "on" || *V == "yes") {
    Out = true;
    return true;
  }
  if (*V == "0" || *V == "false" || *V == "off" || *V == "no") {
    Out = false;
    return true;
  }
  Error = "parameter '" + std::string(Key) + "' expects a boolean (0/1), " +
          "got '" + *V + "'";
  return false;
}

bool AnalysisSpec::checkKnownParams(const char *const *Known,
                                    std::string &Error) const {
  for (const auto &[K, V] : Params) {
    (void)V;
    bool Found = false;
    for (const char *const *P = Known; *P; ++P)
      Found = Found || K == *P;
    if (!Found) {
      Error = "analysis '" + Name + "' does not accept parameter '" + K +
              "' (known:";
      for (const char *const *P = Known; *P; ++P)
        Error += std::string(" ") + *P;
      Error += ")";
      return false;
    }
  }
  return true;
}

bool csc::parseAnalysisSpec(std::string_view Text, AnalysisSpec &Out,
                            std::string &Error) {
  Out = AnalysisSpec();
  std::string_view Rest = trim(Text);
  Out.Text = std::string(Rest);
  if (Rest.empty()) {
    Error = "empty analysis spec";
    return false;
  }
  bool First = true;
  while (!Rest.empty()) {
    size_t Semi = Rest.find(';');
    std::string_view Tok = trim(Rest.substr(0, Semi));
    Rest = Semi == std::string_view::npos ? std::string_view()
                                          : Rest.substr(Semi + 1);
    if (First) {
      if (Tok.empty() || Tok.find('=') != std::string_view::npos) {
        Error = "analysis spec must start with a name: '" +
                std::string(Text) + "'";
        return false;
      }
      Out.Name = lowered(Tok);
      First = false;
      continue;
    }
    size_t Eq = Tok.find('=');
    std::string_view Key = trim(Tok.substr(0, Eq));
    if (Eq == std::string_view::npos || Key.empty()) {
      Error = "malformed parameter '" + std::string(Tok) +
              "' in spec '" + std::string(Text) + "' (expected key=value)";
      return false;
    }
    std::string KeyL = lowered(Key);
    if (Out.param(KeyL)) {
      Error = "duplicate parameter '" + KeyL + "' in spec '" +
              std::string(Text) + "'";
      return false;
    }
    Out.Params.emplace_back(std::move(KeyL),
                            lowered(trim(Tok.substr(Eq + 1))));
  }
  return true;
}

std::vector<std::string> csc::splitSpecList(std::string_view ListText) {
  std::vector<std::string> Out;
  while (!ListText.empty()) {
    size_t Comma = ListText.find(',');
    std::string_view Item = trim(ListText.substr(0, Comma));
    if (!Item.empty())
      Out.emplace_back(Item);
    ListText = Comma == std::string_view::npos ? std::string_view()
                                               : ListText.substr(Comma + 1);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Recipes
//===----------------------------------------------------------------------===//

std::unique_ptr<ContextSelector> csc::makeSelector(const AnalysisRecipe &R) {
  switch (R.Kind) {
  case AnalysisKind::CI:
  case AnalysisKind::CSC:
    return nullptr;
  case AnalysisKind::ZipperE:
  case AnalysisKind::TwoObj:
    return std::make_unique<KObjSelector>(R.K);
  case AnalysisKind::TwoType:
    return std::make_unique<KTypeSelector>(R.K);
  case AnalysisKind::TwoCallSite:
    return std::make_unique<KCallSiteSelector>(R.K);
  }
  return nullptr;
}

SolverSetup csc::solverSetup(const AnalysisRecipe &R, uint64_t WorkBudget,
                             double TimeBudgetMs,
                             const std::unordered_set<MethodId> *Only) {
  SolverSetup Out;
  Out.Opts.DeltaPropagation = !R.DoopMode;
  Out.Opts.CycleElimination = R.CycleElimination;
  Out.Opts.WorkBudget = WorkBudget;
  Out.Opts.TimeBudgetMs = TimeBudgetMs;
  Out.Inner = makeSelector(R);
  if (!Only)
    Only = R.SelectOnly.get();
  if (Out.Inner && Only)
    Out.Selective = std::make_unique<SelectiveSelector>(*Out.Inner, *Only);
  Out.Opts.Selector =
      Out.Selective ? Out.Selective.get() : Out.Inner.get();
  return Out;
}

//===----------------------------------------------------------------------===//
// The table
//===----------------------------------------------------------------------===//

namespace {

// Parameter keys per analysis, in the order the unknown-parameter
// diagnostic lists them. `engine` and `scc` apply to every analysis.
const char *const CiParams[] = {"engine", "scc", nullptr};
const char *const CscParams[] = {"engine",    "scc",   "field", "load",
                                 "container", "local", nullptr};
const char *const ZipperParams[] = {"engine", "scc",   "k",    "pv",
                                    "cf",     "floor", nullptr};
const char *const KParams[] = {"engine", "scc", "k", nullptr};

/// The largest double below 2^64: every value in [0, this] converts to
/// uint64_t exactly.
const double MaxFloor = std::nextafter(0x1p64, 0.0);

const AnalysisEntry *findEntry(const std::string &Name) {
  for (const AnalysisEntry &E : AnalysisRegistry::entries()) {
    if (Name == E.Name)
      return &E;
    for (const char *A : E.Aliases)
      if (A && Name == A)
        return &E;
  }
  return nullptr;
}

/// \p Name plus \p Spec's params sorted by key.
std::string canonicalSpec(std::string Name, const AnalysisSpec &Spec) {
  std::vector<std::pair<std::string, std::string>> Sorted = Spec.Params;
  std::sort(Sorted.begin(), Sorted.end());
  for (const auto &[K, V] : Sorted)
    Name += ';' + K + '=' + V;
  return Name;
}

} // namespace

const std::vector<AnalysisEntry> &AnalysisRegistry::entries() {
  // Sorted by name: list(), the unknown-analysis diagnostic and the store
  // keys' registry fingerprint read the rows in this order.
  static const std::vector<AnalysisEntry> Table = {
      {"2cs", AnalysisKind::TwoCallSite, false, {"k-cs", "2callsite"},
       KParams, "k-call-site sensitivity (param: k, default 2)"},
      {"2obj", AnalysisKind::TwoObj, false, {"k-obj", "obj"}, KParams,
       "k-object sensitivity (param: k, default 2)"},
      {"2type", AnalysisKind::TwoType, false, {"k-type", "type"}, KParams,
       "k-type sensitivity (param: k, default 2)"},
      {"ci", AnalysisKind::CI, false, {"context-insensitive"}, CiParams,
       "context-insensitive baseline"},
      {"csc", AnalysisKind::CSC, false, {"cut-shortcut"}, CscParams,
       "Cut-Shortcut (params: field/load/container/local=0|1, "
       "engine=doop|taie)"},
      {"csc-doop", AnalysisKind::CSC, true, {}, CscParams,
       "Cut-Shortcut, Doop variant (full re-propagation, no load pattern)"},
      {"zipper-e", AnalysisKind::ZipperE, false, {"zipper", "zippere"},
       ZipperParams,
       "Zipper-e selective k-obj (params: k, pv|cf cost fraction, floor)"},
  };
  return Table;
}

std::vector<std::pair<std::string, std::string>>
AnalysisRegistry::list() const {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const AnalysisEntry &E : entries())
    Out.emplace_back(E.Name, E.Description);
  return Out;
}

bool AnalysisRegistry::build(const AnalysisSpec &Spec, AnalysisRecipe &Out,
                             std::string &Error) const {
  const AnalysisEntry *E = findEntry(Spec.Name);
  Out = AnalysisRecipe();
  Out.Name = Spec.Text;
  Out.Canonical = canonicalSpec(E ? E->Name : Spec.Name, Spec);
  if (!E) {
    Error = "unknown analysis '" + Spec.Name + "' (known:";
    for (const AnalysisEntry &Row : entries())
      Error += std::string(" ") + Row.Name;
    Error += ")";
    return false;
  }
  // Keys outside the row's list are rejected first, so each accessor
  // below only ever reads a key its analysis accepts.
  Out.Kind = E->Kind;
  Out.UseCsc = E->Kind == AnalysisKind::CSC;
  Out.UseZipper = E->Kind == AnalysisKind::ZipperE;
  double Floor = static_cast<double>(Out.Zipper.MinCostFloor);
  if (!Spec.checkKnownParams(E->Params, Error))
    return false;
  if (Spec.param("pv") && Spec.param("cf")) {
    Error = "parameters 'pv' and 'cf' are synonyms; spec '" + Spec.Text +
            "' gives both";
    return false;
  }
  if (!Spec.paramUnsigned("k", Out.K, Error) ||
      !Spec.paramBool("field", Out.Csc.FieldStore, Error) ||
      !Spec.paramBool("load", Out.Csc.FieldLoad, Error) ||
      !Spec.paramBool("container", Out.Csc.Container, Error) ||
      !Spec.paramBool("local", Out.Csc.LocalFlow, Error) ||
      !Spec.paramDouble("pv", 1, "[0, 1]", Out.Zipper.CostFraction, Error) ||
      !Spec.paramDouble("cf", 1, "[0, 1]", Out.Zipper.CostFraction, Error) ||
      !Spec.paramDouble("floor", MaxFloor, "[0, 2^64)", Floor, Error) ||
      !Spec.paramBool("scc", Out.CycleElimination, Error))
    return false;
  Out.Zipper.MinCostFloor = static_cast<uint64_t>(Floor);

  // "engine=doop|taie". Doop mode implies the Cut-Shortcut load pattern
  // is off (the paper's Datalog limitation).
  if (const std::string *Engine = Spec.param("engine")) {
    if (*Engine == "doop") {
      Out.DoopMode = true;
    } else if (*Engine != "taie" && *Engine != "tai-e") {
      Error = "unknown engine '" + *Engine + "' (expected doop or taie)";
      return false;
    }
  }
  Out.DoopMode = Out.DoopMode || E->ForceDoop;
  if (Out.DoopMode && Out.UseCsc)
    Out.Csc.FieldLoad = false;
  return true;
}

bool AnalysisRegistry::build(std::string_view SpecText, AnalysisRecipe &Out,
                             std::string &Error) const {
  AnalysisSpec Spec;
  if (!parseAnalysisSpec(SpecText, Spec, Error)) {
    Out = AnalysisRecipe();
    return false;
  }
  return build(Spec, Out, Error);
}

const AnalysisRegistry &AnalysisRegistry::global() {
  static const AnalysisRegistry R;
  return R;
}
