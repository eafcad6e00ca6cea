//===- AnalysisRegistry.cpp - Named, pluggable analyses -------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisRegistry.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
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

bool AnalysisSpec::paramDouble(std::string_view Key, double &Out,
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

std::string csc::canonicalSpec(const AnalysisSpec &Spec) {
  std::vector<std::pair<std::string, std::string>> Sorted = Spec.Params;
  std::sort(Sorted.begin(), Sorted.end());
  std::string Out = Spec.Name;
  for (const auto &[K, V] : Sorted) {
    Out += ';';
    Out += K;
    Out += '=';
    Out += V;
  }
  return Out;
}

bool csc::canonicalSpec(std::string_view SpecText, std::string &Out,
                        std::string &Error) {
  AnalysisSpec Spec;
  if (!parseAnalysisSpec(SpecText, Spec, Error))
    return false;
  Out = canonicalSpec(Spec);
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

AnalysisRecipe csc::makeKindRecipe(AnalysisKind Kind, unsigned K,
                                   const ZipperOptions &Zipper,
                                   const CutShortcutOptions &Csc) {
  AnalysisRecipe R;
  R.Name = analysisName(Kind);
  R.Kind = Kind;
  switch (Kind) {
  case AnalysisKind::CI:
    break;
  case AnalysisKind::CSC:
    R.UseCsc = true;
    R.Csc = Csc;
    break;
  case AnalysisKind::ZipperE:
    R.UseZipper = true;
    R.Zipper = Zipper;
    R.Zipper.K = K;
    R.MakeSelector = [K] { return std::make_unique<KObjSelector>(K); };
    break;
  case AnalysisKind::TwoObj:
    R.MakeSelector = [K] { return std::make_unique<KObjSelector>(K); };
    break;
  case AnalysisKind::TwoType:
    R.MakeSelector = [K] { return std::make_unique<KTypeSelector>(K); };
    break;
  case AnalysisKind::TwoCallSite:
    R.MakeSelector = [K] { return std::make_unique<KCallSiteSelector>(K); };
    break;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

namespace {

/// Applies the common "engine=doop|taie" parameter. Doop mode implies the
/// Cut-Shortcut load pattern is off (the paper's Datalog limitation).
bool applyEngineParam(const AnalysisSpec &Spec, AnalysisRecipe &Out,
                      std::string &Error) {
  const std::string *E = Spec.param("engine");
  if (!E)
    return true;
  if (*E == "doop")
    Out.DoopMode = true;
  else if (*E == "taie" || *E == "tai-e")
    Out.DoopMode = false;
  else {
    Error = "unknown engine '" + *E + "' (expected doop or taie)";
    return false;
  }
  if (Out.DoopMode && Out.UseCsc)
    Out.Csc.FieldLoad = false;
  return true;
}

AnalysisRegistry::Factory kindFactory(AnalysisKind Kind) {
  return [Kind](const AnalysisSpec &Spec, AnalysisRecipe &Out,
                std::string &Error) {
    unsigned K = 2;
    ZipperOptions Z;
    CutShortcutOptions C;
    bool SccOn = true; // `scc`: solver cycle elimination, every analysis.
    switch (Kind) {
    case AnalysisKind::CI: {
      static const char *Known[] = {"engine", "scc", nullptr};
      if (!Spec.checkKnownParams(Known, Error))
        return false;
      break;
    }
    case AnalysisKind::CSC: {
      static const char *Known[] = {"engine",    "scc",   "field", "load",
                                    "container", "local", nullptr};
      if (!Spec.checkKnownParams(Known, Error) ||
          !Spec.paramBool("field", C.FieldStore, Error) ||
          !Spec.paramBool("load", C.FieldLoad, Error) ||
          !Spec.paramBool("container", C.Container, Error) ||
          !Spec.paramBool("local", C.LocalFlow, Error))
        return false;
      break;
    }
    case AnalysisKind::ZipperE: {
      static const char *Known[] = {"engine", "scc",   "k",    "pv",
                                    "cf",     "floor", nullptr};
      double Floor = -1;
      if (!Spec.checkKnownParams(Known, Error) ||
          !Spec.paramUnsigned("k", K, Error) ||
          !Spec.paramDouble("pv", Z.CostFraction, Error) ||
          !Spec.paramDouble("cf", Z.CostFraction, Error) ||
          !Spec.paramDouble("floor", Floor, Error))
        return false;
      if (Floor >= 0)
        Z.MinCostFloor = static_cast<uint64_t>(Floor);
      break;
    }
    case AnalysisKind::TwoObj:
    case AnalysisKind::TwoType:
    case AnalysisKind::TwoCallSite: {
      static const char *Known[] = {"engine", "scc", "k", nullptr};
      if (!Spec.checkKnownParams(Known, Error) ||
          !Spec.paramUnsigned("k", K, Error))
        return false;
      break;
    }
    }
    if (!Spec.paramBool("scc", SccOn, Error))
      return false;
    Out = makeKindRecipe(Kind, K, Z, C);
    Out.Name = Spec.Text;
    Out.CycleElimination = SccOn;
    return applyEngineParam(Spec, Out, Error);
  };
}

} // namespace

void AnalysisRegistry::add(std::string Name, std::string Description,
                           Factory F) {
  Entries[lowered(Name)] = Entry{std::move(Description), std::move(F)};
}

void AnalysisRegistry::addAlias(std::string Alias, std::string Canonical) {
  Aliases[lowered(Alias)] = lowered(Canonical);
}

bool AnalysisRegistry::known(std::string_view Name) const {
  std::string N = lowered(Name);
  return Entries.count(N) != 0 || Aliases.count(N) != 0;
}

std::string AnalysisRegistry::resolveName(std::string_view Name) const {
  std::string N = lowered(Name);
  auto It = Aliases.find(N);
  return It == Aliases.end() ? N : It->second;
}

std::vector<std::pair<std::string, std::string>>
AnalysisRegistry::list() const {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const auto &[Name, E] : Entries)
    Out.emplace_back(Name, E.Description);
  return Out; // std::map iteration is already name-sorted.
}

bool AnalysisRegistry::build(const AnalysisSpec &Spec, AnalysisRecipe &Out,
                             std::string &Error) const {
  std::string Name = Spec.Name;
  auto AliasIt = Aliases.find(Name);
  if (AliasIt != Aliases.end())
    Name = AliasIt->second;
  auto It = Entries.find(Name);
  if (It == Entries.end()) {
    Error = "unknown analysis '" + Spec.Name + "' (known:";
    for (const auto &[N, E] : Entries) {
      (void)E;
      Error += " " + N;
    }
    Error += ")";
    return false;
  }
  return It->second.F(Spec, Out, Error);
}

bool AnalysisRegistry::build(std::string_view SpecText, AnalysisRecipe &Out,
                             std::string &Error) const {
  AnalysisSpec Spec;
  if (!parseAnalysisSpec(SpecText, Spec, Error))
    return false;
  return build(Spec, Out, Error);
}

AnalysisRegistry AnalysisRegistry::withBuiltins() {
  AnalysisRegistry R;
  size_t Count = 0;
  const AnalysisNameEntry *Table = analysisNameTable(Count);
  for (size_t I = 0; I != Count; ++I) {
    const AnalysisNameEntry &E = Table[I];
    R.add(E.Canonical, E.Description, kindFactory(E.Kind));
    for (const char *A : E.Aliases)
      if (A)
        R.addAlias(A, E.Canonical);
  }
  // The paper's Doop variant of Cut-Shortcut as a first-class name.
  Factory CscF = kindFactory(AnalysisKind::CSC);
  R.add("csc-doop",
        "Cut-Shortcut, Doop variant (full re-propagation, no load pattern)",
        [CscF](const AnalysisSpec &Spec, AnalysisRecipe &Out,
               std::string &Error) {
          if (!CscF(Spec, Out, Error))
            return false;
          Out.DoopMode = true;
          Out.Csc.FieldLoad = false;
          return true;
        });
  return R;
}

const AnalysisRegistry &AnalysisRegistry::global() {
  static const AnalysisRegistry R = withBuiltins();
  return R;
}
