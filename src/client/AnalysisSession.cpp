//===- AnalysisSession.cpp - Parse once, analyze many times ---------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisSession.h"

#include "frontend/Parser.h"
#include "ir/Verifier.h"
#include "pta/Solver.h"
#include "stdlib/ContainerSpec.h"
#include "stdlib/Stdlib.h"
#include "support/FileIO.h"
#include "support/Timer.h"

using namespace csc;

const char *csc::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Completed:
    return "completed";
  case RunStatus::BudgetExhausted:
    return "budget-exhausted";
  case RunStatus::SpecError:
    return "spec-error";
  }
  return "?";
}

AnalysisSession::AnalysisSession(const Program &P, Options O)
    : P(&P), Opts(std::move(O)) {}

AnalysisSession::AnalysisSession(std::unique_ptr<Program> OwnedP, Options O)
    : P(OwnedP.get()), Owned(std::move(OwnedP)), Opts(std::move(O)) {}

//===----------------------------------------------------------------------===//
// Construction from sources / files / built programs
//===----------------------------------------------------------------------===//

bool csc::readSourceFiles(
    const std::vector<std::string> &Paths,
    std::vector<std::pair<std::string, std::string>> &Named,
    std::vector<std::string> &Diags) {
  for (const std::string &Path : Paths) {
    std::string Text;
    switch (readFile(Path, Text)) {
    case ReadStatus::Ok:
      Named.emplace_back(Path, std::move(Text));
      continue;
    case ReadStatus::CannotOpen:
      Diags.push_back("error: cannot open '" + Path + "'");
      return false;
    case ReadStatus::CannotRead:
      Diags.push_back("error: cannot read '" + Path + "'");
      return false;
    }
  }
  if (Named.empty()) {
    Diags.push_back("error: no input files");
    return false;
  }
  return true;
}

bool csc::verifyRunnable(const Program &P, std::vector<std::string> &Diags) {
  std::vector<std::string> Errors = verifyProgram(P);
  for (const std::string &E : Errors)
    Diags.push_back("verifier: " + E);
  if (!Errors.empty())
    return false;
  if (P.entry() == InvalidId) {
    Diags.push_back("error: no static main() entry point");
    return false;
  }
  return true;
}

std::unique_ptr<AnalysisSession>
AnalysisSession::adopt(std::unique_ptr<Program> Prog, Options O,
                       std::vector<std::string> &Diags) {
  if (!Prog) {
    Diags.push_back("error: adopt() called with a null program");
    return nullptr;
  }
  Timer V;
  if (!verifyRunnable(*Prog, Diags))
    return nullptr;
  auto S = std::unique_ptr<AnalysisSession>(
      new AnalysisSession(std::move(Prog), std::move(O)));
  S->VerifyMsV = V.elapsedMs();
  return S;
}

std::unique_ptr<AnalysisSession> AnalysisSession::fromSources(
    const std::vector<std::pair<std::string, std::string>> &Named, Options O,
    std::vector<std::string> &Diags) {
  auto Prog = std::make_unique<Program>();
  std::vector<std::pair<std::string, std::string>> All;
  if (O.WithStdlib)
    All.emplace_back("<stdlib>", stdlibSource());
  All.insert(All.end(), Named.begin(), Named.end());

  if (O.Progress)
    O.Progress("parse", std::to_string(All.size()) + " source(s)");
  Timer ParseT;
  if (!parseProgram(*Prog, All, Diags))
    return nullptr;
  double ParseMs = ParseT.elapsedMs();

  if (O.Progress)
    O.Progress("verify", "");
  Timer VerifyT;
  if (!verifyRunnable(*Prog, Diags))
    return nullptr;
  double VerifyMs = VerifyT.elapsedMs();

  auto S = std::unique_ptr<AnalysisSession>(
      new AnalysisSession(std::move(Prog), std::move(O)));
  S->ParseMsV = ParseMs;
  S->VerifyMsV = VerifyMs;
  return S;
}

std::unique_ptr<AnalysisSession>
AnalysisSession::fromSource(const std::string &Name, const std::string &Text,
                            Options O, std::vector<std::string> &Diags) {
  return fromSources({{Name, Text}}, std::move(O), Diags);
}

std::unique_ptr<AnalysisSession>
AnalysisSession::fromFiles(const std::vector<std::string> &Paths, Options O,
                           std::vector<std::string> &Diags) {
  std::vector<std::pair<std::string, std::string>> Named;
  if (!readSourceFiles(Paths, Named, Diags))
    return nullptr;
  return fromSources(Named, std::move(O), Diags);
}

//===----------------------------------------------------------------------===//
// Running analyses
//===----------------------------------------------------------------------===//

const AnalysisSession::CiFixpoint &AnalysisSession::ciFixpoint(bool &Reused) {
  std::lock_guard<std::mutex> G(CiMutex);
  Reused = Ci.has_value();
  if (!Reused) {
    progress("zipper-pre", "ci");
    SolverSetup Setup = solverSetup(AnalysisRecipe(), Opts.WorkBudget,
                                    /*TimeBudgetMs=*/0);
    Timer Solve;
    PTAResult R = Solver(*P, Setup.Opts).solve();
    Ci = CiFixpoint{std::move(R), Solve.elapsedMs()};
  }
  return *Ci;
}

ZipperSelection AnalysisSession::zipperSelection(const ZipperOptions &ZOpts) {
  bool Reused = false;
  return runZipperSelection(*P, ciFixpoint(Reused).Result, ZOpts);
}

AnalysisRun AnalysisSession::run(const std::string &SpecText) {
  AnalysisRecipe Recipe;
  std::string Error;
  if (!registry().build(SpecText, Recipe, Error)) {
    AnalysisRun Out;
    Out.Name = SpecText;
    Out.Status = RunStatus::SpecError;
    Out.Error = Error;
    return Out;
  }
  return run(Recipe);
}

std::vector<AnalysisRun> AnalysisSession::runAll(const std::string &SpecList) {
  std::vector<AnalysisRun> Out;
  for (const std::string &Spec : splitSpecList(SpecList))
    Out.push_back(run(Spec));
  return Out;
}

AnalysisRun AnalysisSession::run(const AnalysisRecipe &Recipe) {
  AnalysisRun Out;
  Out.Name = Recipe.Name;
  Timer Total;

  ZipperSelection Sel;
  if (Recipe.UseZipper) {
    const CiFixpoint &CI = ciFixpoint(Out.PreFromCache);
    Timer Select;
    Sel = runZipperSelection(*P, CI.Result, Recipe.Zipper);
    Out.Timings.PreMs = CI.SolveMs + Select.elapsedMs();
    Out.SelectedMethods = static_cast<uint32_t>(Sel.Selected.size());
    if (CI.Result.Exhausted) {
      Out.Status = RunStatus::BudgetExhausted;
      Out.Timings.TotalMs = Total.elapsedMs();
      return Out;
    }
  }
  SolverSetup Setup = solverSetup(Recipe, Opts.WorkBudget, Opts.TimeBudgetMs,
                                  Recipe.UseZipper ? &Sel.Selected : nullptr);

  std::unique_ptr<CutShortcutPlugin> Plugin;
  ContainerSpec Spec;
  if (Recipe.UseCsc) {
    Spec = ContainerSpec::forProgram(*P);
    Plugin = std::make_unique<CutShortcutPlugin>(*P, Spec, Recipe.Csc);
  }

  progress("solve", Recipe.Name);
  Timer Main;
  Solver S(*P, Setup.Opts);
  if (Plugin)
    S.addPlugin(Plugin.get());
  Out.Result = S.solve();
  Out.Timings.MainMs = Main.elapsedMs();
  if (Plugin)
    Out.Csc = Plugin->stats();
  if (Out.Result.Exhausted) {
    Out.Status = RunStatus::BudgetExhausted;
  } else {
    progress("metrics", Recipe.Name);
    Out.Metrics = computeMetrics(*P, Out.Result);
  }
  Out.Timings.TotalMs = Total.elapsedMs();
  return Out;
}
