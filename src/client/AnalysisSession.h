//===- AnalysisSession.h - Parse once, analyze many times -------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client-facing entry point: a session owns (or borrows) one verified
/// Program and runs any number of registered analyses over it, with
///
///  * spec-string dispatch through the AnalysisRegistry table ("csc",
///    "k-type;k=3", "zipper-e;pv=0.05", ...),
///  * one context-insensitive fixpoint per session: Zipper-e's
///    pre-analysis, solved on the first zipper-e run and reused by the
///    rest (a plain `ci` run still solves its own),
///  * structured phase timings, optional progress callbacks, and an
///    explicit run status (Completed / BudgetExhausted / SpecError)
///    instead of metrics that are silently "not meaningful".
///
/// Clients query a run's PTAResult (pt, mayAlias, calleesOf, ...) together
/// with program() for name lookups, and the Metrics.h clients
/// (mayFailCasts, polyCallSites) for the derived precision facts.
///
/// Thread-safety: once constructed, a session is safe to share across
/// threads — the program is immutable (Program has no lazily filled
/// state, so every const query is a pure read), each run() builds its own
/// solver, and the pre-analysis slot is internally synchronized (solved
/// once, concurrent requesters block on it). Construction,
/// setWorkBudget/setTimeBudgetMs, and destruction are NOT thread-safe and
/// must not race with runs. The batch executor (client/BatchExecutor.h)
/// builds on exactly this contract.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_CLIENT_ANALYSISSESSION_H
#define CSC_CLIENT_ANALYSISSESSION_H

#include "client/AnalysisRegistry.h"
#include "client/Metrics.h"
#include "csc/CutShortcutPlugin.h"
#include "ir/Program.h"
#include "pta/PTAResult.h"
#include "zipper/Zipper.h"

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace csc {

enum class RunStatus {
  Completed,       ///< Fixpoint reached; metrics are meaningful.
  BudgetExhausted, ///< Work/time budget hit; metrics are NOT populated.
  SpecError,       ///< The spec did not name a buildable analysis.
};

const char *runStatusName(RunStatus S);

struct PhaseTimings {
  /// Zipper-e pre-analysis (the slot's solve time, also when reused) +
  /// this run's selection.
  double PreMs = 0;
  double MainMs = 0; ///< Main (solver) analysis.
  double TotalMs = 0;
};

/// The result of one analysis run over the session's program.
struct AnalysisRun {
  std::string Name; ///< The spec the run was built from.
  RunStatus Status = RunStatus::Completed;
  std::string Error; ///< Populated for SpecError.
  PTAResult Result;
  PrecisionMetrics Metrics; ///< Valid only when completed().
  PhaseTimings Timings;
  bool PreFromCache = false; ///< Zipper pre-analysis slot reused.
  uint32_t SelectedMethods = 0; ///< Zipper-e selection size.
  CutShortcutStats Csc;         ///< Cut-Shortcut statistics.

  bool completed() const { return Status == RunStatus::Completed; }
  bool exhausted() const { return Status == RunStatus::BudgetExhausted; }
};

/// Reads each of \p Paths as a named source (named by its path). False
/// with \p Diags on an unreadable file or an empty list.
bool readSourceFiles(const std::vector<std::string> &Paths,
                     std::vector<std::pair<std::string, std::string>> &Named,
                     std::vector<std::string> &Diags);

/// Verifies \p P and requires a static main() entry point — what every
/// program must pass before it is analyzed. False with \p Diags on either
/// failure.
bool verifyRunnable(const Program &P, std::vector<std::string> &Diags);

/// Phase callback: ("parse"|"verify"|"zipper-pre"|"solve"|"metrics",
/// detail). Invoked synchronously at phase starts.
using ProgressFn = std::function<void(const char *Phase,
                                      const std::string &Detail)>;

class AnalysisSession {
public:
  struct Options {
    bool WithStdlib = true; ///< Prepend the modelled stdlib when parsing.
    /// Work budget (points-to insertions) emulating the paper's timeout.
    uint64_t WorkBudget = ~0ULL;
    double TimeBudgetMs = 0; ///< Wall-clock cap per run (0 = unlimited).
    ProgressFn Progress;
  };

  /// Borrows an already-built (and externally verified) program.
  explicit AnalysisSession(const Program &P) : P(&P) {}
  AnalysisSession(const Program &P, Options O);

  /// Takes ownership of a built program (IRBuilder handoff); verifies it.
  /// Returns null with \p Diags filled on verification failure.
  static std::unique_ptr<AnalysisSession>
  adopt(std::unique_ptr<Program> P, Options O, std::vector<std::string> &Diags);

  /// Parses named `.jir` sources (stdlib prepended unless disabled),
  /// verifies, and checks for an entry point.
  static std::unique_ptr<AnalysisSession>
  fromSources(const std::vector<std::pair<std::string, std::string>> &Named,
              Options O, std::vector<std::string> &Diags);
  static std::unique_ptr<AnalysisSession>
  fromSource(const std::string &Name, const std::string &Text, Options O,
             std::vector<std::string> &Diags);
  /// Reads and parses `.jir` files from disk.
  static std::unique_ptr<AnalysisSession>
  fromFiles(const std::vector<std::string> &Paths, Options O,
            std::vector<std::string> &Diags);

  /// The verified program every run analyzes (immutable for the
  /// session's lifetime).
  const Program &program() const { return *P; }
  /// The options the session was built with.
  const Options &options() const { return Opts; }
  /// Adjusts the per-run work budget and drops the pre-analysis slot,
  /// which was solved under the old one. NOT thread-safe: do not call
  /// while runs are in flight.
  void setWorkBudget(uint64_t B) {
    Opts.WorkBudget = B;
    Ci.reset();
  }
  /// Adjusts the per-run wall-clock budget. NOT thread-safe (see above).
  void setTimeBudgetMs(double Ms) { Opts.TimeBudgetMs = Ms; }
  /// The registry specs resolve against.
  const AnalysisRegistry &registry() const {
    return AnalysisRegistry::global();
  }

  /// Wall time spent parsing / verifying at construction (0 for adopted
  /// or borrowed programs that skipped the phase).
  double parseMs() const { return ParseMsV; }
  double verifyMs() const { return VerifyMsV; }

  /// Runs one analysis named by a spec string. A bad spec yields a run
  /// with Status == SpecError and the message in Error. Thread-safe:
  /// any number of threads may run() concurrently over the one shared
  /// program (each run builds its own solver; the pre-analysis slot is
  /// internally locked). The Progress callback, if set, must itself be
  /// thread-safe when runs are concurrent.
  AnalysisRun run(const std::string &SpecText);
  /// Runs a pre-built recipe. Thread-safe (see run(spec)).
  AnalysisRun run(const AnalysisRecipe &Recipe);
  /// Runs every spec of a comma-separated list, in order.
  std::vector<AnalysisRun> runAll(const std::string &SpecList);

  /// The Zipper-e selection for \p ZOpts over the session's ci fixpoint,
  /// which is solved on first use and kept until setWorkBudget. Every
  /// zipper-e run computes its selection this way. Thread-safe.
  ZipperSelection zipperSelection(const ZipperOptions &ZOpts);

private:
  AnalysisSession(std::unique_ptr<Program> Owned, Options O);

  void progress(const char *Phase, const std::string &Detail) const {
    if (Opts.Progress)
      Opts.Progress(Phase, Detail);
  }

  const Program *P = nullptr;
  std::unique_ptr<Program> Owned;
  Options Opts;
  double ParseMsV = 0;
  double VerifyMsV = 0;

  /// The ci fixpoint Zipper-e's pre-analysis reads: the default `ci`
  /// recipe under the session's work budget and no time budget.
  struct CiFixpoint {
    PTAResult Result;
    double SolveMs = 0;
  };
  /// The slot, solved on first use; \p Reused says whether it already was.
  const CiFixpoint &ciFixpoint(bool &Reused);

  /// Guards Ci. Held while the slot is solved (its zipper-pre progress
  /// event included), so concurrent requesters block until it is filled
  /// and the ci fixpoint is solved once.
  std::mutex CiMutex;
  std::optional<CiFixpoint> Ci;
};

} // namespace csc

#endif // CSC_CLIENT_ANALYSISSESSION_H
