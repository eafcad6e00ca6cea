//===- AnalysisServer.h - Long-lived NDJSON analysis service ----*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cscpta --serve` subsystem: a resident analysis service that loads
/// a program once and then answers newline-delimited JSON requests — one
/// request object per line on stdin, one response object per line on
/// stdout. Editor integrations and scripts keep a session open instead of
/// paying parse + solve from scratch per question.
///
/// Requests (see docs/CLI.md for the full reference):
///
///   {"op":"query","kind":"points-to","var":"A.main.x"[,"spec":S][,"mode":M]}
///   {"op":"query","kind":"may-alias","a":"A.main.x","b":"A.main.y",...}
///   {"op":"query","kind":"callees","method":"A.main",...}
///   {"op":"add-delta","source":"extend class A {...}"[,"name":N]}
///   {"op":"stats"}
///   {"op":"shutdown"}
///
/// Per analysis spec the server keeps a cached full AnalysisSession run
/// keyed by program version, and for plugin-free recipes also an
/// IncrementalSolver. A "full" query makes that solver resident: additive
/// deltas then warm-start the fixpoint, dispatch-changing ones trigger a
/// full re-solve, and every later query of the spec reads it. Until then
/// ("auto", the default, on a spec never queried "full") a query answers
/// from the per-version run, solved once per program version, as csc and
/// zipper-e always do.
///
/// Determinism contract: every field of a query answer outside the "meta"
/// object is a pure function of the post-delta program and the spec —
/// byte-identical whether produced by a warm resume, a per-version run,
/// or a from-scratch session (CI's server smoke diffs exactly this).
/// "meta" carries version/warm-start/timing diagnostics and is stripped
/// before diffing, like timings in batch reports.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_SERVER_ANALYSISSERVER_H
#define CSC_SERVER_ANALYSISSERVER_H

#include "client/AnalysisSession.h"
#include "server/IncrementalSolver.h"
#include "support/JsonParse.h"

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace csc {

class ResultStore;

class AnalysisServer {
public:
  struct Options {
    /// Spec used by queries that omit "spec".
    std::string DefaultSpec = "ci";
    bool WithStdlib = true;
    uint64_t WorkBudget = ~0ULL; ///< Per solve; ~0 = unlimited.
    double TimeBudgetMs = 0;     ///< Per solve; 0 = unlimited.
    /// Optional persistent result store: the per-version run consults it
    /// before solving and publishes after, at the loaded program (version
    /// 1) only. The resident fixpoint and post-delta programs are never
    /// looked up or stored — post-delta results are not facts of an
    /// on-disk-addressable input.
    std::shared_ptr<ResultStore> Store;
  };

  AnalysisServer();
  explicit AnalysisServer(Options O);
  ~AnalysisServer();

  /// Parses and verifies the initial program (stdlib prepended when
  /// Options::WithStdlib). False with diagnostics on \p Diags on failure.
  bool load(const std::vector<std::pair<std::string, std::string>>
                &NamedSources,
            std::vector<std::string> &Diags);
  /// Convenience: read \p Paths and load().
  bool loadFiles(const std::vector<std::string> &Paths,
                 std::vector<std::string> &Diags);

  /// Handles one request line, returning the response JSON (no trailing
  /// newline). Never throws; malformed input yields {"ok":false,...}.
  /// \p Shutdown (if non-null) is set when the request was a well-formed
  /// shutdown op.
  std::string handleLine(const std::string &Line, bool *Shutdown = nullptr);

  /// Request/response loop until shutdown or EOF. Returns 0.
  int serve(std::istream &In, std::ostream &Out);

  /// Current program version: 1 after load(), +1 per accepted delta.
  uint64_t version() const { return Version; }
  const Program &program() const { return *Prog; }

private:
  /// Per-spec state: the version-keyed full-run cache until Inc (for
  /// incremental-eligible recipes) holds a fixpoint, then Inc alone.
  struct SpecState {
    AnalysisRecipe Recipe;
    std::unique_ptr<IncrementalSolver> Inc;
    AnalysisRun Run;            ///< Last per-version run.
    uint64_t RunVersion = 0;    ///< Version Run was computed at; 0 = none.
    uint64_t FullRuns = 0;      ///< Runs computed here (not store hits).
  };

  /// Resolves \p SpecText to resident state (creating it on first use);
  /// null with \p Error set on a malformed/unknown spec.
  SpecState *specState(const std::string &SpecText, std::string &Error);

  std::string handleQuery(const JsonValue &Req);
  std::string handleAddDelta(const JsonValue &Req);
  std::string handleStats();

  Options Opts;
  std::unique_ptr<Program> Prog;
  uint64_t Version = 0;
  uint64_t Deltas = 0;
  std::map<std::string, SpecState> Specs; ///< Keyed by canonical spec.
};

} // namespace csc

#endif // CSC_SERVER_ANALYSISSERVER_H
