//===- table3_zipper_vs_csc.cpp - Table 3 ---------------------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Regenerates Table 3: the detailed Zipper-e vs Cut-Shortcut comparison —
// Zipper-e's total / pre-analysis / main-analysis time and selected-method
// count against CSC's time, the number of methods involved in cut/shortcut
// edges, and the overlap between the two method sets. Left half = Doop
// engine, right half = Tai-e engine, like the paper. The session's Zipper
// cache means the (engine-independent) pre-analysis is shared between the
// two halves, exactly as a fair comparison requires.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace csc;
using namespace csc::bench;

namespace {

struct HalfRow {
  std::string ZTotal, ZPre, ZMain;
  uint32_t Selected = 0;
  std::string CscTime;
  uint32_t Involved = 0;
  double OverlapPct = 0;
};

HalfRow measure(AnalysisSession &S, bool DoopMode, BenchJson &J,
                const std::string &ProgName) {
  HalfRow Row;
  double Budget = DoopMode ? budgetMs() / doopEngineFactor() : budgetMs();

  // Zipper-e through the session; phase split comes from the timings.
  AnalysisRun Z = runWithBudget(S, "zipper-e", DoopMode);
  J.record(ProgName, Z);
  Row.Selected = Z.SelectedMethods;
  double TotalMs = Z.Timings.PreMs + Z.Timings.MainMs;
  bool ZExhausted = !Z.completed() || TotalMs > Budget;
  char Buf[32];
  auto Fmt = [&Buf](double Ms) {
    std::snprintf(Buf, sizeof(Buf), "%.3f", Ms / 1000.0);
    return std::string(Buf);
  };
  Row.ZPre = Fmt(Z.Timings.PreMs);
  Row.ZMain = ZExhausted ? ">budget" : Fmt(Z.Timings.MainMs);
  Row.ZTotal = ZExhausted ? ">budget" : Fmt(TotalMs);

  // Cut-Shortcut with its involved-method statistics.
  AnalysisRun C = runWithBudget(S, "csc", DoopMode);
  J.record(ProgName, C);
  Row.CscTime = C.completed() ? Fmt(C.Timings.MainMs) : ">budget";
  Row.Involved = static_cast<uint32_t>(C.Csc.Involved.size());

  // Overlap against the selection the zipper-e run used (its default
  // options, over the session's ci pre-analysis).
  ZipperSelection Sel = S.zipperSelection(ZipperOptions{});
  uint32_t Overlap = 0;
  for (MethodId M : C.Csc.Involved)
    Overlap += Sel.Selected.count(M) ? 1 : 0;
  Row.OverlapPct =
      C.Csc.Involved.empty() ? 0.0 : 100.0 * Overlap / C.Csc.Involved.size();
  return Row;
}

void printHalf(const char *Name, const HalfRow &R) {
  std::printf("%-10s %9s %9s %9s %9u %9s %9u %8.1f%%\n", Name,
              R.ZTotal.c_str(), R.ZPre.c_str(), R.ZMain.c_str(), R.Selected,
              R.CscTime.c_str(), R.Involved, R.OverlapPct);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions BO = parseBenchOptions(Argc, Argv);
  BenchJson J("table3_zipper_vs_csc", BO.JsonPath);
  std::printf("Table 3: Zipper-e vs Cut-Shortcut, per engine mode\n");
  std::printf("(columns: Zipper-e total / pre-analysis / main-analysis "
              "time in s, #selected methods; CSC time in s, #involved "
              "methods, %% of involved methods also selected)\n");
  auto Suite = buildSuite();
  for (bool DoopMode : {true, false}) {
    std::printf("\n-- %s engine --\n",
                DoopMode ? "Doop-style" : "Tai-e-style");
    std::printf("%-10s %9s %9s %9s %9s %9s %9s %9s\n", "program", "Z-total",
                "Z-pre", "Z-main", "Z-sel", "CSC-time", "involved",
                "overlap");
    for (BenchProgram &BP : Suite)
      printHalf(BP.Name.c_str(), measure(*BP.S, DoopMode, J, BP.Name));
  }
  std::printf("\nExpected shape (paper): CSC is several times faster than "
              "Zipper-e even ignoring Zipper-e's pre-analysis; the method "
              "sets overlap only partially (~31%% in the paper).\n");
  return J.write() ? 0 : 1;
}
