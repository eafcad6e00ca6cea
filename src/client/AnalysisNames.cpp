//===- AnalysisNames.cpp - Kind enum and its one name table ---------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisNames.h"

using namespace csc;

namespace {

// The one table. Canonical names double as registry keys; aliases cover
// the spellings the old drivers and the paper use.
const AnalysisNameEntry Table[] = {
    {AnalysisKind::CI, "ci", {"context-insensitive", nullptr, nullptr},
     "context-insensitive baseline"},
    {AnalysisKind::CSC, "csc", {"cut-shortcut", nullptr, nullptr},
     "Cut-Shortcut (params: field/load/container/local=0|1, "
     "engine=doop|taie)"},
    {AnalysisKind::ZipperE, "zipper-e", {"zipper", "zippere", nullptr},
     "Zipper-e selective k-obj (params: k, pv|cf cost fraction, floor)"},
    {AnalysisKind::TwoObj, "2obj", {"k-obj", "obj", nullptr},
     "k-object sensitivity (param: k, default 2)"},
    {AnalysisKind::TwoType, "2type", {"k-type", "type", nullptr},
     "k-type sensitivity (param: k, default 2)"},
    {AnalysisKind::TwoCallSite, "2cs", {"k-cs", "2callsite", nullptr},
     "k-call-site sensitivity (param: k, default 2)"},
};

} // namespace

const AnalysisNameEntry *csc::analysisNameTable(size_t &Count) {
  Count = sizeof(Table) / sizeof(Table[0]);
  return Table;
}

const char *csc::analysisName(AnalysisKind K) {
  for (const AnalysisNameEntry &E : Table)
    if (E.Kind == K)
      return E.Canonical;
  return "?";
}
