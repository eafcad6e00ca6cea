//===- quickstart.cpp - Build IR in C++, compare CI vs Cut-Shortcut --------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// The paper's Figure 1 example, constructed through the programmatic
// IRBuilder API (no text parsing) and handed to an AnalysisSession, which
// verifies it once and runs both analyses. Prints the points-to sets the
// paper discusses in §2.
//
// Run: build/examples/example_quickstart
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisSession.h"
#include "ir/IRBuilder.h"

#include <cstdio>

using namespace csc;

namespace {

/// Builds Figure 1: class Carton { Item item; setItem; getItem } plus a
/// main storing and retrieving two items through two cartons.
struct Figure1 {
  std::unique_ptr<Program> P = std::make_unique<Program>();
  VarId Result1, Result2, Item1, Item2;
  ObjId O16, O21;

  Figure1() {
    IRBuilder B(*P);
    TypeId Item = B.cls("Item");
    TypeId Carton = B.cls("Carton");
    FieldId ItemF = B.field(Carton, "item", Item);

    MethodBuilder Set = B.method(Carton, "setItem", {Item}, InvalidId);
    Set.store(Set.thisVar(), ItemF, Set.param(0));

    MethodBuilder Get = B.method(Carton, "getItem", {}, Item);
    VarId R = Get.local("r", Item);
    Get.load(R, Get.thisVar(), ItemF);
    Get.ret(R);

    TypeId MainCls = B.cls("Main");
    MethodBuilder Main =
        B.method(MainCls, "main", {}, InvalidId, /*IsStatic=*/true);
    VarId C1 = Main.local("c1", Carton);
    Item1 = Main.local("item1", Item);
    Result1 = Main.local("result1", Item);
    VarId C2 = Main.local("c2", Carton);
    Item2 = Main.local("item2", Item);
    Result2 = Main.local("result2", Item);
    Main.newObj(C1, Carton);
    StmtId NewItem1 = Main.newObj(Item1, Item);
    Main.callVirtual(InvalidId, C1, "setItem", {Item1});
    Main.callVirtual(Result1, C1, "getItem", {});
    Main.newObj(C2, Carton);
    StmtId NewItem2 = Main.newObj(Item2, Item);
    Main.callVirtual(InvalidId, C2, "setItem", {Item2});
    Main.callVirtual(Result2, C2, "getItem", {});
    P->setEntry(Main.method());

    O16 = P->stmt(NewItem1).Obj;
    O21 = P->stmt(NewItem2).Obj;
  }
};

void printPts(const Program &P, const char *Name, const PointsToSet &S) {
  std::printf("  pt(%s) = {", Name);
  bool First = true;
  S.forEach([&](ObjId O) {
    std::printf("%so%u:%s", First ? "" : ", ", O,
                P.type(P.obj(O).Type).Name.c_str());
    First = false;
  });
  std::printf("}\n");
}

} // namespace

int main() {
  Figure1 Fig;

  // IRBuilder handoff: the session takes ownership and verifies once.
  std::vector<std::string> Diags;
  std::unique_ptr<AnalysisSession> S =
      AnalysisSession::adopt(std::move(Fig.P), {}, Diags);
  if (!S) {
    for (const std::string &D : Diags)
      std::fprintf(stderr, "%s\n", D.c_str());
    return 1;
  }
  const Program &P = S->program();

  std::printf("=== Context-insensitive analysis (Fig. 1a) ===\n");
  {
    AnalysisRun CI = S->run("ci");
    printPts(P, "result1", CI.Result.pt(Fig.Result1));
    printPts(P, "result2", CI.Result.pt(Fig.Result2));
    std::printf("  -> the two cartons' items are merged (imprecise)\n\n");
  }

  std::printf("=== Cut-Shortcut (Fig. 1b) ===\n");
  {
    AnalysisRun Csc = S->run("csc");
    printPts(P, "result1", Csc.Result.pt(Fig.Result1));
    printPts(P, "result2", Csc.Result.pt(Fig.Result2));
    std::printf("  -> context-sensitive precision without contexts:\n");
    std::printf("     %llu store edge(s) cut, %llu return cut(s), "
                "%llu shortcut edge(s)\n",
                static_cast<unsigned long long>(Csc.Csc.CutStores),
                static_cast<unsigned long long>(Csc.Csc.CutReturns),
                static_cast<unsigned long long>(Csc.Csc.ShortcutEdges));
  }
  return 0;
}
