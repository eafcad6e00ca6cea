//===- SolverRegressionTest.cpp - Focused end-to-end regressions ----------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// Scenarios that exercised real bugs during development or combine
// features in ways the module-level tests do not.
//
//===----------------------------------------------------------------------===//

#include "csc/CutShortcutPlugin.h"
#include "pta/Solver.h"
#include "stdlib/ContainerSpec.h"
#include "workload/Workload.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace csc;
using namespace csc::test;

namespace {

PTAResult solveCSC(const Program &P) {
  ContainerSpec Spec = ContainerSpec::forProgram(P);
  CutShortcutPlugin Plugin(P, Spec);
  Solver S(P, {});
  S.addPlugin(&Plugin);
  return S.solve();
}

} // namespace

TEST(SolverRegressionTest, InterfaceDispatchThroughContainer) {
  // Interface-typed retrieval + dispatch: the Cut-Shortcut container
  // shortcut must compose with interface subtyping and cast filters.
  auto P = parseWithStdlib(R"(
interface Task {
  method run(): Object;
}
class Cheap implements Task {
  method run(): Object {
    var r: Object;
    r = new Object;
    return r;
  }
}
class Costly implements Task {
  method run(): Object {
    var r: Object;
    r = new Object;
    return r;
  }
}
class Main {
  static method main(): void {
    var q1: LinkedList;
    var q2: LinkedList;
    var c: Cheap;
    var d: Costly;
    var o: Object;
    var t: Task;
    var r: Object;
    q1 = new LinkedList;
    dcall q1.LinkedList.init();
    q2 = new LinkedList;
    dcall q2.LinkedList.init();
    c = new Cheap;
    d = new Costly;
    call q1.add(c);
    call q2.add(d);
    o = call q1.get();
    t = (Task) o;
    r = call t.run();
  }
}
)");
  PTAResult R = solveCSC(*P);
  MethodId CheapRun = findMethod(*P, "Cheap", "run");
  MethodId CostlyRun = findMethod(*P, "Costly", "run");
  EXPECT_TRUE(R.isReachable(CheapRun));
  EXPECT_FALSE(R.isReachable(CostlyRun))
      << "container separation should keep Costly.run unreachable";
}

TEST(SolverRegressionTest, CutStoreDoesNotLeakThroughSubclassOverride) {
  // A subclass overrides the setter WITHOUT the pattern shape; dispatch
  // must route each receiver to the right implementation and stay sound.
  auto P = parseOrDie(R"(
class T { }
class Base {
  field f: T;
  method set(t: T): void {
    this.f = t;
  }
}
class Weird extends Base {
  field last: T;
  method set(t: T): void {
    var copy: T;
    copy = t;
    this.last = copy;
  }
}
class Main {
  static method main(): void {
    var b: Base;
    var w: Base;
    var t1: T;
    var t2: T;
    var r1: T;
    var r2: T;
    b = new Base;
    w = new Weird;
    t1 = new T;
    t2 = new T;
    call b.set(t1);
    call w.set(t2);
    r1 = b.f;
    r2 = w.f;
  }
}
)");
  PTAResult R = solveCSC(*P);
  MethodId Main = findMethod(*P, "Main", "main");
  ObjId OT1 = allocOf(*P, findVar(*P, Main, "t1"));
  ObjId OW = allocOf(*P, findVar(*P, Main, "w"));
  VarId R1 = findVar(*P, Main, "r1");
  VarId R2 = findVar(*P, Main, "r2");
  // Base.set stored t1 into b only; Weird.set stored into .last, so w.f
  // stays empty.
  EXPECT_EQ(R.pt(R1).toVector(), std::vector<uint32_t>{OT1});
  EXPECT_TRUE(R.pt(R2).empty());
  FieldId Last = P->resolveField(P->typeByName("Weird"), "last");
  ObjId OT2 = allocOf(*P, findVar(*P, Main, "t2"));
  EXPECT_TRUE(R.ptField(OW, Last).contains(OT2));
}

TEST(SolverRegressionTest, LoadPatternWithPolymorphicGetter) {
  // Two getter implementations, one qualifying for the load pattern and
  // one not; both dispatched from the same call site.
  auto P = parseOrDie(R"(
class T { }
class Box {
  field f: T;
  method put(t: T): void {
    this.f = t;
  }
  method get(): T {
    var r: T;
    r = this.f;
    return r;
  }
}
class FreshBox extends Box {
  method get(): T {
    var r: T;
    r = new T;
    return r;
  }
}
class Main {
  static method main(): void {
    var b: Box;
    var t: T;
    var r: T;
    if ? {
      b = new Box;
    } else {
      b = new FreshBox;
    }
    t = new T;
    call b.put(t);
    r = call b.get();
  }
}
)");
  PTAResult R = solveCSC(*P);
  MethodId Main = findMethod(*P, "Main", "main");
  MethodId FreshGet = findMethod(*P, "FreshBox", "get");
  VarId Rv = findVar(*P, Main, "r");
  ObjId OT = allocOf(*P, findVar(*P, Main, "t"));
  ObjId Fresh = allocOf(*P, findVar(*P, FreshGet, "r"));
  EXPECT_TRUE(R.pt(Rv).contains(OT));
  EXPECT_TRUE(R.pt(Rv).contains(Fresh))
      << "the non-pattern override's value must survive";
}

TEST(SolverRegressionTest, StaticFieldsBridgeScenarios) {
  auto P = parseOrDie(R"(
class Registry {
  static field shared: Object;
}
class Producer {
  static method run(): void {
    var o: Object;
    o = new Object;
    Registry::shared = o;
  }
}
class Consumer {
  static method run(): Object {
    var r: Object;
    r = Registry::shared;
    return r;
  }
}
class Main {
  static method main(): void {
    var got: Object;
    scall Producer.run();
    got = scall Consumer.run();
  }
}
)");
  PTAResult R = solveCSC(*P);
  MethodId Main = findMethod(*P, "Main", "main");
  MethodId Prod = findMethod(*P, "Producer", "run");
  VarId Got = findVar(*P, Main, "got");
  ObjId O = allocOf(*P, findVar(*P, Prod, "o"));
  EXPECT_TRUE(R.pt(Got).contains(O));
}

TEST(SolverRegressionTest, DeeplyNestedBranchesAllAnalyzed) {
  // Flow-insensitivity: every branch of a 6-deep nest contributes.
  std::string Src = "class Main {\n  static method main(): void {\n"
                    "    var o: Object;\n";
  for (int I = 0; I < 6; ++I)
    Src += "    if ? {\n      o = new Object;\n    } else {\n";
  Src += "      o = new Object;\n";
  for (int I = 0; I < 6; ++I)
    Src += "    }\n";
  Src += "  }\n}\n";
  auto P = parseOrDie(Src);
  Solver S(*P, {});
  PTAResult R = S.solve();
  MethodId Main = findMethod(*P, "Main", "main");
  VarId O = findVar(*P, Main, "o");
  EXPECT_EQ(R.pt(O).size(), 7u); // 6 then-allocations + 1 innermost else.
}

TEST(SolverRegressionTest, BombedWorkloadBlowsUp2objNotCI) {
  // The scalability-cliff mechanism itself: on a bombed program the 2obj
  // work exceeds CI's by a large factor.
  WorkloadConfig C;
  C.Name = "bombed";
  C.Seed = 9;
  C.NumScenarios = 2;
  C.ActionsPerScenario = 4;
  C.NumEntityClasses = 5;
  C.NumFamilies = 2;
  C.FamilySize = 3;
  C.NumSelectors = 2;
  C.BombWidth = 12;
  C.BombDepth = 5;
  std::vector<std::string> Diags;
  auto P = buildWorkloadProgram(C, Diags);
  ASSERT_NE(P, nullptr);

  Solver CI(*P, {});
  PTAResult RCI = CI.solve();

  KObjSelector Sel(2);
  SolverOptions Opts;
  Opts.Selector = &Sel;
  Solver Obj(*P, Opts);
  PTAResult R2 = Obj.solve();

  EXPECT_GT(R2.Stats.PtsInsertions, RCI.Stats.PtsInsertions * 3)
      << "the context bomb should multiply 2obj's work";
}

TEST(SolverRegressionTest, ContainerElementsFlowingBetweenContainers) {
  // Element moved from one list to another by hand: hosts/pts must chain.
  auto P = parseWithStdlib(R"(
class Main {
  static method main(): void {
    var l1: ArrayList;
    var l2: ArrayList;
    var a: Object;
    var mid: Object;
    var x: Object;
    l1 = new ArrayList;
    dcall l1.ArrayList.init();
    l2 = new ArrayList;
    dcall l2.ArrayList.init();
    a = new Object;
    call l1.add(a);
    mid = call l1.get();
    call l2.add(mid);
    x = call l2.get();
  }
}
)");
  PTAResult R = solveCSC(*P);
  MethodId Main = findMethod(*P, "Main", "main");
  VarId X = findVar(*P, Main, "x");
  ObjId OA = allocOf(*P, findVar(*P, Main, "a"));
  EXPECT_TRUE(R.pt(X).contains(OA));
}

TEST(SolverRegressionTest, SubtypingConsistentUnderLateTypes) {
  // Subtype queries interleaved with type creation (arrays are created
  // lazily by the parser): answers must reflect the types defined so far.
  Program P;
  IRBuilder B(P);
  TypeId A = B.cls("A");
  EXPECT_TRUE(P.isSubtype(A, P.objectType()));
  TypeId BT = B.cls("B", "A");
  EXPECT_TRUE(P.isSubtype(BT, A));
  TypeId ArrB = P.arrayOf(BT);
  TypeId ArrA = P.arrayOf(A);
  EXPECT_TRUE(P.isSubtype(ArrB, ArrA));
  EXPECT_FALSE(P.isSubtype(ArrA, ArrB));
}

TEST(SolverRegressionTest, EmptyProgramWithEntrySolves) {
  auto P = parseOrDie("class Main { static method main(): void { } }");
  Solver S(*P, {});
  PTAResult R = S.solve();
  EXPECT_EQ(R.numReachableCI(), 1u);
  EXPECT_EQ(R.numCallEdgesCI(), 0u);
  EXPECT_FALSE(R.Exhausted);
}

TEST(SolverRegressionTest, ResultQueriesOnUnknownIdsAreEmpty) {
  auto P = parseOrDie("class Main { static method main(): void { } }");
  Solver S(*P, {});
  PTAResult R = S.solve();
  EXPECT_TRUE(R.pt(999999).empty());
  EXPECT_TRUE(R.ptField(5, 7).empty());
  EXPECT_TRUE(R.ptArray(5).empty());
  EXPECT_TRUE(R.ptStatic(5).empty());
  EXPECT_TRUE(R.calleesOf(12345).empty());
}
