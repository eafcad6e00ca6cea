//===- FrontendRoundTripTest.cpp - Printer/parser round trips -------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
// The printed IR is both the parser's input language and what the
// program fingerprint (every store key) hashes, so printing must be a
// fixpoint of print -> parse -> print. Seeded byte mutants of the
// examples check that no input crashes the frontend and that parsing is
// a function of the bytes alone: the lexer's tokens view their source,
// and a dangling view shows up here (and under ASan) as a crash or as two
// parses of the same bytes disagreeing.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/Printer.h"
#include "stdlib/Stdlib.h"
#include "store/ResultStore.h"
#include "support/FileIO.h"
#include "support/Rng.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace csc;

#ifndef CSC_EXAMPLES_DIR
#error "CSC_EXAMPLES_DIR must be defined by the build"
#endif

namespace {

using NamedSource = std::pair<std::string, std::string>;

NamedSource example(const char *Name) {
  std::string Text;
  EXPECT_EQ(readFile(std::string(CSC_EXAMPLES_DIR) + "/" + Name, Text),
            ReadStatus::Ok)
      << Name;
  return {Name, std::move(Text)};
}

/// The examples and the generated tiers up to scale-m.
std::vector<NamedSource> corpus() {
  std::vector<NamedSource> Out = {example("figure1.jir"),
                                  example("containers.jir")};
  for (const WorkloadConfig &C : scalingSuite()) {
    if (C.Name == "scale-l")
      break;
    Out.emplace_back(C.Name + ".jir", generateWorkload(C));
  }
  return Out;
}

/// One parse of \p Source after the stdlib: success, diagnostics, and
/// the printed IR when it succeeded.
struct ParseOutcome {
  bool Ok;
  std::vector<std::string> Diags;
  std::string Printed;
};

ParseOutcome parseOnce(const std::string &Source) {
  Program P;
  ParseOutcome O;
  O.Ok = parseProgram(P, {{"<stdlib>", stdlibSource()}, {"m.jir", Source}},
                      O.Diags);
  if (O.Ok)
    O.Printed = printProgram(P);
  return O;
}

} // namespace

TEST(FrontendRoundTripTest, PrintingIsAFixpointOfParsing) {
  std::vector<NamedSource> Sources = corpus();
  ASSERT_EQ(Sources.size(), 5u);
  for (const auto &[Name, Text] : Sources) {
    SCOPED_TRACE(Name);
    Program P;
    std::vector<std::string> Diags;
    ASSERT_TRUE(parseProgram(P, {{"<stdlib>", stdlibSource()}, {Name, Text}},
                             Diags))
        << (Diags.empty() ? "" : Diags[0]);
    const std::string Printed = printProgram(P);

    // The printed program carries the stdlib classes it was parsed with.
    Program Q;
    ASSERT_TRUE(parseProgram(Q, {{"printed.jir", Printed}}, Diags))
        << (Diags.empty() ? "" : Diags[0]);
    EXPECT_EQ(printProgram(Q), Printed);
    EXPECT_EQ(programFingerprint(Q), programFingerprint(P));
  }
}

TEST(FrontendRoundTripTest, ByteMutantsParseDeterministicallyWithoutCrashing) {
  // Overwrite a byte (with grammar punctuation, an identifier character,
  // whitespace or any byte), delete one, or duplicate a short run; one to
  // four edits per mutant.
  static const char Alphabet[] = "{}()[],;:.=?*/ \n\tabcXYZ_$<>019#\"";
  int Parsed = 0, Mutants = 0;
  for (const char *Name : {"figure1.jir", "containers.jir"}) {
    const std::string Base = example(Name).second;
    ASSERT_FALSE(Base.empty());
    Rng R(Name[0] == 'f' ? 24 : 2024);
    for (int Trial = 0; Trial != 600; ++Trial, ++Mutants) {
      std::string M = Base;
      for (uint32_t K = 1 + R.nextInRange(4); K != 0 && !M.empty(); --K) {
        size_t At = R.nextInRange(static_cast<uint32_t>(M.size()));
        switch (R.nextInRange(4)) {
        case 0:
          M[At] = Alphabet[R.nextInRange(sizeof(Alphabet) - 1)];
          break;
        case 1:
          M[At] = static_cast<char>(R.nextInRange(256));
          break;
        case 2:
          M.erase(At, 1);
          break;
        default:
          M.insert(At, M.substr(At, 1 + R.nextInRange(8)));
          break;
        }
      }
      SCOPED_TRACE(std::string(Name) + " mutant " + std::to_string(Trial));
      ParseOutcome A = parseOnce(M);
      ParseOutcome B = parseOnce(std::string(M));
      ASSERT_EQ(A.Ok, B.Ok);
      ASSERT_EQ(A.Diags, B.Diags);
      ASSERT_EQ(A.Printed, B.Printed);
      EXPECT_EQ(A.Ok, A.Diags.empty());
      Parsed += A.Ok;
    }
  }
  EXPECT_GE(Mutants, 1000);
  // The loop must exercise both paths, not only the error one.
  EXPECT_GT(Parsed, 0);
  EXPECT_LT(Parsed, Mutants);
}
