//===- ResultCodecTest.cpp - Binary round-trip property tests -------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
//
// The persistent store is only as trustworthy as its codec, so this suite
// pins the round-trip property the store's checksums assume: for every
// registered analysis over every example program (plus the differential
// fuzzer's seeded workloads), serialize -> deserialize -> deep-equal, and
// re-serializing the reconstruction yields byte-identical output. It also
// pins the report property warm batches rely on — a run rebuilt from its
// stored form re-serializes to the exact RunJson that was stored — and
// that truncated byte strings always fail to decode instead of crashing
// or fabricating a partial result. Decoding is canonical: hand-built
// non-canonical projections are rejected, and any seeded byte mutation of
// a real payload either fails to decode or re-encodes to the same bytes.
// Both ResultStore::publish paths (a run encoded in place, a StoredResult
// copy) leave byte-identical entry files. Program fingerprints, the
// program part of every store key, are pinned to fixed values: a drift
// would turn every existing store into misses.
//
//===----------------------------------------------------------------------===//

#include "client/AnalysisRegistry.h"
#include "client/AnalysisSession.h"
#include "client/Report.h"
#include "frontend/Parser.h"
#include "stdlib/Stdlib.h"
#include "store/ResultCodec.h"
#include "store/ResultStore.h"
#include "support/FileIO.h"
#include "support/Rng.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

using namespace csc;

namespace {

std::string examplePath(const char *Name) {
  return std::string(CSC_EXAMPLES_DIR) + "/" + Name;
}

/// The same knob derivation as tests/fuzz/DifferentialFuzzTest.cpp: one
/// seed fully determines a workload, so codec coverage rides on programs
/// already known to exercise weird solver topologies.
WorkloadConfig fuzzConfig(uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 1);
  WorkloadConfig C;
  C.Name = "codec-fuzz-" + std::to_string(Seed);
  C.Seed = Seed;
  C.NumEntityClasses = 4 + R.nextInRange(8);
  C.WrapperDepth = 1 + R.nextInRange(3);
  C.NumFamilies = 2 + R.nextInRange(4);
  C.FamilySize = 2 + R.nextInRange(3);
  C.NumSelectors = 2 + R.nextInRange(3);
  C.NumScenarios = 3 + R.nextInRange(4);
  C.ActionsPerScenario = 6 + R.nextInRange(8);
  C.FieldDensity = 1 + R.nextInRange(3);
  C.CallChainDepth = R.nextInRange(4);
  C.ContainerMixPct = R.nextInRange(40);
  C.NumSharedHubs = R.nextInRange(3);
  C.HubMixPct = 5 + R.nextInRange(20);
  C.CopyCycleLen = R.nextBool(0.7) ? 2 + R.nextInRange(5) : 0;
  C.BombDepth = R.nextBool(0.5) ? 2 + R.nextInRange(2) : 0;
  C.BombWidth = C.BombDepth ? 2 + R.nextInRange(2) : 0;
  C.BombMultiClass = R.nextBool();
  return C;
}

/// Canonicalizes \p Spec exactly as the batch executor keys the store.
std::string canonicalOf(const AnalysisSession &S, const std::string &Spec) {
  ResultKey K;
  EXPECT_TRUE(ResultKeys(S).key(Spec, K)) << Spec;
  return K.Recipe.Canonical;
}

/// Runs \p Spec and converts the outcome to its stored form, with the
/// RunJson serialized timing-free under the canonical name — the exact
/// bytes every store client publishes.
StoredResult storedOf(AnalysisSession &S, const std::string &Spec,
                      AnalysisRun *RunOut = nullptr) {
  AnalysisRun Run = S.run(Spec);
  EXPECT_EQ(Run.Status, RunStatus::Completed)
      << Spec << ": " << Run.Error;
  Run.Name = canonicalOf(S, Spec);
  JsonWriter J;
  appendRunJson(J, Run, /*IncludeTimings=*/false);
  StoredResult Stored = storedFromRun(Run, J.take());
  if (RunOut)
    *RunOut = std::move(Run);
  return Stored;
}

/// The round-trip property: decode succeeds, every field survives, and
/// the reconstruction re-serializes to the identical bytes.
void expectRoundTrip(const StoredResult &S, const std::string &Label) {
  std::string Bytes = serializeStoredResult(S);
  ASSERT_FALSE(Bytes.empty()) << Label;
  StoredResult D;
  ASSERT_TRUE(deserializeStoredResult(Bytes, D)) << Label;
  const AnalysisRun &DR = D.Run, &SR = S.Run;
  EXPECT_EQ(DR.Status, SR.Status) << Label;
  EXPECT_EQ(DR.Error, SR.Error) << Label;
  EXPECT_EQ(D.RunJson, S.RunJson) << Label;
  EXPECT_EQ(DR.SelectedMethods, SR.SelectedMethods) << Label;
  EXPECT_EQ(DR.Csc.CutStores, SR.Csc.CutStores) << Label;
  EXPECT_EQ(DR.Csc.CutReturns, SR.Csc.CutReturns) << Label;
  EXPECT_EQ(DR.Csc.ShortcutEdges, SR.Csc.ShortcutEdges) << Label;
  EXPECT_EQ(DR.Csc.Involved, SR.Csc.Involved) << Label;
  EXPECT_EQ(DR.Metrics.FailCasts, SR.Metrics.FailCasts) << Label;
  EXPECT_EQ(DR.Metrics.ReachMethods, SR.Metrics.ReachMethods) << Label;
  EXPECT_EQ(DR.Metrics.PolyCalls, SR.Metrics.PolyCalls) << Label;
  EXPECT_EQ(DR.Metrics.CallEdges, SR.Metrics.CallEdges) << Label;
  EXPECT_TRUE(resultsEqual(DR.Result, SR.Result)) << Label;
  EXPECT_EQ(serializeStoredResult(D), Bytes)
      << Label << ": re-serialization is not byte-identical";
}

/// Every strict prefix of a valid encoding must fail to decode, and so
/// must the encoding with trailing garbage (the codec demands atEnd).
void expectPrefixSafety(const std::string &Bytes, const std::string &Label) {
  // Dense sweep near both ends, sampled stride through the middle: the
  // interesting cuts are header boundaries and the final length checks.
  size_t Stride = std::max<size_t>(1, Bytes.size() / 97);
  for (size_t Cut = 0; Cut < Bytes.size();
       Cut += (Cut < 64 || Cut + 64 > Bytes.size()) ? 1 : Stride) {
    StoredResult D;
    EXPECT_FALSE(deserializeStoredResult(Bytes.substr(0, Cut), D))
        << Label << ": truncation at byte " << Cut << " decoded";
  }
  StoredResult D;
  EXPECT_FALSE(deserializeStoredResult(Bytes + '\0', D))
      << Label << ": trailing garbage decoded";
}

/// A hand-built PTAResult encoding: zeroed counters, then the projection
/// sections as given, no call sites or reachable methods.
struct ProjectionBytes {
  std::vector<std::vector<uint32_t>> Pool;
  std::vector<uint32_t> Vars;
  std::vector<std::vector<uint32_t>> Fields; ///< {O, F, Set} each.
  std::vector<uint32_t> Reachable;

  static void ids(const std::vector<uint32_t> &Ids, BinaryWriter &W) {
    W.uvar(static_cast<uint32_t>(Ids.size()));
    for (uint32_t Id : Ids)
      W.uvar(Id);
  }

  std::string bytes() const {
    BinaryWriter W;
    W.u8(0);
    W.f64(0);
    for (int I = 0; I != 4; ++I)
      W.u64(0);
    for (int I = 0; I != 5; ++I)
      W.u32(0);
    for (int I = 0; I != 4; ++I)
      W.u64(0);
    W.uvar(static_cast<uint32_t>(Pool.size()));
    for (const std::vector<uint32_t> &Set : Pool)
      ids(Set, W);
    ids(Vars, W);
    W.uvar(static_cast<uint32_t>(Fields.size()));
    for (const std::vector<uint32_t> &F : Fields)
      for (uint32_t X : F)
        W.uvar(X);
    W.uvar(0); // arrays
    W.uvar(0); // statics
    W.uvar(0); // call sites
    ids(Reachable, W);
    W.u64(0);
    return W.take();
  }
};

/// Decodes \p Bytes as one PTAResult; on success also re-encodes it.
bool decodePTA(const std::string &Bytes, std::string *Reencoded = nullptr) {
  BinaryReader R(Bytes);
  PTAResult Out;
  if (!deserializePTAResult(R, Out) || !R.atEnd())
    return false;
  if (Reencoded) {
    BinaryWriter W;
    serializePTAResult(Out, W);
    *Reencoded = W.take();
  }
  return true;
}

} // namespace

TEST(ResultCodecTest, EverySpecOverEveryExampleRoundTrips) {
  for (const char *Example : {"figure1.jir", "containers.jir"}) {
    std::vector<std::string> Diags;
    std::unique_ptr<AnalysisSession> S =
        AnalysisSession::fromFiles({examplePath(Example)}, {}, Diags);
    for (const std::string &D : Diags)
      ADD_FAILURE() << Example << ": " << D;
    ASSERT_NE(S, nullptr);
    for (const auto &[Name, Desc] : AnalysisRegistry::global().list()) {
      (void)Desc;
      std::string Label = std::string(Example) + "/" + Name;
      expectRoundTrip(storedOf(*S, Name), Label);
    }
  }
}

TEST(ResultCodecTest, FuzzWorkloadsRoundTrip) {
  for (uint64_t Seed : {11ULL, 23ULL, 37ULL, 59ULL, 71ULL, 97ULL, 113ULL,
                        131ULL}) {
    std::vector<std::string> Diags;
    auto P = buildWorkloadProgram(fuzzConfig(Seed), Diags);
    for (const std::string &D : Diags)
      ADD_FAILURE() << "seed " << Seed << ": " << D;
    ASSERT_NE(P, nullptr);
    AnalysisSession S(*P);
    for (const char *Spec : {"ci", "csc", "2obj"}) {
      std::string Label =
          std::string(Spec) + "/seed" + std::to_string(Seed);
      expectRoundTrip(storedOf(S, Spec), Label);
    }
  }
}

TEST(ResultCodecTest, ReconstructedRunReserializesToStoredReport) {
  // A warm batch splices the stored RunJson verbatim; a warm single run
  // rebuilds the AnalysisRun and re-serializes it. Both paths must agree:
  // appendRunJson over the reconstruction == the stored bytes.
  std::vector<std::string> Diags;
  std::unique_ptr<AnalysisSession> S = AnalysisSession::fromFiles(
      {examplePath("figure1.jir")}, {}, Diags);
  ASSERT_NE(S, nullptr);
  for (const auto &[Name, Desc] : AnalysisRegistry::global().list()) {
    (void)Desc;
    StoredResult Stored = storedOf(*S, Name), Decoded;
    ASSERT_TRUE(
        deserializeStoredResult(serializeStoredResult(Stored), Decoded))
        << Name;
    AnalysisRun &Rebuilt = Decoded.Run;
    Rebuilt.Name = canonicalOf(*S, Name);
    JsonWriter J;
    appendRunJson(J, Rebuilt, /*IncludeTimings=*/false);
    EXPECT_EQ(J.take(), Stored.RunJson) << Name;
  }
}

TEST(ResultCodecTest, BothPublishPathsWriteOneEntry) {
  // A computed run is published in place; perfbench and the tests publish
  // a StoredResult copy. Both go through the one encoder, so each must
  // leave the same single entry file, byte for byte.
  char Root[] = "codec-publish-XXXXXX";
  ASSERT_NE(::mkdtemp(Root), nullptr);
  int Stores = 0;
  for (const char *Example : {"figure1.jir", "containers.jir"}) {
    std::vector<std::string> Diags;
    std::unique_ptr<AnalysisSession> S =
        AnalysisSession::fromFiles({examplePath(Example)}, {}, Diags);
    ASSERT_NE(S, nullptr) << Example;
    ResultKeys Keys(*S);
    for (const char *Spec : {"ci", "csc", "zipper-e"}) {
      std::string Label = std::string(Example) + "/" + Spec;
      AnalysisRun Run;
      StoredResult Stored = storedOf(*S, Spec, &Run);
      ResultKey K;
      ASSERT_TRUE(Keys.key(Spec, K)) << Label;
      std::string Entry[2];
      for (int InPlace = 0; InPlace != 2; ++InPlace) {
        ResultStore::Options O;
        O.Dir = std::string(Root) + "/" + std::to_string(Stores++);
        ResultStore Store(O);
        ASSERT_TRUE(InPlace ? Store.publish(K.Key, Run, Stored.RunJson)
                            : Store.publish(K.Key, Stored))
            << Label;
        std::vector<std::filesystem::path> Files;
        for (const auto &F :
             std::filesystem::directory_iterator(O.Dir + "/objects"))
          Files.push_back(F.path());
        ASSERT_EQ(Files.size(), 1u) << Label;
        ASSERT_EQ(readFile(Files[0].string(), Entry[InPlace]),
                  ReadStatus::Ok)
            << Label;
      }
      EXPECT_FALSE(Entry[0].empty()) << Label;
      EXPECT_EQ(Entry[0], Entry[1]) << Label;
    }
  }
  std::filesystem::remove_all(Root);
}

TEST(ResultCodecTest, TruncatedAndPaddedBytesNeverDecode) {
  std::vector<std::string> Diags;
  std::unique_ptr<AnalysisSession> S = AnalysisSession::fromFiles(
      {examplePath("containers.jir")}, {}, Diags);
  ASSERT_NE(S, nullptr);
  for (const char *Spec : {"ci", "csc", "zipper-e"}) {
    StoredResult Stored = storedOf(*S, Spec);
    expectPrefixSafety(serializeStoredResult(Stored), Spec);
  }
}

TEST(ResultCodecTest, PTAResultRoundTripsStandalone) {
  // The PTAResult sub-codec on its own, against the raw session result
  // (no storedFromRun normalization in between).
  std::vector<std::string> Diags;
  auto P = buildWorkloadProgram(fuzzConfig(23), Diags);
  ASSERT_NE(P, nullptr);
  AnalysisSession S(*P);
  AnalysisRun Run = S.run("csc");
  ASSERT_EQ(Run.Status, RunStatus::Completed) << Run.Error;

  BinaryWriter W;
  serializePTAResult(Run.Result, W);
  std::string Bytes = W.take();
  BinaryReader R(Bytes);
  PTAResult Out;
  ASSERT_TRUE(deserializePTAResult(R, Out));
  EXPECT_TRUE(R.atEnd());
  EXPECT_TRUE(resultsEqual(Run.Result, Out));

  BinaryWriter W2;
  serializePTAResult(Out, W2);
  EXPECT_EQ(W2.take(), Bytes);
}

TEST(ResultCodecTest, NonCanonicalProjectionsNeverDecode) {
  // The canonical shape: pool in first-use order, ids and keys ascending.
  ProjectionBytes Good;
  Good.Pool = {{3, 9}, {4}};
  Good.Vars = {0, 1, 1, 2};
  Good.Fields = {{1, 0, 2}, {1, 2, 1}};
  Good.Reachable = {0, 5};
  std::string Reencoded;
  ASSERT_TRUE(decodePTA(Good.bytes(), &Reencoded));
  EXPECT_EQ(Reencoded, Good.bytes());

  auto Rejects = [&](const char *What, auto Mutate) {
    ProjectionBytes Bad = Good;
    Mutate(Bad);
    EXPECT_FALSE(decodePTA(Bad.bytes())) << What;
  };
  // A count of 2 with ids 3 3 once decoded to {3} and re-encoded as 1.
  Rejects("repeated id", [](ProjectionBytes &B) { B.Pool[0] = {3, 3}; });
  Rejects("descending ids", [](ProjectionBytes &B) { B.Pool[0] = {9, 3}; });
  Rejects("empty pool set", [](ProjectionBytes &B) { B.Pool[1] = {}; });
  Rejects("repeated pool set", [](ProjectionBytes &B) { B.Pool[1] = {3, 9}; });
  Rejects("index past the pool",
          [](ProjectionBytes &B) { B.Vars = {0, 1, 2, 3}; });
  Rejects("index out of first-use order",
          [](ProjectionBytes &B) { B.Vars = {0, 2, 1, 2}; });
  Rejects("unused pool set", [](ProjectionBytes &B) { B.Pool.push_back({7}); });
  Rejects("keyed empty set", [](ProjectionBytes &B) { B.Fields[0][2] = 0; });
  Rejects("keys out of order",
          [](ProjectionBytes &B) { std::swap(B.Fields[0], B.Fields[1]); });
  Rejects("repeated key", [](ProjectionBytes &B) { B.Fields[1][1] = 0; });
  Rejects("repeated reachable method",
          [](ProjectionBytes &B) { B.Reachable = {5, 5}; });
}

TEST(ResultCodecTest, MutatedBytesDecodeCanonicallyOrNotAtAll) {
  // Seeded byte mutations of real payloads: overwrite bytes, copy a word
  // from elsewhere (repeating an id, an index or a key), or bump a byte.
  // Whatever still decodes must re-encode to the mutated bytes exactly.
  std::vector<std::string> Diags;
  std::unique_ptr<AnalysisSession> S = AnalysisSession::fromFiles(
      {examplePath("containers.jir")}, {}, Diags);
  ASSERT_NE(S, nullptr);
  Rng R(2023);
  for (const char *Spec : {"ci", "csc", "2obj"}) {
    const std::string Bytes = serializeStoredResult(storedOf(*S, Spec));
    // The projection sits at the tail, behind the report text.
    const size_t Tail = Bytes.size() - std::min<size_t>(Bytes.size(), 2048);
    int Decoded = 0;
    for (int Trial = 0; Trial != 3000; ++Trial) {
      std::string M = Bytes;
      for (uint32_t K = 1 + R.nextInRange(3); K != 0; --K) {
        bool InTail = R.nextBool(0.9);
        size_t Base = InTail ? Tail : 0;
        size_t Span = InTail ? M.size() - Tail : M.size();
        size_t At = Base + R.nextInRange(static_cast<uint32_t>(Span));
        switch (R.nextInRange(3)) {
        case 0:
          M[At] = static_cast<char>(R.nextInRange(256));
          break;
        case 1: {
          size_t From = Base + R.nextInRange(static_cast<uint32_t>(Span));
          for (size_t I = 0; I != 4 && std::max(At, From) + I < M.size(); ++I)
            M[At + I] = M[From + I];
          break;
        }
        default:
          M[At] = static_cast<char>(M[At] + (R.nextBool() ? 1 : -1));
          break;
        }
      }
      StoredResult D;
      if (!deserializeStoredResult(M, D))
        continue;
      ++Decoded;
      ASSERT_EQ(serializeStoredResult(D), M)
          << Spec << ": trial " << Trial << " decoded non-canonical bytes";
    }
    // Some mutations must survive (say, in counters), or the loop checks
    // nothing.
    EXPECT_GT(Decoded, 0) << Spec;
  }
}

TEST(ResultCodecTest, VarintsDecodeOnlyShortestForms) {
  for (uint32_t V : {0u, 1u, 127u, 128u, 16383u, 16384u, 0xFFFFFFFFu}) {
    BinaryWriter W;
    W.uvar(V);
    std::string Bytes = W.take();
    BinaryReader R(Bytes);
    uint32_t Out;
    EXPECT_TRUE(R.uvar(Out) && R.atEnd() && Out == V) << V;
  }
  // Overlong forms of 1 and 0, a value past 32 bits, and a cut varint.
  const std::vector<std::string> Bad = {std::string("\x81\x00", 2),
                                        std::string("\x80\x00", 2),
                                        std::string("\xFF\xFF\xFF\xFF\x1F"),
                                        std::string("\x80")};
  for (const std::string &Bytes : Bad) {
    BinaryReader R(Bytes);
    uint32_t Out;
    EXPECT_FALSE(R.uvar(Out)) << Bytes.size() << " bytes";
  }
}

namespace {

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace

TEST(StoreKeyTest, ProgramFingerprintsArePinned) {
  // FNV-1a over printProgram's bytes. Stores written by earlier builds
  // stay warm only while these values hold; change them only together
  // with a deliberate store format change.
  for (const auto &[Example, Pinned] :
       {std::pair<const char *, const char *>{"figure1.jir",
                                              "60c712efef0b03e7"},
        {"containers.jir", "78ecf2696cf8b0b1"}}) {
    std::vector<std::string> Diags;
    std::unique_ptr<AnalysisSession> S =
        AnalysisSession::fromFiles({examplePath(Example)}, {}, Diags);
    ASSERT_NE(S, nullptr) << Example;
    EXPECT_EQ(hex(programFingerprint(S->program())), Pinned) << Example;
  }
  Program Stdlib;
  std::vector<std::string> Diags;
  ASSERT_TRUE(parseProgram(Stdlib, {{"<stdlib>", stdlibSource()}}, Diags));
  EXPECT_EQ(hex(programFingerprint(Stdlib)), "dd963728222ec63d");
}
