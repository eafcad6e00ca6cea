//===- ResultCodec.h - Binary (de)serialization of analysis runs -*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value format of the persistent result store: a completed analysis
/// run — PTAResult, precision metrics, per-analysis extras, and the
/// timing-free run report — encoded to bytes and back. The stored value
/// (StoredResult) is the AnalysisRun itself plus that report: one encoder
/// writes straight from an AnalysisRun, one decoder fills one, and no
/// second record mirrors the run's fields.
///
/// The points-to projection is written as PTAResult holds it: the pool of
/// distinct sets once (each a count + ascending ids), then one pool index
/// per var and one (key, index) entry per key of the Field, Array and
/// Static tables, keys ascending. Ids, counts and indices are shortest-
/// form LEB128 varints (BinaryWriter::uvar).
///
/// The encoding is canonical: unordered containers are written in sorted
/// key order, id lists ascending, and the pool in first-use order, so
/// serializing a result, deserializing it, and serializing again yields
/// byte-identical output (the round-trip property
/// tests/store/ResultCodecTest.cpp pins). Canonical bytes are what make
/// content checksums meaningful — two equal results can never disagree
/// about their serialized form.
///
/// Deserialization is bounds-checked end to end and returns false on any
/// malformed or non-canonical input — ids or keys out of order or
/// repeated, a pool index past the pool or out of first-use order, an
/// unused, empty or repeated pool set. It never crashes, never fabricates
/// partial results, and what it accepts re-encodes to the same bytes.
/// The store validates checksums before decoding, so a decode failure
/// there means a format-version mismatch, and the entry degrades to a
/// miss.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_STORE_RESULTCODEC_H
#define CSC_STORE_RESULTCODEC_H

#include "client/AnalysisSession.h"
#include "support/BinaryIO.h"

#include <string>

namespace csc {

/// Everything the store keeps per (program, spec, budgets) key: the run
/// itself and its report. Serves both a batch report row (RunJson) and a
/// full AnalysisRun for single-run and server clients.
struct StoredResult {
  /// Status, error, metrics, Zipper-e and Cut-Shortcut extras and the
  /// PTAResult are stored. Name, Timings and PreFromCache are not: a
  /// decoded run leaves them defaulted, and the caller names it.
  AnalysisRun Run;
  /// Timing-free run report under the canonical spec name
  /// (appendRunJson with IncludeTimings=false) — spliced verbatim into
  /// batch aggregates, which is what makes a store-served batch
  /// byte-identical to a computed one.
  std::string RunJson;
};

/// Appends the canonical encoding of \p R to \p W.
void serializePTAResult(const PTAResult &R, BinaryWriter &W);

/// Decodes one PTAResult; false on malformed/truncated input (\p Out is
/// then unspecified). Consumes exactly what serializePTAResult wrote.
bool deserializePTAResult(BinaryReader &R, PTAResult &Out);

/// Deep equality of two results — the set pool and every index table,
/// callee list, reachable set, and serialized counter. Scheduling diagnostics
/// (WorklistPops, SccStats) and TimeMs are included: the codec stores
/// them, so a round trip must preserve them bit-for-bit too.
bool resultsEqual(const PTAResult &A, const PTAResult &B);

/// The one encoder: appends the stored form of \p Run with its report
/// \p RunJson, Csc.Involved ascending. Run.Result is encoded in place, so
/// publishing a computed run copies no PTAResult. The store checksums
/// and frames these bytes; the codec itself has no header.
void serializeStoredResult(const AnalysisRun &Run, const std::string &RunJson,
                           BinaryWriter &W);
/// The same bytes as a standalone string.
std::string serializeStoredResult(const StoredResult &S);

/// The one decoder: resets \p Out, then fills Out.Run's stored fields and
/// Out.RunJson. False on malformed, non-canonical or trailing input.
bool deserializeStoredResult(const char *Data, size_t Size,
                             StoredResult &Out);
bool deserializeStoredResult(const std::string &Bytes, StoredResult &Out);

/// Pairs a copy of a computed run with its report. \p RunJson must be the
/// timing-free report serialized under the canonical spec name.
StoredResult storedFromRun(const AnalysisRun &Run, std::string RunJson);

} // namespace csc

#endif // CSC_STORE_RESULTCODEC_H
