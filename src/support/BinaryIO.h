//===- BinaryIO.h - Little-endian binary encode/decode ----------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal binary serialization layer for the persistent result store:
/// a writer appending fixed-width little-endian fields to a byte string,
/// and a bounds-checked reader over such bytes. The encoding is explicit
/// byte shifts — never memcpy of host integers — so entries written on
/// any host decode identically on any other.
///
/// The reader is designed for untrusted input (the store validates
/// checksums first, but truncated or hostile bytes must still never
/// crash): every accessor returns false once the buffer is exhausted,
/// failure is sticky, and fits() lets callers sanity-check an element
/// count against the remaining bytes before sizing a container with it.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_SUPPORT_BINARYIO_H
#define CSC_SUPPORT_BINARYIO_H

#include <cstdint>
#include <cstring>
#include <string>

namespace csc {

/// Appends little-endian fields to an owned byte buffer.
class BinaryWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }

  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }

  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }

  /// IEEE-754 bit pattern, little-endian — round-trips exactly.
  void f64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }

  /// u32 length prefix + raw bytes.
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.append(S);
  }

  /// LEB128: 7 bits per byte, low bits first, high bit = more follows.
  /// Small ids and counts take one byte instead of four.
  void uvar(uint32_t V) {
    while (V >= 0x80) {
      Buf.push_back(static_cast<char>((V & 0x7F) | 0x80));
      V >>= 7;
    }
    Buf.push_back(static_cast<char>(V));
  }

  /// Raw bytes, no length prefix.
  void raw(const char *Data, size_t Size) { Buf.append(Data, Size); }

  /// Overwrites the 8 bytes at \p Pos (written earlier, say by u64(0))
  /// with \p V — for lengths and checksums known only after what follows.
  void patchU64(size_t Pos, uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Buf[Pos + I] = static_cast<char>((V >> (8 * I)) & 0xFF);
  }

  const std::string &data() const { return Buf; }
  std::string take() { return std::move(Buf); }
  size_t size() const { return Buf.size(); }

private:
  std::string Buf;
};

/// Bounds-checked reader over bytes produced by BinaryWriter. All
/// accessors return false (leaving \p Out unspecified) once the input is
/// exhausted or a prior read failed — callers can chain reads and check
/// ok() once, or check each read.
class BinaryReader {
public:
  BinaryReader(const char *Data, size_t Size)
      : P(reinterpret_cast<const unsigned char *>(Data)), N(Size) {}
  explicit BinaryReader(const std::string &Bytes)
      : BinaryReader(Bytes.data(), Bytes.size()) {}

  bool u8(uint8_t &Out) {
    if (!take(1))
      return false;
    Out = P[Pos - 1];
    return true;
  }

  bool u32(uint32_t &Out) {
    if (!take(4))
      return false;
    Out = 0;
    for (int I = 0; I != 4; ++I)
      Out |= static_cast<uint32_t>(P[Pos - 4 + I]) << (8 * I);
    return true;
  }

  bool u64(uint64_t &Out) {
    if (!take(8))
      return false;
    Out = 0;
    for (int I = 0; I != 8; ++I)
      Out |= static_cast<uint64_t>(P[Pos - 8 + I]) << (8 * I);
    return true;
  }

  bool f64(double &Out) {
    uint64_t Bits;
    if (!u64(Bits))
      return false;
    std::memcpy(&Out, &Bits, sizeof(Out));
    return true;
  }

  /// Reads what BinaryWriter::uvar wrote. Only the shortest encoding of
  /// a value that fits 32 bits is accepted, so every value has exactly
  /// one byte form (overlong forms would break canonical re-encoding).
  bool uvar(uint32_t &Out) {
    Out = 0;
    for (int Shift = 0;; Shift += 7) {
      uint8_t B;
      if (!u8(B))
        return false;
      // A fifth byte carries only the top 4 bits, and a zero byte after
      // the first adds nothing: both are non-shortest forms.
      if ((Shift == 28 && B > 0x0F) || (Shift != 0 && B == 0)) {
        Failed = true;
        return false;
      }
      Out |= static_cast<uint32_t>(B & 0x7F) << Shift;
      if (!(B & 0x80))
        return true;
    }
  }

  bool str(std::string &Out) {
    uint32_t Len;
    if (!u32(Len) || !take(Len))
      return false;
    Out.assign(reinterpret_cast<const char *>(P + Pos - Len), Len);
    return true;
  }

  /// True when \p Count elements of \p ElemBytes each could still fit in
  /// the remaining input — the guard that keeps a corrupted count from
  /// driving a huge container allocation before the reads fail.
  bool fits(uint64_t Count, uint64_t ElemBytes) const {
    if (Failed)
      return false;
    uint64_t Rem = N - Pos;
    return ElemBytes == 0 || Count <= Rem / ElemBytes;
  }

  bool ok() const { return !Failed; }
  bool atEnd() const { return !Failed && Pos == N; }
  size_t remaining() const { return Failed ? 0 : N - Pos; }

private:
  bool take(size_t Bytes) {
    if (Failed || N - Pos < Bytes) {
      Failed = true;
      return false;
    }
    Pos += Bytes;
    return true;
  }

  const unsigned char *P;
  size_t N;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace csc

#endif // CSC_SUPPORT_BINARYIO_H
