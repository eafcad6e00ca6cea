//===- FlatTable.h - Open-addressing table over packed id pairs -*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver's interning and dedup table: keys are 64-bit packPair ids,
/// stored in one flat array (plus a parallel value array for maps) with
/// linear probing, a power-of-two size kept at most half full, and ~0ULL
/// marking a free slot — packPair(InvalidId, InvalidId) is never a key.
/// Unlike std::unordered_{map,set} it allocates no node per key, so a
/// table costs 8 bytes per slot (12 with 32-bit values) and is freed in
/// one deallocation.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_SUPPORT_FLATTABLE_H
#define CSC_SUPPORT_FLATTABLE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace csc {

/// The value type of a FlatTable used as a set.
struct NoValue {};

/// Open-addressing map from packPair keys to \p ValueT, or a set when
/// \p ValueT is NoValue (no value array is kept then).
template <typename ValueT = NoValue> class FlatTable {
  static constexpr bool IsSet = std::is_same_v<ValueT, NoValue>;

public:
  static constexpr uint64_t EmptyKey = ~0ULL;

  /// Sizes the table so \p N keys fit without growing.
  void reserve(std::size_t N) {
    if (2 * N > Keys.size())
      rehash(N);
  }

  std::size_t size() const { return Count; }

  bool contains(uint64_t K) const { return Count && Keys[slotOf(K)] == K; }

  /// The value stored under \p K, or null (maps only).
  const ValueT *find(uint64_t K) const {
    static_assert(!IsSet, "use contains() on a FlatSet");
    if (Count == 0)
      return nullptr;
    std::size_t I = slotOf(K);
    return Keys[I] == K ? &Values[I] : nullptr;
  }

  /// Inserts \p K with value \p V unless \p K is present. Returns the
  /// value now stored under \p K (the first one inserted) and whether
  /// this call inserted it.
  std::pair<ValueT, bool> insert(uint64_t K, ValueT V = {}) {
    assert(K != EmptyKey && "~0ULL marks free slots");
    if (2 * (Count + 1) > Keys.size())
      rehash(Count + 1);
    std::size_t I = slotOf(K);
    if (Keys[I] == K) {
      if constexpr (IsSet)
        return {V, false};
      else
        return {Values[I], false};
    }
    Keys[I] = K;
    if constexpr (!IsSet)
      Values[I] = V;
    ++Count;
    return {V, true};
  }

private:
  /// The slot holding \p K, or the free slot where it would go.
  std::size_t slotOf(uint64_t K) const {
    // Fold the high word in, then Fibonacci-hash: keys that differ only
    // in one half (dense ids paired with a small context) still spread.
    uint64_t H = (K ^ (K >> 32)) * 0x9E3779B97F4A7C15ULL;
    std::size_t Mask = Keys.size() - 1;
    for (std::size_t I = static_cast<std::size_t>(H >> Shift);;
         I = (I + 1) & Mask)
      if (Keys[I] == K || Keys[I] == EmptyKey)
        return I;
  }

  /// Regrows to the smallest power of two (at least 16) that keeps \p N
  /// keys at most half full, and re-places every key.
  void rehash(std::size_t N) {
    std::size_t Size = 16;
    unsigned Bits = 4;
    while (Size < 2 * N) {
      Size *= 2;
      ++Bits;
    }
    std::vector<uint64_t> OldKeys(Size, EmptyKey);
    OldKeys.swap(Keys);
    std::vector<ValueT> OldValues;
    if constexpr (!IsSet) {
      OldValues.assign(Size, ValueT{});
      OldValues.swap(Values);
    }
    Shift = 64 - Bits;
    for (std::size_t I = 0; I != OldKeys.size(); ++I) {
      if (OldKeys[I] == EmptyKey)
        continue;
      std::size_t J = slotOf(OldKeys[I]);
      Keys[J] = OldKeys[I];
      if constexpr (!IsSet)
        Values[J] = OldValues[I];
    }
  }

  std::vector<uint64_t> Keys; ///< Power-of-two sized; EmptyKey is free.
  std::vector<ValueT> Values; ///< Parallel to Keys; empty for sets.
  std::size_t Count = 0;
  unsigned Shift = 64;
};

/// A FlatTable used as a set of packPair keys.
using FlatSet = FlatTable<NoValue>;

} // namespace csc

#endif // CSC_SUPPORT_FLATTABLE_H
