//===- PointsToSet.h - Hybrid set of abstract object ids -------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The points-to set representation used by the solver, with three tiers:
/// the first few elements live inline in the object (no heap allocation at
/// all — the vast majority of sets an analysis produces stay this small),
/// mid-size sets are sorted unique vectors (cheap to iterate, cache
/// friendly), and once a set grows past a threshold it is promoted to a
/// bitmap, which makes the very hot insert/contains operations O(1) for
/// the handful of huge sets that a context-insensitive analysis produces.
///
/// Beyond element-at-a-time insert/contains, the set supports word-parallel
/// bulk operations — union (with the newly added elements reported as a
/// delta), masked union (set-valued type filters), exclusion (pending-work
/// diffing) and intersection — which the solver uses to move whole
/// points-to sets per step instead of materializing per-element copies.
/// A union from a bitmap stays word-parallel whatever the representation
/// of the mask or the excluded set: a small operand's words are assembled
/// from its sorted elements as the union walks the bitmap.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_SUPPORT_POINTSTOSET_H
#define CSC_SUPPORT_POINTSTOSET_H

#include "support/Hash.h"
#include "support/Ids.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace csc {

/// A set of ObjId (or CSObjId) values with hybrid representation.
class PointsToSet {
public:
  /// Inserts \p O; returns true if it was not already present.
  bool insert(uint32_t O);

  /// Returns true if \p O is in the set.
  bool contains(uint32_t O) const;

  uint32_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Removes every element. Keeps allocated buffers so scratch sets can be
  /// reused across solver iterations without churn; reverts to the
  /// small-vector representation.
  void clear();

  /// Forces the bitmap representation (used for long-lived filter masks
  /// that bulk operations should always be able to intersect with
  /// word-parallel).
  void ensureBitmap() {
    if (!UseBits)
      promote();
  }

  //===--------------------------------------------------------------------===
  // Word-parallel bulk operations
  //===--------------------------------------------------------------------===

  /// this |= Other. Returns the number of newly inserted elements.
  uint32_t unionWith(const PointsToSet &Other);

  /// this |= Other; the newly inserted elements are collected into
  /// \p DeltaOut (cleared first). Returns the number of new elements.
  uint32_t unionWith(const PointsToSet &Other, PointsToSet &DeltaOut);

  /// this |= (Other ∩ Mask). Returns the number of new elements.
  uint32_t unionWithFiltered(const PointsToSet &Other,
                             const PointsToSet &Mask);

  /// this |= (Other ∩ Mask) ∖ Exclude. Returns the number of new elements.
  uint32_t unionWithFiltered(const PointsToSet &Other,
                             const PointsToSet &Mask,
                             const PointsToSet &Exclude);

  /// this |= (Other ∖ Exclude). Returns the number of new elements.
  uint32_t unionWithExcluding(const PointsToSet &Other,
                              const PointsToSet &Exclude);

  /// Returns true if this set and \p Other share an element.
  bool intersects(const PointsToSet &Other) const;

  /// Calls \p Fn(ObjId) for every element in ascending id order.
  template <typename F> void forEach(F &&Fn) const {
    anyOf([&Fn](uint32_t O) {
      Fn(O);
      return false;
    });
  }

  /// True if \p Pred(ObjId) holds for some element; tests elements in
  /// ascending id order and stops at the first match.
  template <typename F> bool anyOf(F &&Pred) const {
    if (!UseBits) {
      uint32_t N;
      const uint32_t *Elems = smallData(N);
      for (uint32_t I = 0; I != N; ++I)
        if (Pred(Elems[I]))
          return true;
      return false;
    }
    for (std::size_t W = 0, E = Bits.size(); W != E; ++W) {
      uint64_t Word = Bits[W];
      while (Word) {
        unsigned Bit = countTrailingZeros(Word);
        if (Pred(static_cast<uint32_t>(W * 64 + Bit)))
          return true;
        Word &= Word - 1;
      }
    }
    return false;
  }

  /// All elements, ascending. Convenience for tests and clients.
  std::vector<uint32_t> toVector() const;

  //===--------------------------------------------------------------------===
  // Hash-consing support
  //===--------------------------------------------------------------------===

  /// Content hash over the set's non-zero 64-bit words, as (word index,
  /// bits) pairs in ascending order. Equal sets hash equal whatever their
  /// representation, and a bitmap costs one pass over its words.
  uint64_t hash() const;

  /// Content equality, independent of representation.
  bool operator==(const PointsToSet &Other) const;

private:
  class WordCursor;

  void promote();
  /// Back to the inline/small tier; requires Count <= SmallLimit.
  void demote();
  uint32_t unionImpl(const PointsToSet &Other, const PointsToSet *Mask,
                     const PointsToSet *Exclude, PointsToSet *DeltaOut);
  uint64_t wordAt(std::size_t W) const {
    return W < Bits.size() ? Bits[W] : 0;
  }
  /// Contiguous elements while !UseBits (inline buffer or Small vector).
  const uint32_t *smallData(uint32_t &N) const {
    if (Small.empty()) {
      N = Count;
      return Inline;
    }
    N = static_cast<uint32_t>(Small.size());
    return Small.data();
  }
  bool inlineMode() const { return !UseBits && Small.empty(); }

  static constexpr uint32_t InlineLimit = 4;
  static constexpr uint32_t SmallLimit = 24;

  uint32_t Inline[InlineLimit] = {}; ///< Sorted ids while inlineMode().
  std::vector<uint32_t> Small;   ///< Sorted unique ids while !UseBits.
  std::vector<uint64_t> Bits;    ///< Bitmap words once promoted.
  uint32_t Count = 0;
  bool UseBits = false;
};

/// Open-addressing index from content hashes to ids, for hash-consing:
/// the caller keeps the values and supplies the equality test, so one
/// index serves sets stored anywhere.
class SetHashIndex {
public:
  static constexpr uint32_t None = ~0u;

  /// An id inserted under \p Hash for which \p Same(id) holds, or None.
  template <typename Eq> uint32_t find(uint64_t Hash, Eq &&Same) const {
    if (Ids.empty())
      return None;
    const size_t Mask = Ids.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      if (Ids[I] == None)
        return None;
      if (Hashes[I] == Hash && Same(Ids[I]))
        return Ids[I];
    }
  }

  /// Adds \p Id under \p Hash (the caller has checked it is new).
  void insert(uint64_t Hash, uint32_t Id);

private:
  std::vector<uint64_t> Hashes;
  std::vector<uint32_t> Ids; ///< Power-of-two sized; None marks free.
  size_t Count = 0;
};

/// Hash-consing index over a caller-owned pool of sets: intern() hands
/// back the index of an equal set already added through it, or appends
/// the set to the pool. Lives only while a pool is being built.
class PointsToSetInterner {
public:
  explicit PointsToSetInterner(std::vector<PointsToSet> &Pool)
      : Pool(Pool) {}

  /// Index of the set equal to \p S, appending \p S if there is none.
  uint32_t intern(PointsToSet &&S);

private:
  std::vector<PointsToSet> &Pool;
  SetHashIndex Index;
};

} // namespace csc

#endif // CSC_SUPPORT_POINTSTOSET_H
