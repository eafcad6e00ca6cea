//===- DenseTable.h - Grow-on-write dense id-indexed tables -----*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tables indexed by a dense 32-bit id and grown on first write: plain
/// vectors with a sentinel fill (the csc pattern memos and the selective
/// context selector), and SlotTable for entries that are themselves
/// containers. The csc pattern plugins keep every table keyed by one id
/// this way; an empty entry is the fast reject on their per-pointer hooks.
///
//===----------------------------------------------------------------------===//

#ifndef CSC_SUPPORT_DENSETABLE_H
#define CSC_SUPPORT_DENSETABLE_H

#include <cstdint>
#include <vector>

namespace csc {

/// V[I] = Value, growing V with \p Fill as needed.
template <typename T>
inline void denseAssign(std::vector<T> &V, uint32_t I, T Value, T Fill) {
  if (I >= V.size())
    V.resize(I + 1, Fill);
  V[I] = Value;
}

/// V[I], or \p Fill for indices beyond the table's current extent.
template <typename T>
inline T denseGet(const std::vector<T> &V, uint32_t I, T Fill) {
  return I < V.size() ? V[I] : Fill;
}

/// A table keyed by a dense 32-bit id where few ids have an entry: a
/// 4-byte slot per id, grown on first write, into a pool of the entries.
/// An id without an entry costs its slot only, not a whole empty \p T.
template <typename T> class SlotTable {
public:
  /// The entry of \p I, or an empty \p T if \p I has none.
  const T &lookup(uint32_t I) const {
    static const T Empty{};
    uint32_t S = denseGet(Slot, I, NoSlot);
    return S == NoSlot ? Empty : Pool[S];
  }

  /// The entry of \p I for update, created empty on first use. Creating
  /// an entry invalidates references to the others.
  T &operator[](uint32_t I) {
    uint32_t S = denseGet(Slot, I, NoSlot);
    if (S == NoSlot) {
      S = static_cast<uint32_t>(Pool.size());
      Pool.emplace_back();
      denseAssign(Slot, I, S, NoSlot);
    }
    return Pool[S];
  }

private:
  static constexpr uint32_t NoSlot = ~0u;
  std::vector<uint32_t> Slot;
  std::vector<T> Pool;
};

} // namespace csc

#endif // CSC_SUPPORT_DENSETABLE_H
