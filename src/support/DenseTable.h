//===- DenseTable.h - Grow-on-write dense id-indexed tables -----*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for the recurring hot-path idiom of a vector indexed by a dense
/// 32-bit id, grown with a sentinel fill value on first write: the
/// fast-reject flag tables and memos of the csc pattern plugins and the
/// selective context selector share these.
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

} // namespace csc

#endif // CSC_SUPPORT_DENSETABLE_H
