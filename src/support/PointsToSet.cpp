//===- PointsToSet.cpp - Hybrid set of abstract object ids ---------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/PointsToSet.h"

#include <algorithm>
#include <cassert>

using namespace csc;

bool PointsToSet::insert(uint32_t O) {
  if (!UseBits) {
    if (Small.empty()) {
      // Inline tier: the first few elements live in the object itself,
      // so the typical tiny set never touches the heap.
      uint32_t I = 0;
      while (I < Count && Inline[I] < O)
        ++I;
      if (I < Count && Inline[I] == O)
        return false;
      if (Count < InlineLimit) {
        for (uint32_t J = Count; J > I; --J)
          Inline[J] = Inline[J - 1];
        Inline[I] = O;
        ++Count;
        return true;
      }
      // Overflow: spill the inline elements (plus O) into Small, sized
      // for the full small tier in one allocation.
      Small.reserve(SmallLimit);
      Small.assign(Inline, Inline + InlineLimit);
      Small.insert(Small.begin() + I, O);
      ++Count;
      return true;
    }
    auto It = std::lower_bound(Small.begin(), Small.end(), O);
    if (It != Small.end() && *It == O)
      return false;
    if (Small.size() < SmallLimit) {
      Small.insert(It, O);
      ++Count;
      return true;
    }
    promote();
  }
  size_t Word = O / 64;
  if (Word >= Bits.size())
    Bits.resize(Word + 1, 0);
  uint64_t Mask = 1ULL << (O % 64);
  if (Bits[Word] & Mask)
    return false;
  Bits[Word] |= Mask;
  ++Count;
  return true;
}

bool PointsToSet::contains(uint32_t O) const {
  if (!UseBits) {
    if (Small.empty()) {
      for (uint32_t I = 0; I < Count; ++I)
        if (Inline[I] == O)
          return true;
      return false;
    }
    return std::binary_search(Small.begin(), Small.end(), O);
  }
  size_t Word = O / 64;
  if (Word >= Bits.size())
    return false;
  return (Bits[Word] >> (O % 64)) & 1;
}

void PointsToSet::clear() {
  // O(1): reverting to the small representation empties the word vector
  // (capacity is retained, and vector growth zero-fills re-exposed words),
  // so scratch sets clear for free no matter how large they once were.
  Small.clear();
  Bits.clear();
  UseBits = false;
  Count = 0;
}

void PointsToSet::promote() {
  // Bits is empty here: insert-driven growth keeps it tight and clear()
  // empties it, so Bits.size() is always the exact word extent (max id
  // seen / 64 + 1) — bulk operations never scan stale capacity.
  uint32_t N;
  const uint32_t *Elems = smallData(N);
  UseBits = true;
  if (N != 0) {
    Bits.resize(Elems[N - 1] / 64 + 1, 0);
    for (uint32_t I = 0; I != N; ++I)
      Bits[Elems[I] / 64] |= 1ULL << (Elems[I] % 64);
  }
  Small.clear();
}

std::vector<uint32_t> PointsToSet::toVector() const {
  std::vector<uint32_t> Out;
  Out.reserve(Count);
  forEach([&Out](uint32_t O) { Out.push_back(O); });
  return Out;
}

namespace {

/// Folds one non-zero word \p Bits at word index \p W into \p H.
uint64_t mixWord(uint64_t H, uint64_t W, uint64_t Bits) {
  H ^= Bits + 0x9e3779b97f4a7c15ULL * (W + 1);
  H *= 0xff51afd7ed558ccdULL;
  return H ^ (H >> 29);
}

} // namespace

uint64_t PointsToSet::hash() const {
  uint64_t H = Count;
  if (UseBits) {
    for (size_t W = 0, E = Bits.size(); W != E; ++W)
      if (Bits[W])
        H = mixWord(H, W, Bits[W]);
    return H;
  }
  // Assemble the words a bitmap would hold from the sorted elements.
  uint32_t N;
  const uint32_t *Elems = smallData(N);
  uint64_t Word = 0, CurW = 0;
  for (uint32_t I = 0; I != N; ++I) {
    uint64_t W = Elems[I] / 64;
    if (Word && W != CurW) {
      H = mixWord(H, CurW, Word);
      Word = 0;
    }
    CurW = W;
    Word |= 1ULL << (Elems[I] % 64);
  }
  return Word ? mixWord(H, CurW, Word) : H;
}

bool PointsToSet::operator==(const PointsToSet &Other) const {
  if (Count != Other.Count)
    return false;
  if (UseBits && Other.UseBits) {
    // Equal counts and equal common words leave no bits for the longer
    // side's tail, so the common prefix decides.
    size_t Words = std::min(Bits.size(), Other.Bits.size());
    return std::equal(Bits.begin(), Bits.begin() + Words,
                      Other.Bits.begin());
  }
  // With equal counts, containment of the small side is equality.
  const PointsToSet &S = !UseBits ? *this : Other;
  const PointsToSet &L = !UseBits ? Other : *this;
  uint32_t N;
  const uint32_t *Elems = S.smallData(N);
  if (!L.UseBits) {
    uint32_t M;
    const uint32_t *LElems = L.smallData(M);
    return std::equal(Elems, Elems + N, LElems);
  }
  for (uint32_t I = 0; I != N; ++I)
    if (!L.contains(Elems[I]))
      return false;
  return true;
}

void SetHashIndex::insert(uint64_t Hash, uint32_t Id) {
  if (2 * (Count + 1) > Ids.size()) {
    // Grow at half load and re-place every entry.
    std::vector<uint64_t> OldHashes = std::move(Hashes);
    std::vector<uint32_t> OldIds = std::move(Ids);
    size_t Size = std::max<size_t>(16, 2 * OldIds.size());
    Hashes.assign(Size, 0);
    Ids.assign(Size, None);
    Count = 0;
    for (size_t I = 0; I != OldIds.size(); ++I)
      if (OldIds[I] != None)
        insert(OldHashes[I], OldIds[I]);
  }
  const size_t Mask = Ids.size() - 1;
  size_t I = Hash & Mask;
  while (Ids[I] != None)
    I = (I + 1) & Mask;
  Hashes[I] = Hash;
  Ids[I] = Id;
  ++Count;
}

uint32_t PointsToSetInterner::intern(PointsToSet &&S) {
  uint64_t H = S.hash();
  uint32_t Found = Index.find(H, [&](uint32_t I) { return Pool[I] == S; });
  if (Found != SetHashIndex::None)
    return Found;
  uint32_t I = static_cast<uint32_t>(Pool.size());
  Pool.push_back(std::move(S));
  Index.insert(H, I);
  return I;
}

//===----------------------------------------------------------------------===//
// Word-parallel bulk operations
//===----------------------------------------------------------------------===//

/// Reads a set's 64-bit words in ascending word order: a bitmap's in
/// place, a small set's assembled from its sorted elements with a forward
/// cursor. Each reader serves one pass; word indices must increase.
class PointsToSet::WordCursor {
public:
  explicit WordCursor(const PointsToSet *S) : S(S) {
    if (S && !S->UseBits)
      Elems = S->smallData(N);
  }

  uint64_t at(std::size_t W) {
    if (S->UseBits)
      return S->wordAt(W);
    while (I != N && Elems[I] / 64 < W)
      ++I;
    uint64_t Word = 0;
    for (; I != N && Elems[I] / 64 == W; ++I)
      Word |= 1ULL << (Elems[I] % 64);
    return Word;
  }

private:
  const PointsToSet *S;
  const uint32_t *Elems = nullptr;
  uint32_t N = 0;
  uint32_t I = 0;
};

void PointsToSet::demote() {
  assert(Count <= SmallLimit && "only a small-tier-sized set demotes");
  uint32_t Elems[SmallLimit] = {};
  uint32_t N = 0;
  forEach([&](uint32_t O) { Elems[N++] = O; });
  Bits.clear();
  UseBits = false;
  if (N <= InlineLimit)
    std::copy(Elems, Elems + N, Inline);
  else
    Small.assign(Elems, Elems + N);
}

/// The shared union kernel: this |= ((Other ∩ Mask) ∖ Exclude), with new
/// elements reported through DeltaOut. Null Mask/Exclude/DeltaOut skip the
/// respective step. A bitmap Other is walked a word at a time whatever the
/// representation of Mask and Exclude (WordCursor), and the delta is
/// written a word at a time; only a small Other (at most SmallLimit
/// elements) is merged element by element.
uint32_t PointsToSet::unionImpl(const PointsToSet &Other,
                                const PointsToSet *Mask,
                                const PointsToSet *Exclude,
                                PointsToSet *DeltaOut) {
  if (DeltaOut)
    DeltaOut->clear();
  if (Other.empty() || &Other == this || (Mask && Mask->empty()))
    return 0;
  // Excluding this set from a union into it changes nothing.
  if (Exclude && (Exclude->empty() || Exclude == this))
    Exclude = nullptr;

  uint32_t Added = 0;
  if (!Other.UseBits) {
    Other.forEach([&](uint32_t O) {
      if (Mask && !Mask->contains(O))
        return;
      if (Exclude && Exclude->contains(O))
        return;
      if (insert(O)) {
        ++Added;
        if (DeltaOut)
          DeltaOut->insert(O);
      }
    });
    return Added;
  }

  const size_t Words = Other.Bits.size();
  auto Incoming = [&](WordCursor &MaskWords, WordCursor &ExcludeWords,
                      size_t W) {
    uint64_t In = Other.Bits[W];
    if (In && Mask)
      In &= MaskWords.at(W);
    if (In && Exclude)
      In &= ~ExcludeWords.at(W);
    return In;
  };
  if (!UseBits) {
    // A masked/excluded union may shrink far below Other's size, so count
    // the incoming elements word-parallel first: if everything fits under
    // the promotion threshold the set stays a small vector (huge bitmaps
    // must not leak into the many tiny sets a run produces). Unmasked
    // unions skip the pre-pass — Other alone already exceeds the limit.
    uint64_t Arriving = Other.Count;
    if (Mask || Exclude) {
      Arriving = 0;
      WordCursor MaskWords(Mask), ExcludeWords(Exclude);
      for (size_t W = 0; W < Words && Count + Arriving <= SmallLimit; ++W)
        Arriving += popCount(Incoming(MaskWords, ExcludeWords, W));
    }
    if (Count + Arriving <= SmallLimit) {
      WordCursor MaskWords(Mask), ExcludeWords(Exclude);
      for (size_t W = 0; W < Words; ++W) {
        uint64_t In = Incoming(MaskWords, ExcludeWords, W);
        while (In) {
          uint32_t O = static_cast<uint32_t>(W * 64 + countTrailingZeros(In));
          In &= In - 1;
          if (insert(O)) {
            ++Added;
            if (DeltaOut)
              DeltaOut->insert(O);
          }
        }
      }
      return Added;
    }
    promote();
  }

  if (Bits.size() < Words)
    Bits.resize(Words, 0);
  if (DeltaOut) {
    DeltaOut->UseBits = true;
    DeltaOut->Bits.resize(Words, 0);
  }
  size_t DeltaWords = 0;
  WordCursor MaskWords(Mask), ExcludeWords(Exclude);
  for (size_t W = 0; W < Words; ++W) {
    uint64_t New = Incoming(MaskWords, ExcludeWords, W) & ~Bits[W];
    if (!New)
      continue;
    Bits[W] |= New;
    Added += popCount(New);
    if (DeltaOut) {
      DeltaOut->Bits[W] = New;
      DeltaWords = W + 1;
    }
  }
  Count += Added;
  if (DeltaOut) {
    // Keep the delta's word extent exact, and give a small delta its
    // cheap small-tier forEach back.
    DeltaOut->Bits.resize(DeltaWords);
    DeltaOut->Count = Added;
    if (Added <= SmallLimit)
      DeltaOut->demote();
  }
  return Added;
}

uint32_t PointsToSet::unionWith(const PointsToSet &Other) {
  return unionImpl(Other, nullptr, nullptr, nullptr);
}

uint32_t PointsToSet::unionWith(const PointsToSet &Other,
                                PointsToSet &DeltaOut) {
  return unionImpl(Other, nullptr, nullptr, &DeltaOut);
}

uint32_t PointsToSet::unionWithFiltered(const PointsToSet &Other,
                                        const PointsToSet &Mask) {
  return unionImpl(Other, &Mask, nullptr, nullptr);
}

uint32_t PointsToSet::unionWithFiltered(const PointsToSet &Other,
                                        const PointsToSet &Mask,
                                        const PointsToSet &Exclude) {
  return unionImpl(Other, &Mask, &Exclude, nullptr);
}

uint32_t PointsToSet::unionWithExcluding(const PointsToSet &Other,
                                         const PointsToSet &Exclude) {
  return unionImpl(Other, nullptr, &Exclude, nullptr);
}

bool PointsToSet::intersects(const PointsToSet &Other) const {
  if (UseBits && Other.UseBits) {
    size_t Words = std::min(Bits.size(), Other.Bits.size());
    for (size_t W = 0; W < Words; ++W)
      if (Bits[W] & Other.Bits[W])
        return true;
    return false;
  }
  const PointsToSet &S = !UseBits ? *this : Other;
  const PointsToSet &L = !UseBits ? Other : *this;
  uint32_t N;
  const uint32_t *Elems = S.smallData(N);
  for (uint32_t I = 0; I != N; ++I)
    if (L.contains(Elems[I]))
      return true;
  return false;
}
