//===- PointsToSetTest.cpp - Unit tests for the hybrid set ----------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/PointsToSet.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace csc;

TEST(PointsToSetTest, EmptyOnConstruction) {
  PointsToSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.size(), 0u);
  EXPECT_FALSE(S.contains(0));
  EXPECT_TRUE(S.toVector().empty());
}

TEST(PointsToSetTest, InsertReportsNovelty) {
  PointsToSet S;
  EXPECT_TRUE(S.insert(7));
  EXPECT_FALSE(S.insert(7));
  EXPECT_TRUE(S.insert(3));
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(7));
  EXPECT_TRUE(S.contains(3));
  EXPECT_FALSE(S.contains(5));
}

TEST(PointsToSetTest, IterationIsSortedSmall) {
  PointsToSet S;
  for (uint32_t O : {9u, 1u, 5u, 3u})
    S.insert(O);
  EXPECT_EQ(S.toVector(), (std::vector<uint32_t>{1, 3, 5, 9}));
}

TEST(PointsToSetTest, PromotionPreservesContents) {
  PointsToSet S;
  std::vector<uint32_t> Expected;
  // Insert enough spread-out values to force bitmap promotion.
  for (uint32_t I = 0; I < 200; ++I) {
    uint32_t O = I * 37 + 5;
    S.insert(O);
    Expected.push_back(O);
  }
  std::sort(Expected.begin(), Expected.end());
  EXPECT_EQ(S.size(), Expected.size());
  EXPECT_EQ(S.toVector(), Expected);
  for (uint32_t O : Expected)
    EXPECT_TRUE(S.contains(O));
  EXPECT_FALSE(S.contains(4));
}

TEST(PointsToSetTest, InsertAfterPromotionReportsNovelty) {
  PointsToSet S;
  for (uint32_t I = 0; I < 100; ++I)
    S.insert(I);
  EXPECT_FALSE(S.insert(50));
  EXPECT_TRUE(S.insert(100000));
  EXPECT_TRUE(S.contains(100000));
}

TEST(PointsToSetTest, IntersectsBothRepresentations) {
  PointsToSet Small1, Small2, Big;
  Small1.insert(4);
  Small1.insert(8);
  Small2.insert(9);
  for (uint32_t I = 0; I < 100; ++I)
    Big.insert(I * 2);
  EXPECT_FALSE(Small1.intersects(Small2));
  EXPECT_TRUE(Small1.intersects(Big));  // 4 is even.
  EXPECT_FALSE(Small2.intersects(Big)); // 9 is odd.
  EXPECT_TRUE(Big.intersects(Big));
}

TEST(PointsToSetTest, UnionWithReportsDelta) {
  PointsToSet A, B, Delta;
  for (uint32_t O : {1u, 5u, 9u})
    A.insert(O);
  for (uint32_t O : {5u, 9u, 12u, 40u})
    B.insert(O);
  EXPECT_EQ(A.unionWith(B, Delta), 2u);
  EXPECT_EQ(Delta.toVector(), (std::vector<uint32_t>{12, 40}));
  EXPECT_EQ(A.toVector(), (std::vector<uint32_t>{1, 5, 9, 12, 40}));
  // Re-union: nothing new; the delta out-param is cleared.
  EXPECT_EQ(A.unionWith(B, Delta), 0u);
  EXPECT_TRUE(Delta.empty());
}

TEST(PointsToSetTest, UnionWithSelfIsNoop) {
  PointsToSet S;
  for (uint32_t I = 0; I < 100; ++I)
    S.insert(I * 3);
  EXPECT_EQ(S.unionWith(S), 0u);
  EXPECT_EQ(S.size(), 100u);
}

TEST(PointsToSetTest, UnionWithFilteredAndExcluding) {
  PointsToSet Dst, Src, Mask, Excl;
  for (uint32_t I = 0; I < 200; ++I)
    Src.insert(I);
  for (uint32_t I = 0; I < 200; I += 2)
    Mask.insert(I); // evens
  for (uint32_t I = 0; I < 200; I += 4)
    Excl.insert(I); // every fourth
  EXPECT_EQ(Dst.unionWithFiltered(Src, Mask, Excl), 50u);
  Dst.forEach([](uint32_t O) {
    EXPECT_EQ(O % 2, 0u);
    EXPECT_NE(O % 4, 0u);
  });
  PointsToSet Dst2;
  EXPECT_EQ(Dst2.unionWithFiltered(Src, Mask), 100u);
  EXPECT_EQ(Dst2.unionWithExcluding(Src, Mask), 100u); // the odds
  EXPECT_EQ(Dst2.size(), 200u);
}

TEST(PointsToSetTest, ClearKeepsSetUsable) {
  PointsToSet S;
  for (uint32_t I = 0; I < 500; ++I)
    S.insert(I * 7);
  S.clear();
  EXPECT_TRUE(S.empty());
  EXPECT_FALSE(S.contains(7));
  EXPECT_TRUE(S.insert(3));
  EXPECT_EQ(S.toVector(), std::vector<uint32_t>{3});
}

TEST(PointsToSetTest, EqualityAndHashIgnoreRepresentation) {
  // The same three elements inline and as a bitmap whose word vector
  // runs past its last element (a masked union sizes it to the operand).
  PointsToSet Small;
  for (uint32_t O : {200u, 3u, 70u})
    Small.insert(O);
  PointsToSet Big;
  for (uint32_t O = 0; O != 40; ++O)
    Big.insert(O < 3 ? 3 : O * 5 + 300);
  PointsToSet Mask;
  for (uint32_t O : {3u, 70u, 200u, 999u})
    Mask.insert(O);
  Mask.ensureBitmap();
  PointsToSet Bits;
  Bits.ensureBitmap();
  Bits.unionWithFiltered(Big, Mask); // {3}, words up to Big's extent
  Bits.insert(70);
  Bits.insert(200);
  ASSERT_EQ(Bits.toVector(), Small.toVector());
  EXPECT_TRUE(Small == Bits);
  EXPECT_TRUE(Bits == Small);
  EXPECT_EQ(Small.hash(), Bits.hash());

  PointsToSet Other = Small;
  Other.insert(71);
  EXPECT_FALSE(Other == Small);
  EXPECT_FALSE(Bits == Other);
  EXPECT_NE(Other.hash(), Small.hash());
  EXPECT_TRUE(PointsToSet() == PointsToSet());
}

TEST(PointsToSetTest, InternerKeepsOneCopyOfEachSet) {
  std::vector<PointsToSet> Pool(1);
  PointsToSetInterner Interner(Pool);
  PointsToSet A, B;
  A.insert(4);
  B.insert(4);
  B.insert(9);
  PointsToSet A2 = A, B2 = B;
  B2.ensureBitmap();
  EXPECT_EQ(Interner.intern(std::move(A)), 1u);
  EXPECT_EQ(Interner.intern(std::move(B)), 2u);
  EXPECT_EQ(Interner.intern(std::move(B2)), 2u);
  EXPECT_EQ(Interner.intern(std::move(A2)), 1u);
  EXPECT_EQ(Pool.size(), 3u);

  // Enough sets to grow the index several times; every copy still
  // finds its original.
  for (uint32_t I = 0; I != 200; ++I) {
    PointsToSet S;
    S.insert(1000 + I);
    S.insert(5 * I);
    EXPECT_EQ(Interner.intern(std::move(S)), 3 + I);
  }
  for (uint32_t I = 0; I != 200; ++I) {
    PointsToSet S;
    S.insert(5 * I);
    S.insert(1000 + I);
    EXPECT_EQ(Interner.intern(std::move(S)), 3 + I);
  }
  EXPECT_EQ(Pool.size(), 203u);
}

/// Property sweep: the hybrid set must behave exactly like std::set under
/// random insert/query sequences, across sizes that cross the promotion
/// threshold.
class PointsToSetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PointsToSetPropertyTest, MatchesReferenceSet) {
  Rng R(GetParam());
  PointsToSet S;
  std::set<uint32_t> Ref;
  uint32_t Universe = 1 + R.nextInRange(500);
  for (int I = 0; I < 400; ++I) {
    uint32_t O = R.nextInRange(Universe);
    bool NewToRef = Ref.insert(O).second;
    EXPECT_EQ(S.insert(O), NewToRef) << "element " << O;
    uint32_t Q = R.nextInRange(Universe);
    EXPECT_EQ(S.contains(Q), Ref.count(Q) != 0) << "query " << Q;
  }
  EXPECT_EQ(S.size(), Ref.size());
  std::vector<uint32_t> Expected(Ref.begin(), Ref.end());
  EXPECT_EQ(S.toVector(), Expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointsToSetPropertyTest,
                         ::testing::Range(1, 21));

/// Property sweep of the bulk operations: every union kernel must match a
/// std::set reference for every representation of this, Other, Mask and
/// Exclude — empty, inline, small, bitmap, and a bitmap holding no more
/// elements than the small tier would.
namespace {

enum class Tier { Empty, Inline, Small, Bitmap, SparseBitmap };
constexpr Tier AllTiers[] = {Tier::Empty, Tier::Inline, Tier::Small,
                             Tier::Bitmap, Tier::SparseBitmap};
constexpr uint32_t SmallLimit = 24; // PointsToSet's small-tier bound.

using RefSet = std::set<uint32_t>;

/// A random set of tier \p T over [0, Universe), mirrored into \p Ref.
PointsToSet makeSet(Rng &R, Tier T, RefSet &Ref) {
  static constexpr uint32_t Universes[] = {64, 200, 700};
  uint32_t Universe = Universes[R.nextInRange(3)];
  uint32_t N = 0;
  switch (T) {
  case Tier::Empty:
    break;
  case Tier::Inline:
    N = 1 + R.nextInRange(4);
    break;
  case Tier::Small:
    N = 5 + R.nextInRange(SmallLimit - 4);
    break;
  case Tier::Bitmap:
    N = SmallLimit + 1 + R.nextInRange(Universe / 2);
    break;
  case Tier::SparseBitmap:
    N = 1 + R.nextInRange(SmallLimit);
    break;
  }
  PointsToSet S;
  Ref.clear();
  while (Ref.size() < N) {
    uint32_t O = R.nextInRange(Universe);
    Ref.insert(O);
    S.insert(O);
  }
  if (T == Tier::SparseBitmap)
    S.ensureBitmap();
  return S;
}

PointsToSet fromRef(const RefSet &Ref) {
  PointsToSet S;
  for (uint32_t O : Ref)
    S.insert(O);
  return S;
}

/// Per-sweep tallies of the deltas a bitmap Other produced, to show both
/// sides of the small-tier bound were exercised.
struct DeltaTally {
  unsigned Small = 0;
  unsigned Large = 0;
};

/// Runs one union and checks it against the reference: this |= ((Other ∩
/// Mask) ∖ Exclude), with a null Mask/Exclude skipping that step.
void checkUnion(Rng &R, Tier ThisT, Tier OtherT, const Tier *MaskT,
                const Tier *ExclT, bool WithDelta, PointsToSet &Delta,
                DeltaTally &Tally) {
  RefSet RThis, ROther, RMask, RExcl;
  PointsToSet This = makeSet(R, ThisT, RThis);
  PointsToSet Other = makeSet(R, OtherT, ROther);
  PointsToSet Mask, Excl;
  if (MaskT)
    Mask = makeSet(R, *MaskT, RMask);
  if (ExclT)
    Excl = makeSet(R, *ExclT, RExcl);

  RefSet Expected = RThis;
  std::vector<uint32_t> New;
  for (uint32_t O : ROther)
    if ((!MaskT || RMask.count(O)) && (!ExclT || !RExcl.count(O)) &&
        Expected.insert(O).second)
      New.push_back(O);

  uint32_t Added;
  if (MaskT && ExclT)
    Added = This.unionWithFiltered(Other, Mask, Excl);
  else if (MaskT)
    Added = This.unionWithFiltered(Other, Mask);
  else if (ExclT)
    Added = This.unionWithExcluding(Other, Excl);
  else if (WithDelta)
    Added = This.unionWith(Other, Delta);
  else
    Added = This.unionWith(Other);

  SCOPED_TRACE(::testing::Message()
               << "tiers this=" << int(ThisT) << " other=" << int(OtherT)
               << " mask=" << (MaskT ? int(*MaskT) : -1)
               << " exclude=" << (ExclT ? int(*ExclT) : -1)
               << " delta=" << WithDelta);
  EXPECT_EQ(Added, New.size());
  EXPECT_EQ(This.size(), Expected.size());
  EXPECT_EQ(This.toVector(),
            std::vector<uint32_t>(Expected.begin(), Expected.end()));
  PointsToSet Fresh = fromRef(Expected);
  EXPECT_TRUE(This == Fresh);
  EXPECT_EQ(This.hash(), Fresh.hash());
  for (uint32_t Q = 0; Q < 720; Q += 7)
    EXPECT_EQ(This.contains(Q), Expected.count(Q) != 0) << "query " << Q;
  // The result keeps working as a set.
  EXPECT_TRUE(This.insert(5000));
  EXPECT_EQ(This.size(), Expected.size() + 1);

  if (!WithDelta)
    return;
  EXPECT_EQ(Delta.toVector(), New);
  EXPECT_EQ(Delta.size(), New.size());
  PointsToSet FreshDelta = fromRef(RefSet(New.begin(), New.end()));
  EXPECT_TRUE(Delta == FreshDelta);
  EXPECT_EQ(Delta.hash(), FreshDelta.hash());
  for (uint32_t O : New)
    EXPECT_TRUE(Delta.contains(O));
  if (OtherT == Tier::Bitmap || OtherT == Tier::SparseBitmap)
    (New.size() <= SmallLimit ? Tally.Small : Tally.Large)++;
}

} // namespace

class PointsToSetBulkPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PointsToSetBulkPropertyTest, MatchesReferenceSet) {
  Rng R(GetParam());
  // One delta reused across calls, as the solver reuses its scratch set.
  PointsToSet Delta;
  DeltaTally Tally;
  for (Tier ThisT : AllTiers)
    for (Tier OtherT : AllTiers) {
      checkUnion(R, ThisT, OtherT, nullptr, nullptr, false, Delta, Tally);
      checkUnion(R, ThisT, OtherT, nullptr, nullptr, true, Delta, Tally);
      for (const Tier &MaskT : AllTiers) {
        checkUnion(R, ThisT, OtherT, &MaskT, nullptr, false, Delta, Tally);
        for (const Tier &ExclT : AllTiers)
          checkUnion(R, ThisT, OtherT, &MaskT, &ExclT, false, Delta, Tally);
      }
      for (const Tier &ExclT : AllTiers)
        checkUnion(R, ThisT, OtherT, nullptr, &ExclT, false, Delta, Tally);
    }
  EXPECT_GT(Tally.Small, 0u);
  EXPECT_GT(Tally.Large, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointsToSetBulkPropertyTest,
                         ::testing::Range(1, 11));

TEST(PointsToSetTest, UnionExcludingItselfIsPlainUnion) {
  PointsToSet S, Other;
  for (uint32_t I = 0; I < 100; ++I)
    Other.insert(I * 3);
  S.insert(3);
  S.insert(4);
  EXPECT_EQ(S.unionWithExcluding(Other, S), 99u);
  EXPECT_EQ(S.size(), 101u);
  EXPECT_TRUE(S.contains(4));
  EXPECT_TRUE(S.contains(297));
}
