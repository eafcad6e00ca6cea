//===- FlatTableTest.cpp - Unit tests for the open-addressing table -------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/FlatTable.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

using namespace csc;

TEST(FlatTableTest, InsertThenFind) {
  FlatTable<uint32_t> T;
  EXPECT_EQ(T.find(packPair(1, 2)), nullptr); // Empty table.
  auto [V, Inserted] = T.insert(packPair(1, 2), 7);
  EXPECT_TRUE(Inserted);
  EXPECT_EQ(V, 7u);
  ASSERT_NE(T.find(packPair(1, 2)), nullptr);
  EXPECT_EQ(*T.find(packPair(1, 2)), 7u);
  EXPECT_TRUE(T.contains(packPair(1, 2)));
  EXPECT_EQ(T.find(packPair(2, 1)), nullptr); // Halves are not symmetric.
  EXPECT_FALSE(T.contains(packPair(1, 3)));
  // Key 0 is an ordinary key; only ~0ULL marks a free slot.
  EXPECT_TRUE(T.insert(0, 9).second);
  EXPECT_EQ(*T.find(0), 9u);
}

TEST(FlatTableTest, DuplicateInsertKeepsTheFirstValue) {
  FlatTable<uint32_t> T;
  EXPECT_TRUE(T.insert(packPair(4, 5), 1).second);
  auto [V, Inserted] = T.insert(packPair(4, 5), 2);
  EXPECT_FALSE(Inserted);
  EXPECT_EQ(V, 1u); // The value stored under the key, not the offered one.
  EXPECT_EQ(*T.find(packPair(4, 5)), 1u);
  EXPECT_EQ(T.size(), 1u);

  FlatSet S;
  EXPECT_TRUE(S.insert(packPair(4, 5)).second);
  EXPECT_FALSE(S.insert(packPair(4, 5)).second);
  EXPECT_TRUE(S.contains(packPair(4, 5)));
  EXPECT_EQ(S.size(), 1u);
}

TEST(FlatTableTest, GrowsFarPastReserveWithSharedLowBits) {
  // Keys that agree in their low word (one context, or one field, across
  // many objects), and then keys that agree in their high word: every
  // one must survive the regrowths a reserve of 4 forces.
  FlatTable<uint32_t> T;
  T.reserve(4);
  constexpr uint32_t N = 5000;
  for (uint32_t I = 0; I != N; ++I) {
    EXPECT_TRUE(T.insert(packPair(I, 0), I).second);
    EXPECT_TRUE(T.insert(packPair(7, (I + 1) << 12), N + I).second);
  }
  EXPECT_EQ(T.size(), 2u * N);
  for (uint32_t I = 0; I != N; ++I) {
    ASSERT_NE(T.find(packPair(I, 0)), nullptr) << I;
    EXPECT_EQ(*T.find(packPair(I, 0)), I);
    ASSERT_NE(T.find(packPair(7, (I + 1) << 12)), nullptr) << I;
    EXPECT_EQ(*T.find(packPair(7, (I + 1) << 12)), N + I);
  }
  EXPECT_EQ(T.find(packPair(N, 0)), nullptr);
  EXPECT_FALSE(T.insert(packPair(N - 1, 0), 0).second);
  EXPECT_EQ(T.size(), 2u * N);
}

TEST(FlatTableTest, SizeCountsDistinctKeys) {
  FlatSet S;
  EXPECT_EQ(S.size(), 0u);
  S.reserve(100); // Reserving adds no keys.
  EXPECT_EQ(S.size(), 0u);
  for (uint32_t I = 0; I != 40; ++I)
    S.insert(packPair(I % 10, I % 4)); // 20 distinct pairs.
  EXPECT_EQ(S.size(), 20u);
}
