// common::TwoLevelBitmap against a std::set reference: random set, reset,
// successor and predecessor queries over sizes on both sides of the word
// (64) and summary-word (4096) boundaries, sparse and dense fills, and
// ascending iteration.

#include "common/two_level_bitmap.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace dsi::common {
namespace {

size_t RefNextAtOrAfter(const std::set<size_t>& ref, size_t i) {
  const auto it = ref.lower_bound(i);
  return it == ref.end() ? TwoLevelBitmap::kNone : *it;
}

size_t RefPrevAtOrBelow(const std::set<size_t>& ref, size_t i) {
  const auto it = ref.upper_bound(i);
  return it == ref.begin() ? TwoLevelBitmap::kNone : *std::prev(it);
}

size_t RandomPosition(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
}

/// \p ops random operations on a bitmap of \p n positions. \p density is
/// the chance an update is a set (rather than a reset), which steers the
/// fill toward sparse or dense.
void CheckAgainstSet(size_t n, double density, size_t ops, uint64_t seed) {
  Rng rng(seed);
  TwoLevelBitmap bits(n);
  std::set<size_t> ref;
  for (size_t op = 0; op < ops; ++op) {
    const size_t i = RandomPosition(rng, n);
    if (rng.Bernoulli(density)) {
      ASSERT_EQ(bits.set(i), ref.insert(i).second) << "set " << i;
    } else {
      ASSERT_EQ(bits.reset(i), ref.erase(i) > 0) << "reset " << i;
    }
    ASSERT_EQ(bits.count(), ref.size());
    ASSERT_EQ(bits.empty(), ref.empty());
    const size_t q = RandomPosition(rng, n);
    ASSERT_EQ(bits.test(q), ref.count(q) > 0) << "test " << q;
    ASSERT_EQ(bits.NextAtOrAfter(q), RefNextAtOrAfter(ref, q))
        << "next " << q << " n=" << n;
    ASSERT_EQ(bits.PrevAtOrBelow(q), RefPrevAtOrBelow(ref, q))
        << "prev " << q << " n=" << n;
  }
  // The ends: past the last position there is no successor, and the
  // predecessor query clamps to the last position.
  EXPECT_EQ(bits.NextAtOrAfter(n), TwoLevelBitmap::kNone);
  EXPECT_EQ(bits.PrevAtOrBelow(n + 100), RefPrevAtOrBelow(ref, n - 1));
  std::vector<size_t> seen;
  bits.ForEach([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, std::vector<size_t>(ref.begin(), ref.end()));
}

TEST(TwoLevelBitmapTest, MatchesSetAcrossSizes) {
  uint64_t seed = 1;
  for (const size_t n : {1, 63, 64, 65, 4095, 4096, 4097, 9000, 20000}) {
    CheckAgainstSet(n, 0.5, 3000, seed++);  // churning
    CheckAgainstSet(n, 0.9, 3000, seed++);  // filling up
    CheckAgainstSet(n, 0.2, 3000, seed++);  // sparse
  }
}

TEST(TwoLevelBitmapTest, SummaryWordBoundaries) {
  // One position per summary word, at both edges of each: the queries
  // must cross whole empty summary words in both directions.
  const size_t n = 3 * 4096 + 17;
  TwoLevelBitmap bits(n);
  for (const size_t i : {0, 4095, 4096, 8191, 12288, 12304}) bits.set(i);
  EXPECT_EQ(bits.NextAtOrAfter(1), 4095u);
  EXPECT_EQ(bits.NextAtOrAfter(4097), 8191u);
  EXPECT_EQ(bits.NextAtOrAfter(8192), 12288u);
  EXPECT_EQ(bits.NextAtOrAfter(12305), TwoLevelBitmap::kNone);
  EXPECT_EQ(bits.PrevAtOrBelow(12303), 12288u);
  EXPECT_EQ(bits.PrevAtOrBelow(12287), 8191u);
  EXPECT_EQ(bits.PrevAtOrBelow(4094), 0u);
  // Emptying a word clears its summary bit: the queries skip it.
  bits.reset(8191);
  bits.reset(4096);
  EXPECT_EQ(bits.NextAtOrAfter(4096), 12288u);
  EXPECT_EQ(bits.PrevAtOrBelow(12287), 4095u);
}

TEST(TwoLevelBitmapTest, ResetResizesAndClears) {
  TwoLevelBitmap bits(100);
  bits.set(99);
  bits.Reset(0);
  EXPECT_TRUE(bits.empty());
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_EQ(bits.NextAtOrAfter(0), TwoLevelBitmap::kNone);
  EXPECT_EQ(bits.PrevAtOrBelow(0), TwoLevelBitmap::kNone);
  bits.Reset(10000);
  EXPECT_EQ(bits.size(), 10000u);
  EXPECT_EQ(bits.NextAtOrAfter(0), TwoLevelBitmap::kNone);
  EXPECT_TRUE(bits.set(9999));
  EXPECT_EQ(bits.NextAtOrAfter(0), 9999u);
}

}  // namespace
}  // namespace dsi::common
