#include "hilbert/hilbert.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>

#include "common/rng.hpp"

namespace dsi::hilbert {
namespace {

TEST(HilbertCurveTest, Order1Layout) {
  const HilbertCurve c(1);
  EXPECT_EQ(c.side(), 2u);
  EXPECT_EQ(c.num_cells(), 4u);
  EXPECT_EQ(c.CellToIndex(0, 0), 0u);
  EXPECT_EQ(c.CellToIndex(0, 1), 1u);
  EXPECT_EQ(c.CellToIndex(1, 1), 2u);
  EXPECT_EQ(c.CellToIndex(1, 0), 3u);
}

TEST(HilbertCurveTest, PaperFigure2Order3) {
  // Figure 2 of the paper: "point (1, 1) has the HC value of 2" on an
  // order-3 curve.
  const HilbertCurve c(3);
  EXPECT_EQ(c.CellToIndex(1, 1), 2u);
  // Origin is always index 0.
  EXPECT_EQ(c.CellToIndex(0, 0), 0u);
}

class HilbertRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(HilbertRoundTripTest, IndexToCellInvertsCellToIndex) {
  const HilbertCurve c(GetParam());
  for (uint64_t d = 0; d < c.num_cells(); ++d) {
    const auto [x, y] = c.IndexToCell(d);
    EXPECT_EQ(c.CellToIndex(x, y), d);
  }
}

TEST_P(HilbertRoundTripTest, BijectionCoversAllCells) {
  const HilbertCurve c(GetParam());
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (uint64_t d = 0; d < c.num_cells(); ++d) {
    seen.insert(c.IndexToCell(d));
  }
  EXPECT_EQ(seen.size(), c.num_cells());
}

TEST_P(HilbertRoundTripTest, ConsecutiveIndexesAreAdjacentCells) {
  // The defining locality property of the Hilbert curve: consecutive curve
  // indexes map to 4-adjacent cells.
  const HilbertCurve c(GetParam());
  auto [px, py] = c.IndexToCell(0);
  for (uint64_t d = 1; d < c.num_cells(); ++d) {
    const auto [x, y] = c.IndexToCell(d);
    const int dx = std::abs(static_cast<int>(x) - static_cast<int>(px));
    const int dy = std::abs(static_cast<int>(y) - static_cast<int>(py));
    ASSERT_EQ(dx + dy, 1) << "jump at d=" << d;
    px = x;
    py = y;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, HilbertRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(HilbertCurveTest, LargeOrderRoundTripSamples) {
  const HilbertCurve c(20);
  common::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto x = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(c.side()) - 1));
    const auto y = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(c.side()) - 1));
    const uint64_t d = c.CellToIndex(x, y);
    EXPECT_LT(d, c.num_cells());
    const auto [rx, ry] = c.IndexToCell(d);
    EXPECT_EQ(rx, x);
    EXPECT_EQ(ry, y);
  }
}

// Oracle for range decomposition: enumerate every cell in the rect.
std::vector<HcRange> BruteForceRanges(const HilbertCurve& c, uint32_t x_lo,
                                      uint32_t y_lo, uint32_t x_hi,
                                      uint32_t y_hi) {
  std::vector<uint64_t> ds;
  for (uint32_t x = x_lo; x <= x_hi; ++x) {
    for (uint32_t y = y_lo; y <= y_hi; ++y) {
      ds.push_back(c.CellToIndex(x, y));
    }
  }
  std::sort(ds.begin(), ds.end());
  std::vector<HcRange> out;
  for (uint64_t d : ds) {
    if (!out.empty() && out.back().hi + 1 == d) {
      out.back().hi = d;
    } else {
      out.push_back(HcRange{d, d});
    }
  }
  return out;
}

TEST(HilbertRangesTest, FullGridIsOneRange) {
  const HilbertCurve c(4);
  const auto ranges = c.RangesInCellRect(0, 0, 15, 15);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (HcRange{0, 255}));
}

TEST(HilbertRangesTest, SingleCell) {
  const HilbertCurve c(4);
  for (uint32_t x = 0; x < 16; x += 5) {
    for (uint32_t y = 0; y < 16; y += 5) {
      const auto ranges = c.RangesInCellRect(x, y, x, y);
      ASSERT_EQ(ranges.size(), 1u);
      const uint64_t d = c.CellToIndex(x, y);
      EXPECT_EQ(ranges[0], (HcRange{d, d}));
    }
  }
}

TEST(HilbertRangesTest, MatchesBruteForceOracleExhaustive) {
  const HilbertCurve c(4);
  // Every rectangle on an order-4 grid.
  for (uint32_t x_lo = 0; x_lo < 16; x_lo += 3) {
    for (uint32_t y_lo = 0; y_lo < 16; y_lo += 3) {
      for (uint32_t x_hi = x_lo; x_hi < 16; x_hi += 4) {
        for (uint32_t y_hi = y_lo; y_hi < 16; y_hi += 4) {
          EXPECT_EQ(c.RangesInCellRect(x_lo, y_lo, x_hi, y_hi),
                    BruteForceRanges(c, x_lo, y_lo, x_hi, y_hi));
        }
      }
    }
  }
}

TEST(HilbertRangesTest, MatchesBruteForceOracleRandomOrder7) {
  const HilbertCurve c(7);
  common::Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const auto x_lo = static_cast<uint32_t>(rng.UniformInt(0, 120));
    const auto y_lo = static_cast<uint32_t>(rng.UniformInt(0, 120));
    const auto x_hi = static_cast<uint32_t>(
        rng.UniformInt(x_lo, std::min<int64_t>(127, x_lo + 25)));
    const auto y_hi = static_cast<uint32_t>(
        rng.UniformInt(y_lo, std::min<int64_t>(127, y_lo + 25)));
    EXPECT_EQ(c.RangesInCellRect(x_lo, y_lo, x_hi, y_hi),
              BruteForceRanges(c, x_lo, y_lo, x_hi, y_hi));
  }
}

TEST(HilbertRangesTest, RangesAreSortedDisjointNonAdjacent) {
  const HilbertCurve c(8);
  const auto ranges = c.RangesInCellRect(10, 20, 100, 90);
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_LE(ranges[i].lo, ranges[i].hi);
    if (i > 0) {
      EXPECT_GT(ranges[i].lo, ranges[i - 1].hi + 1);
    }
  }
}

TEST(NormalizeRangesTest, MergesOverlapAndAdjacency) {
  std::vector<HcRange> out{{4, 9}, {0, 3}, {15, 20}, {8, 12}};
  NormalizeRangesInPlace(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (HcRange{0, 12}));
  EXPECT_EQ(out[1], (HcRange{15, 20}));
}

TEST(NormalizeRangesTest, EmptyInput) {
  std::vector<HcRange> out;
  NormalizeRangesInPlace(&out);
  EXPECT_TRUE(out.empty());
}

TEST(NormalizeRangesTest, NestedRanges) {
  std::vector<HcRange> out{{0, 100}, {10, 20}, {30, 40}};
  NormalizeRangesInPlace(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (HcRange{0, 100}));
}

TEST(RangesMatchingTest, CircleClassifierConservative) {
  // A classifier that never returns kFull must still produce exactly the
  // matching cells (every partial leaf is emitted).
  const HilbertCurve c(5);
  const auto all = c.RangesMatching(
      [](uint64_t, uint64_t, uint64_t) {
        return HilbertCurve::BlockClass::kPartial;
      });
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], (HcRange{0, c.num_cells() - 1}));
}

// AnyMatchingIn over the (exact) cell-rectangle classifier agrees with
// "some range of the decomposition meets [a, b]" for every span.
TEST(AnyMatchingInTest, MatchesDecompositionForEverySpan) {
  const HilbertCurve c(3);
  common::Rng rng(31);
  for (int trial = 0; trial < 150; ++trial) {
    auto x_lo = static_cast<uint32_t>(rng.UniformInt(0, 7));
    auto x_hi = static_cast<uint32_t>(rng.UniformInt(0, 7));
    auto y_lo = static_cast<uint32_t>(rng.UniformInt(0, 7));
    auto y_hi = static_cast<uint32_t>(rng.UniformInt(0, 7));
    if (x_lo > x_hi) std::swap(x_lo, x_hi);
    if (y_lo > y_hi) std::swap(y_lo, y_hi);
    const auto classify = [&](uint64_t bx, uint64_t by, uint64_t side) {
      if (bx > x_hi || bx + side - 1 < x_lo || by > y_hi ||
          by + side - 1 < y_lo) {
        return HilbertCurve::BlockClass::kDisjoint;
      }
      if (bx >= x_lo && bx + side - 1 <= x_hi && by >= y_lo &&
          by + side - 1 <= y_hi) {
        return HilbertCurve::BlockClass::kFull;
      }
      return HilbertCurve::BlockClass::kPartial;
    };
    const auto ranges = c.RangesInCellRect(x_lo, y_lo, x_hi, y_hi);
    for (uint64_t a = 0; a < c.num_cells(); ++a) {
      for (uint64_t b = a; b < c.num_cells(); ++b) {
        bool want = false;
        for (const HcRange& r : ranges) want |= r.lo <= b && a <= r.hi;
        ASSERT_EQ(c.AnyMatchingIn(classify, a, b), want)
            << "rect [" << x_lo << ".." << x_hi << "] x [" << y_lo << ".."
            << y_hi << "] span [" << a << ", " << b << "]";
      }
    }
  }
}

}  // namespace
}  // namespace dsi::hilbert
