#include "hilbert/space_mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "datasets/datasets.hpp"

namespace dsi::hilbert {
namespace {

using common::Point;
using common::Rect;

TEST(SpaceMapperTest, PointToCellCorners) {
  const SpaceMapper m(Rect{0, 0, 1, 1}, 3);  // 8x8 grid
  EXPECT_EQ(m.PointToCell(Point{0.0, 0.0}), (std::pair<uint32_t, uint32_t>{0, 0}));
  // Top corner clamps into the last cell.
  EXPECT_EQ(m.PointToCell(Point{1.0, 1.0}), (std::pair<uint32_t, uint32_t>{7, 7}));
  EXPECT_EQ(m.PointToCell(Point{0.124, 0.99}), (std::pair<uint32_t, uint32_t>{0, 7}));
}

TEST(SpaceMapperTest, OutOfUniverseClamps) {
  const SpaceMapper m(Rect{0, 0, 1, 1}, 3);
  EXPECT_EQ(m.PointToCell(Point{-5.0, 2.0}), (std::pair<uint32_t, uint32_t>{0, 7}));
}

TEST(SpaceMapperTest, CellRectCenterRoundTrips) {
  for (const SpaceMapper& m :
       {SpaceMapper(Rect{0, 0, 1, 1}, 6), SpaceMapper(Rect{-2, -2, 2, 2}, 5)}) {
    for (uint64_t d = 0; d < m.curve().num_cells(); d += 13) {
      EXPECT_EQ(m.PointToIndex(m.IndexToCellRect(d).Center()), d);
    }
  }
}

TEST(SpaceMapperTest, WindowToRangesCoversContainedPoints) {
  const SpaceMapper m(Rect{0, 0, 1, 1}, 7);
  common::Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const Point c{rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
    const Rect w = common::MakeClippedWindow(c, 0.15, Rect{0, 0, 1, 1});
    const auto ranges = m.WindowToRanges(w);
    // Any point inside the window must map into some range.
    for (int i = 0; i < 50; ++i) {
      const Point p{rng.Uniform(w.min_x, w.max_x),
                    rng.Uniform(w.min_y, w.max_y)};
      const uint64_t h = m.PointToIndex(p);
      bool found = false;
      for (const auto& r : ranges) found |= (r.lo <= h && h <= r.hi);
      EXPECT_TRUE(found) << "window " << w << " point " << p;
    }
  }
}

TEST(SpaceMapperTest, WindowToRangesExcludesFarPoints) {
  const SpaceMapper m(Rect{0, 0, 1, 1}, 7);
  const Rect w{0.4, 0.4, 0.5, 0.5};
  const auto ranges = m.WindowToRanges(w);
  // A point far outside the window (more than a cell away) is not covered.
  const uint64_t h = m.PointToIndex(Point{0.9, 0.9});
  for (const auto& r : ranges) {
    EXPECT_FALSE(r.lo <= h && h <= r.hi);
  }
}

TEST(SpaceMapperTest, WindowOutsideUniverseIsEmpty) {
  const SpaceMapper m(Rect{0, 0, 1, 1}, 5);
  EXPECT_TRUE(m.WindowToRanges(Rect{2, 2, 3, 3}).empty());
}

TEST(SpaceMapperTest, CircleToRangesMatchesWindowSemantics) {
  const SpaceMapper m(Rect{0, 0, 1, 1}, 7);
  common::Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const Point q{rng.Uniform(0.2, 0.8), rng.Uniform(0.2, 0.8)};
    const double r = rng.Uniform(0.05, 0.2);
    const auto ranges = m.CircleToRanges(q, r);
    // Points within the circle map into the ranges.
    for (int i = 0; i < 60; ++i) {
      const double ang = rng.Uniform(0, 2 * M_PI);
      const double rad = r * std::sqrt(rng.Uniform(0, 1));
      const Point p{q.x + rad * std::cos(ang), q.y + rad * std::sin(ang)};
      if (p.x < 0 || p.x > 1 || p.y < 0 || p.y > 1) continue;
      const uint64_t h = m.PointToIndex(p);
      bool found = false;
      for (const auto& rr : ranges) found |= (rr.lo <= h && h <= rr.hi);
      EXPECT_TRUE(found);
    }
    // Cells entirely outside the circle are excluded: sample far points.
    for (int i = 0; i < 60; ++i) {
      const Point p{rng.Uniform(0, 1), rng.Uniform(0, 1)};
      if (common::Distance(p, q) < r + 0.05) continue;  // margin: cell size
      const uint64_t h = m.PointToIndex(p);
      for (const auto& rr : ranges) {
        EXPECT_FALSE(rr.lo <= h && h <= rr.hi)
            << "point " << p << " dist " << common::Distance(p, q);
      }
    }
  }
}

TEST(SpaceMapperTest, CircleWithNegativeRadiusIsEmpty) {
  const SpaceMapper m(Rect{0, 0, 1, 1}, 5);
  EXPECT_TRUE(m.CircleToRanges(Point{0.5, 0.5}, -1.0).empty());
}

// DiscHitsCurveRange answers "does some range of CircleToRanges meet
// [a, b]" without decomposing the disc; it must agree with the
// decomposition exactly, including at cell edges and at radii that are
// exact multiples of the cell size, where the float classifier decides.
TEST(SpaceMapperTest, DiscHitsCurveRangeMatchesDecomposition) {
  common::Rng rng(77);
  for (const Rect& universe : {Rect{0, 0, 1, 1}, Rect{-3.5, 2, 4.25, 11}}) {
    for (int order = 1; order <= 9; ++order) {
      const SpaceMapper m(universe, order);
      const uint64_t side = m.curve().side();
      const uint64_t cells = m.curve().num_cells();
      const double cw = universe.Width() / static_cast<double>(side);
      const double ch = universe.Height() / static_cast<double>(side);
      const double diag = std::hypot(universe.Width(), universe.Height());
      const std::vector<Point> centers = {
          {rng.Uniform(universe.min_x, universe.max_x),
           rng.Uniform(universe.min_y, universe.max_y)},
          // Exactly on cell edges: a universe corner, an interior grid
          // corner and the middle of an interior vertical edge.
          {universe.min_x, universe.min_y},
          {universe.min_x + static_cast<double>(side / 2) * cw,
           universe.min_y + static_cast<double>(side / 2) * ch},
          {universe.min_x + cw, universe.min_y + 0.5 * ch},
          // Outside the universe.
          {universe.min_x - 0.3 * universe.Width(), universe.Center().y},
          {universe.max_x + 0.1, universe.max_y + 0.2 * universe.Height()},
      };
      const std::vector<double> radii = {
          0.0,       0.4 * std::min(cw, ch), cw,   ch,
          2.0 * cw,  3.0 * ch,               rng.Uniform(0, diag / 2),
          1.5 * diag};
      // Curve spans: single cells, aligned blocks, unaligned spans and
      // the whole curve.
      std::vector<HcRange> spans = {{0, cells - 1}};
      if (cells <= 256) {
        for (uint64_t c = 0; c < cells; ++c) spans.push_back({c, c});
      } else {
        for (int i = 0; i < 128; ++i) {
          const auto c = static_cast<uint64_t>(
              rng.UniformInt(0, static_cast<int64_t>(cells) - 1));
          spans.push_back({c, c});
        }
      }
      for (uint64_t block = 4; block < cells; block *= 4) {
        for (int i = 0; i < 16; ++i) {
          const auto j = static_cast<uint64_t>(rng.UniformInt(
              0, static_cast<int64_t>(cells / block) - 1));
          spans.push_back({j * block, j * block + block - 1});
        }
      }
      for (int i = 0; i < 64; ++i) {
        auto a = static_cast<uint64_t>(
            rng.UniformInt(0, static_cast<int64_t>(cells) - 1));
        auto b = static_cast<uint64_t>(
            rng.UniformInt(0, static_cast<int64_t>(cells) - 1));
        if (a > b) std::swap(a, b);
        spans.push_back({a, b});
      }
      for (const Point& q : centers) {
        for (const double r : radii) {
          const std::vector<HcRange> disc = m.CircleToRanges(q, r);
          for (const HcRange& span : spans) {
            const auto it = std::lower_bound(
                disc.begin(), disc.end(), span.lo,
                [](const HcRange& d, uint64_t v) { return d.hi < v; });
            const bool want = it != disc.end() && it->lo <= span.hi;
            EXPECT_EQ(m.DiscHitsCurveRange(q, r, span.lo, span.hi), want)
                << "order " << order << " universe " << universe << " q "
                << q << " r " << r << " span [" << span.lo << ", "
                << span.hi << "]";
          }
        }
      }
    }
  }
}

TEST(SpaceMapperTest, DiscHitsCurveRangeNegativeRadiusMissesAll) {
  const SpaceMapper m(Rect{0, 0, 1, 1}, 4);
  EXPECT_FALSE(m.DiscHitsCurveRange(Point{0.5, 0.5}, -1.0, 0,
                                    m.curve().num_cells() - 1));
}

TEST(SpaceMapperTest, MinMaxDistanceToIndexBracketsObjects) {
  const SpaceMapper m(Rect{0, 0, 1, 1}, 8);
  common::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Point q{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const uint64_t h = m.PointToIndex(p);
    const double d = common::Distance(q, p);
    EXPECT_LE(m.MinDistanceToIndex(q, h), d + 1e-12);
    EXPECT_GE(m.MaxDistanceToIndex(q, h), d - 1e-12);
  }
}

TEST(ChooseOrderTest, GrowsWithCardinality) {
  EXPECT_GE(ChooseOrder(10), 3);
  const int o10k = ChooseOrder(10000);
  const int o100 = ChooseOrder(100);
  EXPECT_GT(o10k, o100);
  // 4 cells/object at 10k objects -> >= 40k cells -> order >= 8.
  EXPECT_GE(o10k, 8);
}

TEST(ChooseOrderTest, CellsPerObjectHonored) {
  const int order = ChooseOrder(1000, 16.0);
  const double cells = std::pow(4.0, order);
  EXPECT_GE(cells, 16000.0);
}

}  // namespace
}  // namespace dsi::hilbert
