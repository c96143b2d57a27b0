#include "datasets/datasets.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"

namespace dsi::datasets {
namespace {

/// \p n points drawn from \p popularity on one stream seeded by \p seed.
std::vector<common::Point> SamplePoints(size_t n,
                                        const RegionPopularity& popularity,
                                        const common::Rect& universe,
                                        uint64_t seed) {
  common::Rng rng(seed);
  std::vector<common::Point> points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back(popularity.Sample(rng, universe));
  }
  return points;
}

TEST(DatasetsTest, UniformCardinalityAndBounds) {
  const auto objs = MakeUniform(500, UnitUniverse(), 1);
  EXPECT_EQ(objs.size(), 500u);
  for (const auto& o : objs) {
    EXPECT_TRUE(UnitUniverse().Contains(o.location));
  }
}

TEST(DatasetsTest, UniformIdsAreSequential) {
  const auto objs = MakeUniform(100, UnitUniverse(), 1);
  for (size_t i = 0; i < objs.size(); ++i) {
    EXPECT_EQ(objs[i].id, i);
  }
}

TEST(DatasetsTest, UniformDeterministicPerSeed) {
  const auto a = MakeUniform(100, UnitUniverse(), 5);
  const auto b = MakeUniform(100, UnitUniverse(), 5);
  const auto c = MakeUniform(100, UnitUniverse(), 6);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].location, b[i].location);
  }
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_diff |= !(a[i].location == c[i].location);
  }
  EXPECT_TRUE(any_diff);
}

TEST(DatasetsTest, UniformCoversSpace) {
  // Roughly uniform: all four quadrants get a fair share.
  const auto objs = MakeUniform(4000, UnitUniverse(), 2);
  int q[4] = {0, 0, 0, 0};
  for (const auto& o : objs) {
    q[(o.location.x > 0.5 ? 1 : 0) + (o.location.y > 0.5 ? 2 : 0)]++;
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(q[i], 800);
    EXPECT_LT(q[i], 1200);
  }
}

TEST(DatasetsTest, RealLikeCardinalityMatchesGreekDataset) {
  const auto objs = MakeRealLike();
  EXPECT_EQ(objs.size(), 5848u);
  for (const auto& o : objs) {
    EXPECT_TRUE(UnitUniverse().Contains(o.location));
  }
}

TEST(DatasetsTest, RealLikeIsSkewed) {
  // Clustered data: a fine grid must have many empty cells and a heavy
  // maximum, unlike uniform data.
  const auto real = MakeRealLike();
  const auto uni = MakeUniform(real.size(), UnitUniverse(), 3);
  auto occupancy = [](const std::vector<SpatialObject>& objs) {
    constexpr int kGrid = 32;
    std::vector<int> cells(kGrid * kGrid, 0);
    for (const auto& o : objs) {
      const int cx = std::min(kGrid - 1, static_cast<int>(o.location.x * kGrid));
      const int cy = std::min(kGrid - 1, static_cast<int>(o.location.y * kGrid));
      cells[cy * kGrid + cx]++;
    }
    int empty = 0, maxc = 0;
    for (int c : cells) {
      if (c == 0) ++empty;
      maxc = std::max(maxc, c);
    }
    return std::pair<int, int>{empty, maxc};
  };
  const auto [real_empty, real_max] = occupancy(real);
  const auto [uni_empty, uni_max] = occupancy(uni);
  EXPECT_GT(real_empty, uni_empty * 2 + 10);
  EXPECT_GT(real_max, uni_max * 2);
}

TEST(DatasetsTest, ClusteredRespectsClusterCount) {
  const auto objs =
      MakeClustered(1000, 5, 0.01, 0.0, UnitUniverse(), 7);
  EXPECT_EQ(objs.size(), 1000u);
  // With tight spread and no background, points concentrate: the bounding
  // boxes of many points collapse to a few small blobs. Check via a coarse
  // grid: occupied cells should be far fewer than for uniform.
  std::set<int> occupied;
  for (const auto& o : objs) {
    const int cx = std::min(15, static_cast<int>(o.location.x * 16));
    const int cy = std::min(15, static_cast<int>(o.location.y * 16));
    occupied.insert(cy * 16 + cx);
  }
  EXPECT_LT(occupied.size(), 60u);
}

TEST(DatasetsTest, ClusteredBackgroundOnly) {
  const auto objs = MakeClustered(200, 0, 0.01, 1.0, UnitUniverse(), 7);
  EXPECT_EQ(objs.size(), 200u);
}

TEST(RegionPopularityTest, ZipfPointsSeedDeterministic) {
  const RegionPopularity pop(8, 1.2, 5);
  const auto a = SamplePoints(200, pop, UnitUniverse(), 11);
  const auto b = SamplePoints(200, pop, UnitUniverse(), 11);
  const auto c = SamplePoints(200, pop, UnitUniverse(), 12);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
    differs = differs || a[i].x != c[i].x || a[i].y != c[i].y;
  }
  EXPECT_TRUE(differs);  // a different seed draws a different stream
}

TEST(RegionPopularityTest, SkewZeroIsUniformBitIdentical) {
  // The skew = 0 degenerate must reduce to literal uniform draws: the same
  // Rng stream as MakeUniform's per-point coordinates, bit for bit, so a
  // zero-skew workload is THE uniform workload, not a lookalike.
  const RegionPopularity pop(8, 0.0, 5);
  const auto points = SamplePoints(300, pop, UnitUniverse(), 19);
  const auto objs = MakeUniform(300, UnitUniverse(), 19);
  ASSERT_EQ(points.size(), objs.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].x, objs[i].location.x);
    EXPECT_EQ(points[i].y, objs[i].location.y);
  }
}

TEST(RegionPopularityTest, SamplesStayInUniverse) {
  const common::Rect universe{0.25, -1.0, 2.25, 3.0};
  for (const double skew : {0.0, 0.6, 1.8}) {
    const RegionPopularity pop(8, skew, 5);
    const auto points = SamplePoints(500, pop, universe, 3);
    for (const auto& p : points) {
      EXPECT_TRUE(universe.Contains(p)) << "skew=" << skew;
    }
  }
}

TEST(RegionPopularityTest, SkewConcentratesMassNearHotspot) {
  // Spatial coherence: under strong skew, most samples land within a small
  // neighborhood of the hottest region's center; under skew 0 they spread.
  const RegionPopularity pop(8, 1.8, 5);
  const common::Point hot = pop.HottestCenter(UnitUniverse());
  const auto points = SamplePoints(1000, pop, UnitUniverse(), 3);
  size_t near = 0;
  for (const auto& p : points) {
    const double dx = p.x - hot.x, dy = p.y - hot.y;
    if (dx * dx + dy * dy < 0.3 * 0.3) ++near;
  }
  EXPECT_GT(near, 700u);
  EXPECT_GT(pop.Weight(hot, UnitUniverse()), 0.99);
}

}  // namespace
}  // namespace dsi::datasets
