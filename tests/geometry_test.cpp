#include "common/geometry.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace dsi::common {
namespace {

TEST(PointTest, DistanceBasics) {
  const Point a{0.0, 0.0};
  const Point b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(Distance(a, a), 0.0);
}

TEST(RectTest, EmptyRect) {
  const Rect e = Rect::Empty();
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_DOUBLE_EQ(e.Width(), 0.0);
  EXPECT_DOUBLE_EQ(e.Area(), 0.0);
  EXPECT_FALSE(e.Intersects(Rect{0, 0, 1, 1}));
}

TEST(RectTest, ContainsPointClosedBoundaries) {
  const Rect r{0.0, 0.0, 1.0, 2.0};
  EXPECT_TRUE(r.Contains(Point{0.0, 0.0}));
  EXPECT_TRUE(r.Contains(Point{1.0, 2.0}));
  EXPECT_TRUE(r.Contains(Point{0.5, 1.0}));
  EXPECT_FALSE(r.Contains(Point{1.0001, 1.0}));
  EXPECT_FALSE(r.Contains(Point{0.5, -0.0001}));
}

TEST(RectTest, ContainsRect) {
  const Rect outer{0, 0, 10, 10};
  EXPECT_TRUE(outer.Contains(Rect{1, 1, 9, 9}));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(Rect{-1, 1, 9, 9}));
  EXPECT_FALSE(outer.Contains(Rect{1, 1, 9, 11}));
}

TEST(RectTest, IntersectsSharedEdgeAndCorner) {
  const Rect a{0, 0, 1, 1};
  EXPECT_TRUE(a.Intersects(Rect{1, 0, 2, 1}));  // shared edge
  EXPECT_TRUE(a.Intersects(Rect{1, 1, 2, 2}));  // shared corner
  EXPECT_FALSE(a.Intersects(Rect{1.01, 0, 2, 1}));
}

TEST(RectTest, ExpandToInclude) {
  Rect r = Rect::Empty();
  r.ExpandToInclude(Point{2, 3});
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_DOUBLE_EQ(r.Area(), 0.0);
  r.ExpandToInclude(Point{-1, 5});
  EXPECT_EQ(r, (Rect{-1, 3, 2, 5}));
  r.ExpandToInclude(Rect{0, 0, 1, 1});
  EXPECT_EQ(r, (Rect{-1, 0, 2, 5}));
  r.ExpandToInclude(Rect::Empty());
  EXPECT_EQ(r, (Rect{-1, 0, 2, 5}));
}

TEST(RectTest, MinSquaredDistanceInsideIsZero) {
  const Rect r{0, 0, 2, 2};
  EXPECT_DOUBLE_EQ(r.MinSquaredDistance(Point{1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(r.MinSquaredDistance(Point{0, 0}), 0.0);
}

TEST(RectTest, MinSquaredDistanceOutside) {
  const Rect r{0, 0, 2, 2};
  EXPECT_DOUBLE_EQ(r.MinSquaredDistance(Point{3, 1}), 1.0);   // right side
  EXPECT_DOUBLE_EQ(r.MinSquaredDistance(Point{3, 3}), 2.0);   // corner
  EXPECT_DOUBLE_EQ(r.MinSquaredDistance(Point{-2, -2}), 8.0); // corner
}

TEST(RectTest, MaxSquaredDistance) {
  const Rect r{0, 0, 2, 2};
  EXPECT_DOUBLE_EQ(r.MaxSquaredDistance(Point{0, 0}), 8.0);
  EXPECT_DOUBLE_EQ(r.MaxSquaredDistance(Point{1, 1}), 2.0);
  EXPECT_DOUBLE_EQ(r.MaxSquaredDistance(Point{3, 1}), 10.0);
}

TEST(RectTest, MinMaxDistanceConsistencyProperty) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    const Rect r{rng.Uniform(0, 1), rng.Uniform(0, 1),
                 rng.Uniform(1, 2), rng.Uniform(1, 2)};
    const Point q{rng.Uniform(-1, 3), rng.Uniform(-1, 3)};
    const double mind = r.MinSquaredDistance(q);
    const double maxd = r.MaxSquaredDistance(q);
    EXPECT_LE(mind, maxd);
    // Distance to the center must be between the two bounds.
    const double dc = SquaredDistance(q, r.Center());
    EXPECT_LE(mind, dc + 1e-12);
    EXPECT_GE(maxd, dc - 1e-12);
  }
}

TEST(MakeClippedWindowTest, ClipsAtUniverseBoundary) {
  const Rect u{0, 0, 1, 1};
  const Rect w = MakeClippedWindow(Point{0.05, 0.5}, 0.2, u);
  EXPECT_DOUBLE_EQ(w.min_x, 0.0);
  EXPECT_DOUBLE_EQ(w.max_x, 0.15);
  EXPECT_DOUBLE_EQ(w.min_y, 0.4);
  EXPECT_DOUBLE_EQ(w.max_y, 0.6);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ForkIndependence) {
  Rng a(5);
  Rng fork = a.Fork();
  // The fork must not replay the parent's stream.
  Rng b(5);
  (void)b.engine()();  // parent consumed one draw for the fork
  EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  (void)fork;
}

}  // namespace
}  // namespace dsi::common
