/// KnnBounds, the DSI kNN radius, driven directly against brute force:
/// seeded random streams of object bounds, adverts and range retirements,
/// with retirements aimed at live adverts so the radius grows and parked
/// bounds get promoted. After every step the kept radius must equal the
/// k-th smallest bound over the objects and the uncovered adverts. This
/// runs in every build; the client's own full-scan check is Debug-only.

#include "dsi/client.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "hilbert/interval_set.hpp"

namespace dsi::core {
namespace {

constexpr uint64_t kHcCells = uint64_t{1} << 16;

/// The k-th smallest of \p objects and \p adverts (infinity if there are
/// fewer than k).
double BruteRadius(size_t k, const std::vector<double>& objects,
                   const std::map<uint64_t, double>& adverts) {
  std::vector<double> bounds = objects;
  for (const auto& [hc, bound] : adverts) bounds.push_back(bound);
  if (bounds.size() < k) return std::numeric_limits<double>::infinity();
  std::nth_element(bounds.begin(), bounds.begin() + (k - 1), bounds.end());
  return bounds[k - 1];
}

/// A bound in [lo, 1); one in four is rounded down to a multiple of 1/64
/// so that ties occur.
double DrawBound(common::Rng& rng, double lo) {
  const double b = rng.Uniform(lo, 1.0);
  return rng.UniformInt(0, 3) == 0 ? std::floor(b * 64) / 64 : b;
}

struct Counts {
  uint64_t raises = 0;    // retirements that raised the radius
  uint64_t promoted = 0;  // parked bounds promoted
};

/// One stream of \p steps random steps against a KnnBounds(\p k), checked
/// after every step.
void RunStream(size_t k, uint64_t seed, int steps, Counts* counts) {
  common::Rng rng(seed);
  KnnBounds bounds(k);
  hilbert::IntervalSet covered;
  std::vector<double> objects;
  std::map<uint64_t, double> adverts;  // the uncovered ones, by HC
  for (int step = 0; step < steps; ++step) {
    const int64_t kind = rng.UniformInt(0, 9);
    if (kind == 0) {
      // Objects sit mostly above the adverts, as exact distances of far
      // objects do; they never retire, so a low one would pin the radius.
      objects.push_back(DrawBound(rng, 0.25));
      bounds.AddObject(objects.back());
    } else if (kind <= 6) {
      // An advert at an HC neither covered nor advertised before.
      const auto hc = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(kHcCells) - 1));
      if (covered.Intersects(hilbert::HcRange{hc, hc}) ||
          adverts.count(hc) != 0) {
        continue;
      }
      adverts[hc] = DrawBound(rng, 0.0);
      bounds.AddAdvert(hc, adverts[hc]);
    } else {
      // A retirement: two in three start just below the lowest uncovered
      // advert, which holds or undercuts the radius; the rest land
      // anywhere.
      uint64_t lo = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(kHcCells) - 1));
      if (kind <= 8 && !adverts.empty()) {
        const auto lowest = std::min_element(
            adverts.begin(), adverts.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
        lo = lowest->first -
             std::min<uint64_t>(lowest->first,
                                static_cast<uint64_t>(rng.UniformInt(0, 8)));
      }
      const uint64_t hi = std::min(
          kHcCells - 1, lo + static_cast<uint64_t>(rng.UniformInt(8, 32)));
      const hilbert::HcRange r{lo, hi};
      const double before = bounds.radius();
      covered.Add(r);
      adverts.erase(adverts.lower_bound(lo), adverts.upper_bound(hi));
      counts->promoted += bounds.Retire(r, covered);
      if (bounds.radius() > before) ++counts->raises;
    }
    ASSERT_EQ(bounds.radius(), BruteRadius(k, objects, adverts))
        << "k " << k << " seed " << seed << " step " << step;
  }
}

TEST(KnnBoundsTest, RadiusMatchesBruteForceUnderRetirements) {
  for (const size_t k : {size_t{1}, size_t{5}, size_t{10}}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      Counts c;
      RunStream(k, seed, 10000, &c);
      if (HasFatalFailure()) return;
      // The streams must reach the branch they exist for: retirements that
      // raise the radius past parked bounds.
      EXPECT_GT(c.raises, 0u) << "k " << k << " seed " << seed;
      EXPECT_GT(c.promoted, 0u) << "k " << k << " seed " << seed;
    }
  }
}

TEST(KnnBoundsTest, FewerThanKBoundsIsInfinite) {
  KnnBounds bounds(3);
  hilbert::IntervalSet covered;
  EXPECT_EQ(bounds.radius(), std::numeric_limits<double>::infinity());
  bounds.AddObject(0.5);
  bounds.AddAdvert(7, 0.25);
  EXPECT_EQ(bounds.radius(), std::numeric_limits<double>::infinity());
  bounds.AddAdvert(9, 0.75);
  EXPECT_EQ(bounds.radius(), 0.75);
  covered.Add(hilbert::HcRange{7, 7});
  EXPECT_EQ(bounds.Retire(hilbert::HcRange{7, 7}, covered), 0u);
  EXPECT_EQ(bounds.radius(), std::numeric_limits<double>::infinity());
}

TEST(KnnBoundsTest, CoveredParkedBoundIsDroppedNotPromoted) {
  KnnBounds bounds(1);
  hilbert::IntervalSet covered;
  bounds.AddAdvert(10, 0.2);  // live: the radius
  bounds.AddAdvert(20, 0.3);  // parked
  bounds.AddAdvert(30, 0.4);  // parked
  EXPECT_EQ(bounds.radius(), 0.2);
  // Covering a parked advert changes nothing yet.
  covered.Add(hilbert::HcRange{20, 20});
  EXPECT_EQ(bounds.Retire(hilbert::HcRange{20, 20}, covered), 0u);
  EXPECT_EQ(bounds.radius(), 0.2);
  // Retiring the live one raises the radius to infinity; 0.3 is covered
  // and dropped, 0.4 is promoted and becomes the radius.
  covered.Add(hilbert::HcRange{10, 10});
  EXPECT_EQ(bounds.Retire(hilbert::HcRange{10, 10}, covered), 1u);
  EXPECT_EQ(bounds.radius(), 0.4);
}

}  // namespace
}  // namespace dsi::core
