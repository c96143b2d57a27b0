#include "dsi/client.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::core {
namespace {

using common::Point;
using common::Rect;
using datasets::SpatialObject;

struct Fixture {
  Fixture(size_t n, uint32_t segments, uint64_t seed, int order = 8,
          uint32_t object_factor = 1)
      : mapper(datasets::UnitUniverse(), order),
        index(datasets::MakeUniform(n, datasets::UnitUniverse(), seed), mapper,
              64, MakeConfig(segments, object_factor)) {}

  static DsiConfig MakeConfig(uint32_t segments, uint32_t object_factor) {
    DsiConfig c;
    c.num_segments = segments;
    c.object_factor = object_factor;
    return c;
  }

  broadcast::ClientSession MakeSession(uint64_t tune_in, double theta = 0.0,
                                       uint64_t seed = 1) {
    return broadcast::ClientSession(index.program(), tune_in,
                                    broadcast::ErrorModel{theta},
                                    common::Rng(seed));
  }

  hilbert::SpaceMapper mapper;
  DsiIndex index;
};

std::set<uint32_t> OracleWindow(const DsiIndex& idx, const Rect& w) {
  std::set<uint32_t> ids;
  for (const auto& o : idx.sorted_objects()) {
    if (w.Contains(o.location)) ids.insert(o.id);
  }
  return ids;
}

std::vector<uint32_t> OracleKnn(const DsiIndex& idx, const Point& q,
                                size_t k) {
  std::vector<SpatialObject> objs = idx.sorted_objects();
  std::sort(objs.begin(), objs.end(),
            [&](const SpatialObject& a, const SpatialObject& b) {
              const double da = common::SquaredDistance(q, a.location);
              const double db = common::SquaredDistance(q, b.location);
              return da != db ? da < db : a.id < b.id;
            });
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < std::min(k, objs.size()); ++i) {
    ids.push_back(objs[i].id);
  }
  return ids;
}

std::set<uint32_t> Ids(const std::vector<SpatialObject>& objs) {
  std::set<uint32_t> ids;
  for (const auto& o : objs) ids.insert(o.id);
  return ids;
}

// ---------------------------------------------------------------------------
// Point queries (EEF)
// ---------------------------------------------------------------------------

TEST(DsiPointQueryTest, FindsObjectAtItsOwnLocation) {
  Fixture f(300, 1, 21);
  for (size_t i = 0; i < f.index.sorted_objects().size(); i += 37) {
    const SpatialObject& target = f.index.sorted_objects()[i];
    auto session = f.MakeSession(/*tune_in=*/i * 100);
    DsiClient client(f.index, &session);
    const auto result = client.PointQuery(target.location);
    EXPECT_TRUE(Ids(result).count(target.id))
        << "object " << target.id << " not found";
    EXPECT_TRUE(client.stats().completed);
  }
}

TEST(DsiPointQueryTest, EmptyCellReturnsNothing) {
  Fixture f(50, 1, 22);  // sparse: most cells empty
  auto session = f.MakeSession(17);
  DsiClient client(f.index, &session);
  // Find an empty cell.
  std::set<uint64_t> used;
  for (size_t i = 0; i < f.index.sorted_objects().size(); ++i) {
    used.insert(f.index.object_hc(i));
  }
  uint64_t empty_hc = 0;
  while (used.count(empty_hc)) ++empty_hc;
  const Point p = f.mapper.IndexToCellRect(empty_hc).Center();
  EXPECT_TRUE(client.PointQuery(p).empty());
  EXPECT_TRUE(client.stats().completed);
}

TEST(DsiPointQueryTest, EefHopCountIsLogarithmic) {
  Fixture f(1000, 1, 23);
  uint64_t max_hops = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const SpatialObject& target =
        f.index.sorted_objects()[trial * 47 % 1000];
    auto session = f.MakeSession(trial * 997);
    DsiClient client(f.index, &session);
    (void)client.PointQuery(target.location);
    max_hops = std::max(max_hops, client.hops());
  }
  // ~log2(1000) = 10 table hops plus slack for landing offsets.
  EXPECT_LE(max_hops, 24u);
}

// ---------------------------------------------------------------------------
// Window queries
// ---------------------------------------------------------------------------

class DsiWindowQueryTest
    : public ::testing::TestWithParam<uint32_t> {};  // num_segments

TEST_P(DsiWindowQueryTest, MatchesOracleAcrossWindowsAndTuneIns) {
  Fixture f(500, GetParam(), 31);
  common::Rng rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    const Point c{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Rect w = common::MakeClippedWindow(c, rng.Uniform(0.05, 0.3),
                                             datasets::UnitUniverse());
    const auto tune_in =
        static_cast<uint64_t>(rng.UniformInt(0, 1'000'000));
    auto session = f.MakeSession(tune_in);
    DsiClient client(f.index, &session);
    const auto result = client.WindowQuery(w);
    EXPECT_TRUE(client.stats().completed);
    EXPECT_EQ(Ids(result), OracleWindow(f.index, w)) << "window " << w;
  }
}

TEST_P(DsiWindowQueryTest, EmptyWindowCompletesWithNoResults) {
  Fixture f(100, GetParam(), 32);  // sparse
  // A tiny window in a gap: search the dataset for an empty spot.
  common::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const Point c{rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
    const Rect w = common::MakeClippedWindow(c, 0.01,
                                             datasets::UnitUniverse());
    if (!OracleWindow(Fixture(100, 1, 32).index, w).empty()) continue;
    auto session = f.MakeSession(trial * 31);
    DsiClient client(f.index, &session);
    EXPECT_TRUE(client.WindowQuery(w).empty());
    EXPECT_TRUE(client.stats().completed);
    return;
  }
}

TEST_P(DsiWindowQueryTest, WholeUniverseRetrievesEverything) {
  Fixture f(150, GetParam(), 33);
  auto session = f.MakeSession(1234);
  DsiClient client(f.index, &session);
  const auto result = client.WindowQuery(datasets::UnitUniverse());
  EXPECT_EQ(result.size(), 150u);
  EXPECT_TRUE(client.stats().completed);
}

INSTANTIATE_TEST_SUITE_P(Segments, DsiWindowQueryTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(DsiWindowQueryTest, LatencyBoundedByTwoCycles) {
  Fixture f(500, 2, 34);
  common::Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const Point c{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Rect w = common::MakeClippedWindow(c, 0.1,
                                             datasets::UnitUniverse());
    auto session = f.MakeSession(trial * 1000003);
    DsiClient client(f.index, &session);
    (void)client.WindowQuery(w);
    EXPECT_LE(session.metrics().access_latency_bytes,
              2 * f.index.program().cycle_bytes());
  }
}

TEST(DsiWindowQueryTest, TuningFarBelowFullScan) {
  Fixture f(1000, 1, 35);
  auto session = f.MakeSession(77);
  DsiClient client(f.index, &session);
  const Rect w = common::MakeClippedWindow(Point{0.5, 0.5}, 0.1,
                                           datasets::UnitUniverse());
  const auto result = client.WindowQuery(w);
  // Tuning must be near the result payload, far below the whole cycle.
  const uint64_t payload =
      result.size() * common::kDataObjectBytes;
  EXPECT_LT(session.metrics().tuning_bytes,
            payload + f.index.program().cycle_bytes() / 5);
}

TEST(DsiWindowQueryTest, ObjectFactorGreaterThanOne) {
  for (uint32_t no : {2u, 5u, 16u}) {
    Fixture f(300, 1, 36, 8, no);
    common::Rng rng(9);
    for (int trial = 0; trial < 5; ++trial) {
      const Point c{rng.Uniform(0, 1), rng.Uniform(0, 1)};
      const Rect w = common::MakeClippedWindow(c, 0.2,
                                               datasets::UnitUniverse());
      auto session = f.MakeSession(trial * 7919);
      DsiClient client(f.index, &session);
      EXPECT_EQ(Ids(client.WindowQuery(w)), OracleWindow(f.index, w))
          << "no=" << no;
    }
  }
}

// ---------------------------------------------------------------------------
// kNN queries
// ---------------------------------------------------------------------------

struct KnnCase {
  uint32_t segments;
  air::KnnStrategy strategy;
};

class DsiKnnQueryTest : public ::testing::TestWithParam<KnnCase> {};

TEST_P(DsiKnnQueryTest, MatchesOracle) {
  const auto [segments, strategy] = GetParam();
  Fixture f(400, segments, 41);
  common::Rng rng(13);
  for (size_t k : {1u, 3u, 10u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const Point q{rng.Uniform(0, 1), rng.Uniform(0, 1)};
      const auto tune_in =
          static_cast<uint64_t>(rng.UniformInt(0, 1'000'000));
      auto session = f.MakeSession(tune_in);
      DsiClient client(f.index, &session);
      const auto result = client.KnnQuery(q, k, strategy);
      EXPECT_TRUE(client.stats().completed);
      ASSERT_EQ(result.size(), k);
      const auto oracle = OracleKnn(f.index, q, k);
      // Compare by distance multiset (ties may swap ids).
      std::vector<double> got, want;
      for (const auto& o : result) {
        got.push_back(common::Distance(q, o.location));
      }
      for (uint32_t id : oracle) {
        for (const auto& o : f.index.sorted_objects()) {
          if (o.id == id) want.push_back(common::Distance(q, o.location));
        }
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      for (size_t i = 0; i < k; ++i) {
        EXPECT_DOUBLE_EQ(got[i], want[i]) << "k=" << k << " trial=" << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, DsiKnnQueryTest,
    ::testing::Values(KnnCase{1, air::KnnStrategy::kConservative},
                      KnnCase{1, air::KnnStrategy::kAggressive},
                      KnnCase{2, air::KnnStrategy::kConservative},
                      KnnCase{2, air::KnnStrategy::kAggressive}));

TEST(DsiKnnQueryTest, KLargerThanDatasetReturnsAll) {
  Fixture f(20, 1, 42);
  auto session = f.MakeSession(3);
  DsiClient client(f.index, &session);
  const auto result = client.KnnQuery(Point{0.5, 0.5}, 50);
  EXPECT_EQ(result.size(), 20u);
  EXPECT_TRUE(client.stats().completed);
}

TEST(DsiKnnQueryTest, AggressiveUsesLessTuningThanConservative) {
  // Aggregate over queries: the aggressive strategy's purpose is energy
  // saving (Section 3.4).
  Fixture f(2000, 1, 43, 9);
  common::Rng rng(15);
  uint64_t cons_tuning = 0;
  uint64_t aggr_tuning = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const Point q{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const auto tune_in = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
    {
      auto session = f.MakeSession(tune_in);
      DsiClient client(f.index, &session);
      (void)client.KnnQuery(q, 10, air::KnnStrategy::kConservative);
      cons_tuning += session.metrics().tuning_bytes;
    }
    {
      auto session = f.MakeSession(tune_in);
      DsiClient client(f.index, &session);
      (void)client.KnnQuery(q, 10, air::KnnStrategy::kAggressive);
      aggr_tuning += session.metrics().tuning_bytes;
    }
  }
  EXPECT_LT(aggr_tuning, cons_tuning);
}

// ---------------------------------------------------------------------------
// Link errors
// ---------------------------------------------------------------------------

class DsiLossyQueryTest : public ::testing::TestWithParam<double> {};

TEST_P(DsiLossyQueryTest, WindowQueryStillExactUnderLoss) {
  const double theta = GetParam();
  Fixture f(300, 2, 51);
  common::Rng rng(19);
  for (int trial = 0; trial < 8; ++trial) {
    const Point c{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Rect w = common::MakeClippedWindow(c, 0.15,
                                             datasets::UnitUniverse());
    auto session = f.MakeSession(trial * 37, theta, /*seed=*/trial + 1);
    DsiClient client(f.index, &session);
    const auto result = client.WindowQuery(w);
    EXPECT_TRUE(client.stats().completed);
    EXPECT_EQ(Ids(result), OracleWindow(f.index, w));
    if (theta > 0) {
      EXPECT_GT(client.stats().buckets_lost + 1, 1u);  // stats plumbed
    }
  }
}

TEST_P(DsiLossyQueryTest, KnnStillExactUnderLoss) {
  const double theta = GetParam();
  Fixture f(300, 2, 52);
  common::Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    const Point q{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    auto session = f.MakeSession(trial * 53, theta, /*seed=*/trial + 7);
    DsiClient client(f.index, &session);
    const auto result = client.KnnQuery(q, 5);
    EXPECT_TRUE(client.stats().completed);
    ASSERT_EQ(result.size(), 5u);
    const auto oracle = OracleKnn(f.index, q, 5);
    std::vector<double> got, want;
    for (const auto& o : result) got.push_back(common::Distance(q, o.location));
    for (uint32_t id : oracle) {
      for (const auto& o : f.index.sorted_objects()) {
        if (o.id == id) want.push_back(common::Distance(q, o.location));
      }
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    for (size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(got[i], want[i]);
  }
}

TEST_P(DsiLossyQueryTest, LossIncreasesCost) {
  const double theta = GetParam();
  if (theta == 0.0) GTEST_SKIP();
  Fixture f(300, 1, 53);
  uint64_t clean = 0;
  uint64_t lossy = 0;
  common::Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    const Point c{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Rect w = common::MakeClippedWindow(c, 0.15,
                                             datasets::UnitUniverse());
    const auto tune_in = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
    {
      auto session = f.MakeSession(tune_in, 0.0, trial + 1);
      DsiClient client(f.index, &session);
      (void)client.WindowQuery(w);
      clean += session.metrics().access_latency_bytes;
    }
    {
      auto session = f.MakeSession(tune_in, theta, trial + 1);
      DsiClient client(f.index, &session);
      (void)client.WindowQuery(w);
      lossy += session.metrics().access_latency_bytes;
    }
  }
  EXPECT_GE(lossy, clean);
}

INSTANTIATE_TEST_SUITE_P(Thetas, DsiLossyQueryTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.7));

}  // namespace
}  // namespace dsi::core
