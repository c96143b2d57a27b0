#include "rtree/rtree_air.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "air/family.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"

namespace dsi::rtree {
namespace {

using common::Point;
using common::Rect;
using datasets::SpatialObject;

std::set<uint32_t> Ids(const std::vector<SpatialObject>& objs) {
  std::set<uint32_t> ids;
  for (const auto& o : objs) ids.insert(o.id);
  return ids;
}

TEST(RtreeTest, FanoutAndSupport) {
  EXPECT_GT(air::MinPacketCapacity(air::Family::kRtree), 32u);
  EXPECT_LE(air::MinPacketCapacity(air::Family::kRtree), 64u);
  EXPECT_EQ(Rtree::FanoutForCapacity(64), 2u);   // clamped: floor(64/34)=1
  EXPECT_EQ(Rtree::FanoutForCapacity(128), 3u);
  EXPECT_EQ(Rtree::FanoutForCapacity(256), 7u);
  EXPECT_EQ(Rtree::FanoutForCapacity(512), 15u);
}

TEST(RtreeTest, StructureInvariants) {
  const auto objs = datasets::MakeUniform(500, datasets::UnitUniverse(), 3);
  const Rtree t(objs, 4);
  // Every object appears exactly once in STR order.
  EXPECT_EQ(t.str_objects().size(), 500u);
  std::set<uint32_t> ids;
  for (const auto& o : t.str_objects()) ids.insert(o.id);
  EXPECT_EQ(ids.size(), 500u);

  for (uint32_t id = 0; id < t.num_nodes(); ++id) {
    const auto& es = t.entries(id);
    ASSERT_GE(es.size(), 1u);
    ASSERT_LE(es.size(), 4u);
    Rect mbr = Rect::Empty();
    for (const auto& e : es) {
      // Parent MBR contains child MBRs; leaf entries match object points.
      EXPECT_TRUE(t.node_mbr(id).Contains(e.mbr));
      mbr.ExpandToInclude(e.mbr);
      if (t.is_leaf(id)) {
        const Point& p = t.str_objects()[e.child].location;
        EXPECT_EQ(e.mbr, (Rect{p.x, p.y, p.x, p.y}));
      } else {
        EXPECT_EQ(e.mbr, t.node_mbr(e.child));
        EXPECT_EQ(t.level(e.child) + 1, t.level(id));
      }
    }
    // Node MBR is tight.
    EXPECT_EQ(mbr, t.node_mbr(id));
  }
  EXPECT_EQ(t.level(t.root()), t.height());
}

TEST(RtreeTest, StrPackingHasSpatialLocality) {
  // STR packing: leaves should have small MBRs compared to random grouping.
  const auto objs = datasets::MakeUniform(1000, datasets::UnitUniverse(), 5);
  const Rtree t(objs, 10);
  double total_area = 0;
  uint32_t leaves = 0;
  for (uint32_t id = 0; id < t.num_nodes(); ++id) {
    if (!t.is_leaf(id)) continue;
    total_area += t.node_mbr(id).Area();
    ++leaves;
  }
  // 100 leaves, ~10 objects each; random grouping would give ~0.8 area per
  // leaf; STR should be ~10/1000 * const. Require far better than random.
  EXPECT_LT(total_area / leaves, 0.1);
}

struct AirFixture {
  explicit AirFixture(size_t n, uint64_t seed = 7,
                      size_t capacity = 64)
      : index(datasets::MakeUniform(n, datasets::UnitUniverse(), seed),
              capacity) {}

  broadcast::ClientSession MakeSession(uint64_t tune_in, double theta = 0.0,
                                       uint64_t seed = 1) {
    return broadcast::ClientSession(index.program(), tune_in,
                                    broadcast::ErrorModel{theta},
                                    common::Rng(seed));
  }

  std::set<uint32_t> OracleWindow(const Rect& w) const {
    std::set<uint32_t> ids;
    for (const auto& o : index.str_objects()) {
      if (w.Contains(o.location)) ids.insert(o.id);
    }
    return ids;
  }

  std::vector<double> OracleKnnDists(const Point& q, size_t k) const {
    std::vector<double> d;
    for (const auto& o : index.str_objects()) {
      d.push_back(common::Distance(q, o.location));
    }
    std::sort(d.begin(), d.end());
    d.resize(std::min(k, d.size()));
    return d;
  }

  RtreeIndex index;
};

TEST(RtreeAirTest, WindowQueryMatchesOracle) {
  AirFixture f(400);
  common::Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const Point c{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Rect w = common::MakeClippedWindow(c, rng.Uniform(0.05, 0.25),
                                             datasets::UnitUniverse());
    auto session = f.MakeSession(
        static_cast<uint64_t>(rng.UniformInt(0, 1 << 28)));
    RtreeClient client(f.index, &session);
    const auto result = client.WindowQuery(w);
    EXPECT_TRUE(client.stats().completed);
    EXPECT_EQ(Ids(result), f.OracleWindow(w));
  }
}

TEST(RtreeAirTest, KnnMatchesOracleDistances) {
  AirFixture f(400);
  common::Rng rng(13);
  for (size_t k : {1u, 5u, 10u}) {
    for (int trial = 0; trial < 5; ++trial) {
      const Point q{rng.Uniform(0, 1), rng.Uniform(0, 1)};
      auto session = f.MakeSession(
          static_cast<uint64_t>(rng.UniformInt(0, 1 << 28)));
      RtreeClient client(f.index, &session);
      const auto result = client.KnnQuery(q, k);
      EXPECT_TRUE(client.stats().completed);
      ASSERT_EQ(result.size(), k);
      std::vector<double> got;
      for (const auto& o : result) {
        got.push_back(common::Distance(q, o.location));
      }
      std::sort(got.begin(), got.end());
      const auto want = f.OracleKnnDists(q, k);
      for (size_t i = 0; i < k; ++i) {
        EXPECT_DOUBLE_EQ(got[i], want[i]);
      }
    }
  }
}

TEST(RtreeAirTest, KnnLargerThanDataset) {
  AirFixture f(20);
  auto session = f.MakeSession(5);
  RtreeClient client(f.index, &session);
  EXPECT_EQ(client.KnnQuery(Point{0.5, 0.5}, 40).size(), 20u);
}

TEST(RtreeAirTest, QueriesExactUnderLinkErrors) {
  AirFixture f(200);
  common::Rng rng(17);
  for (double theta : {0.2, 0.5}) {
    for (int trial = 0; trial < 4; ++trial) {
      const Point c{rng.Uniform(0, 1), rng.Uniform(0, 1)};
      const Rect w = common::MakeClippedWindow(c, 0.2,
                                               datasets::UnitUniverse());
      auto session = f.MakeSession(trial * 999, theta, trial + 3);
      RtreeClient client(f.index, &session);
      const auto result = client.WindowQuery(w);
      EXPECT_TRUE(client.stats().completed);
      EXPECT_EQ(Ids(result), f.OracleWindow(w));
    }
  }
}

TEST(RtreeAirTest, LossIncursHigherLatencyThanClean) {
  AirFixture f(200);
  common::Rng rng(19);
  uint64_t clean = 0, lossy = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Point c{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Rect w = common::MakeClippedWindow(c, 0.15,
                                             datasets::UnitUniverse());
    const auto tune_in = static_cast<uint64_t>(rng.UniformInt(0, 1 << 28));
    {
      auto session = f.MakeSession(tune_in, 0.0, trial + 1);
      RtreeClient client(f.index, &session);
      (void)client.WindowQuery(w);
      clean += session.metrics().access_latency_bytes;
    }
    {
      auto session = f.MakeSession(tune_in, 0.5, trial + 1);
      RtreeClient client(f.index, &session);
      (void)client.WindowQuery(w);
      lossy += session.metrics().access_latency_bytes;
    }
  }
  EXPECT_GT(lossy, clean);
}

TEST(RtreeAirTest, SmallWindowTuningIsSelective) {
  AirFixture f(1000);
  auto session = f.MakeSession(123);
  RtreeClient client(f.index, &session);
  const Rect w = common::MakeClippedWindow(Point{0.5, 0.5}, 0.05,
                                           datasets::UnitUniverse());
  const auto result = client.WindowQuery(w);
  // High spatial locality: tuning stays well under a full-cycle scan.
  EXPECT_LT(session.metrics().tuning_bytes,
            f.index.program().cycle_bytes() / 4);
  EXPECT_EQ(Ids(result), f.OracleWindow(w));
}

}  // namespace
}  // namespace dsi::rtree
