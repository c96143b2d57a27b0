/// Query correctness across the whole DsiConfig space: every configuration
/// (index base, object factor, segment count, table field width, paper
/// derivation) must return oracle-exact answers — configurations change
/// costs, never results.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "dsi/client.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::core {
namespace {

using common::Point;
using common::Rect;
using datasets::SpatialObject;

std::set<uint32_t> Ids(const std::vector<SpatialObject>& objs) {
  std::set<uint32_t> ids;
  for (const auto& o : objs) ids.insert(o.id);
  return ids;
}

struct ConfigCase {
  const char* name;
  DsiConfig config;
};

std::vector<ConfigCase> AllConfigs() {
  std::vector<ConfigCase> cases;
  {
    DsiConfig c;
    cases.push_back({"default", c});
  }
  {
    DsiConfig c;
    c.index_base = 4;
    cases.push_back({"base4", c});
  }
  {
    DsiConfig c;
    c.index_base = 8;
    c.num_segments = 2;
    cases.push_back({"base8_reorg", c});
  }
  {
    DsiConfig c;
    c.object_factor = 7;
    c.num_segments = 3;
    cases.push_back({"no7_m3", c});
  }
  {
    DsiConfig c;
    c.object_factor = 0;  // paper derivation
    cases.push_back({"paper_derived", c});
  }
  {
    DsiConfig c;
    c.object_factor = 0;
    c.table_hc_bytes = 16;  // literal Section 4 fields
    cases.push_back({"paper_literal", c});
  }
  {
    DsiConfig c;
    c.num_segments = 2;
    c.table_hc_bytes = 16;
    cases.push_back({"reorg_literal", c});
  }
  {
    DsiConfig c;
    c.num_segments = 5;
    cases.push_back({"m5", c});
  }
  return cases;
}

class DsiConfigTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DsiConfigTest, WindowQueryExactForEveryConfig) {
  const ConfigCase cc = AllConfigs()[GetParam()];
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const auto objects = datasets::MakeUniform(350, datasets::UnitUniverse(), 61);
  const DsiIndex index(objects, mapper, 64, cc.config);
  common::Rng rng(71);
  for (int trial = 0; trial < 6; ++trial) {
    const Point c{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Rect w = common::MakeClippedWindow(c, rng.Uniform(0.08, 0.25),
                                             datasets::UnitUniverse());
    std::set<uint32_t> oracle;
    for (const auto& o : objects) {
      if (w.Contains(o.location)) oracle.insert(o.id);
    }
    broadcast::ClientSession s(
        index.program(),
        static_cast<uint64_t>(rng.UniformInt(0, 1 << 28)),
        broadcast::ErrorModel{}, common::Rng(trial + 1));
    DsiClient client(index, &s);
    EXPECT_EQ(Ids(client.WindowQuery(w)), oracle) << cc.name;
    EXPECT_TRUE(client.stats().completed) << cc.name;
  }
}

TEST_P(DsiConfigTest, KnnQueryExactForEveryConfig) {
  const ConfigCase cc = AllConfigs()[GetParam()];
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const auto objects = datasets::MakeUniform(350, datasets::UnitUniverse(), 62);
  const DsiIndex index(objects, mapper, 64, cc.config);
  common::Rng rng(73);
  for (const auto strategy :
       {air::KnnStrategy::kConservative, air::KnnStrategy::kAggressive}) {
    for (int trial = 0; trial < 3; ++trial) {
      const Point q{rng.Uniform(0, 1), rng.Uniform(0, 1)};
      std::vector<double> oracle;
      for (const auto& o : objects) {
        oracle.push_back(common::Distance(q, o.location));
      }
      std::sort(oracle.begin(), oracle.end());
      broadcast::ClientSession s(
          index.program(),
          static_cast<uint64_t>(rng.UniformInt(0, 1 << 28)),
          broadcast::ErrorModel{}, common::Rng(trial + 1));
      DsiClient client(index, &s);
      const auto result = client.KnnQuery(q, 7, strategy);
      ASSERT_EQ(result.size(), 7u) << cc.name;
      std::vector<double> got;
      for (const auto& o : result) {
        got.push_back(common::Distance(q, o.location));
      }
      std::sort(got.begin(), got.end());
      for (size_t i = 0; i < 7; ++i) {
        EXPECT_DOUBLE_EQ(got[i], oracle[i]) << cc.name;
      }
    }
  }
}

TEST_P(DsiConfigTest, LossyWindowQueryStillExact) {
  const ConfigCase cc = AllConfigs()[GetParam()];
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const auto objects = datasets::MakeUniform(200, datasets::UnitUniverse(), 63);
  const DsiIndex index(objects, mapper, 64, cc.config);
  const Rect w{0.3, 0.3, 0.5, 0.5};
  std::set<uint32_t> oracle;
  for (const auto& o : objects) {
    if (w.Contains(o.location)) oracle.insert(o.id);
  }
  broadcast::ClientSession s(index.program(), 991,
                             broadcast::ErrorModel{0.4}, common::Rng(5));
  DsiClient client(index, &s);
  EXPECT_EQ(Ids(client.WindowQuery(w)), oracle) << cc.name;
  EXPECT_TRUE(client.stats().completed) << cc.name;
}

INSTANTIATE_TEST_SUITE_P(Configs, DsiConfigTest,
                         ::testing::Range<size_t>(0, 8));

TEST(DsiWatchdogTest, TotalLossAbortsWithoutHanging) {
  // theta = 1 per-read: nothing is ever received; the client must give up
  // (completed == false) instead of looping forever.
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 7);
  const auto objects = datasets::MakeUniform(50, datasets::UnitUniverse(), 64);
  const DsiIndex index(objects, mapper, 64, DsiConfig{});
  broadcast::ClientSession s(index.program(), 0, broadcast::ErrorModel{1.0},
                             common::Rng(1));
  DsiClient client(index, &s);
  const auto result = client.WindowQuery(Rect{0.1, 0.1, 0.9, 0.9});
  EXPECT_FALSE(client.stats().completed);
  EXPECT_TRUE(result.empty());
}

TEST(DsiTieHandlingTest, CoarseCurveWithManyDuplicates) {
  // Order-4 curve over 400 points: every cell holds ~1.5 objects on
  // average, exercising the equal-HC frame merging and tie-safe coverage.
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 4);
  const auto objects = datasets::MakeUniform(400, datasets::UnitUniverse(), 65);
  const DsiIndex index(objects, mapper, 64, DsiConfig{});
  EXPECT_LT(index.num_frames(), 260u);  // ties merged frames
  common::Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    const Point c{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Rect w = common::MakeClippedWindow(c, 0.3,
                                             datasets::UnitUniverse());
    std::set<uint32_t> oracle;
    for (const auto& o : objects) {
      if (w.Contains(o.location)) oracle.insert(o.id);
    }
    broadcast::ClientSession s(index.program(), trial * 501,
                               broadcast::ErrorModel{}, common::Rng(2));
    DsiClient client(index, &s);
    EXPECT_EQ(Ids(client.WindowQuery(w)), oracle);
  }
}

}  // namespace
}  // namespace dsi::core
