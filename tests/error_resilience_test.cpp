/// Section 5 qualitative checks: all indexes deteriorate as theta grows,
/// queries stay exact, and DSI recovers more cheaply than the tree indexes.

#include <gtest/gtest.h>

#include "datasets/datasets.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "test_families.hpp"

namespace dsi {
namespace {

class ResilienceFixture : public ::testing::Test {
 protected:
  ResilienceFixture()
      : fam_(datasets::MakeUniform(1000, datasets::UnitUniverse(), 77),
             /*m=*/2, /*capacity=*/64, /*order=*/9),
        windows_(sim::MakeWindowWorkload(12, 0.1, datasets::UnitUniverse(),
                                         21)) {}

  sim::AvgMetrics RunWindow(const air::AirIndexHandle& index, double theta,
                            uint64_t seed,
                            broadcast::ErrorMode mode =
                                broadcast::ErrorMode::kPerReadLoss) const {
    return sim::RunWorkload(index, sim::Workload::Window(windows_, theta, mode),
                            sim::RunOptions{seed});
  }

  sim::AvgMetrics RunWideWindow(const air::AirIndexHandle& index, double theta,
                                broadcast::ErrorMode mode) const {
    // A larger sample than the fixture workload: with a dozen queries the
    // single-event deterioration of an index can sit at exactly 0%.
    const auto windows =
        sim::MakeWindowWorkload(32, 0.1, datasets::UnitUniverse(), 21);
    return sim::RunWorkload(index, sim::Workload::Window(windows, theta, mode),
                            sim::RunOptions{37});
  }

  test::Families fam_;
  const air::AirIndexHandle& dsi_air_ = fam_.handle(air::Family::kDsi);
  const air::AirIndexHandle& rtree_air_ = fam_.handle(air::Family::kRtree);
  const air::AirIndexHandle& hci_air_ = fam_.handle(air::Family::kHci);
  std::vector<common::Rect> windows_;
};

TEST_F(ResilienceFixture, LatencyDeterioratesMonotonicallyInTheta) {
  double prev_dsi = 0.0, prev_rtree = 0.0, prev_hci = 0.0;
  for (const double theta : {0.0, 0.2, 0.5}) {
    const auto d = RunWindow(dsi_air_, theta, 31);
    const auto r = RunWindow(rtree_air_, theta, 31);
    const auto h = RunWindow(hci_air_, theta, 31);
    EXPECT_EQ(d.incomplete, 0u);
    EXPECT_EQ(r.incomplete, 0u);
    EXPECT_EQ(h.incomplete, 0u);
    EXPECT_GE(d.latency_bytes, prev_dsi * 0.95);  // allow sampling noise
    EXPECT_GE(r.latency_bytes, prev_rtree * 0.95);
    EXPECT_GE(h.latency_bytes, prev_hci * 0.95);
    prev_dsi = d.latency_bytes;
    prev_rtree = r.latency_bytes;
    prev_hci = h.latency_bytes;
  }
}

TEST_F(ResilienceFixture, DsiDeterioratesLessThanTreesAtHighTheta) {
  // Table 1's qualitative claim: at theta = 0.5 the tree indexes lose a
  // larger fraction of their lossless performance than DSI does. Uses the
  // paper-calibrated single-event error model (see ErrorMode).
  const double theta = 0.5;
  constexpr auto kMode = broadcast::ErrorMode::kSingleEvent;
  const auto d0 = RunWideWindow(dsi_air_, 0.0, kMode);
  const auto d1 = RunWideWindow(dsi_air_, theta, kMode);
  const auto r0 = RunWideWindow(rtree_air_, 0.0, kMode);
  const auto r1 = RunWideWindow(rtree_air_, theta, kMode);
  const auto h0 = RunWideWindow(hci_air_, 0.0, kMode);
  const auto h1 = RunWideWindow(hci_air_, theta, kMode);
  const double dsi_det =
      sim::AvgMetrics::DeteriorationPct(d1.latency_bytes, d0.latency_bytes);
  const double rtree_det =
      sim::AvgMetrics::DeteriorationPct(r1.latency_bytes, r0.latency_bytes);
  const double hci_det =
      sim::AvgMetrics::DeteriorationPct(h1.latency_bytes, h0.latency_bytes);
  EXPECT_LT(dsi_det, rtree_det);
  EXPECT_LT(dsi_det, hci_det);
}

TEST_F(ResilienceFixture, KnnSurvivesHighLossPerRead) {
  // Even under the harsh per-read loss model DSI kNN completes exactly.
  const auto points = sim::MakeKnnWorkload(8, datasets::UnitUniverse(), 41);
  const auto d = sim::RunWorkload(
      dsi_air_,
      sim::Workload::Knn(points, 10, air::KnnStrategy::kConservative, 0.7),
      sim::RunOptions{43});
  EXPECT_EQ(d.incomplete, 0u);
}

TEST_F(ResilienceFixture, KnnSurvivesHighLossSingleEvent) {
  const auto points = sim::MakeKnnWorkload(8, datasets::UnitUniverse(), 41);
  constexpr auto kMode = broadcast::ErrorMode::kSingleEvent;
  const auto workload = sim::Workload::Knn(
      points, 10, air::KnnStrategy::kConservative, 0.7, kMode);
  const auto d = sim::RunWorkload(dsi_air_, workload, sim::RunOptions{43});
  EXPECT_EQ(d.incomplete, 0u);
  const auto h = sim::RunWorkload(hci_air_, workload, sim::RunOptions{43});
  EXPECT_EQ(h.incomplete, 0u);
  const auto r = sim::RunWorkload(rtree_air_, workload, sim::RunOptions{43});
  EXPECT_EQ(r.incomplete, 0u);
}

}  // namespace
}  // namespace dsi
