/// Degenerate client populations for the trajectory scheduler: zero
/// clients, zero steps, a single client, and churn streams that empty the
/// population mid-run or keep clients from ever joining. Every case
/// demands exact accounting:
/// steps + skipped_steps always equals the workload's num_steps(), departed
/// counts every cut-short tour, and unrun steps carry no cost.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "datasets/datasets.hpp"
#include "sim/trajectory.hpp"
#include "sim/workload.hpp"
#include "test_families.hpp"

namespace dsi {
namespace {

class DegeneratePopulation : public ::testing::Test {
 protected:
  DegeneratePopulation()
      : universe_(datasets::UnitUniverse()),
        fam_(datasets::MakeUniform(150, universe_, 29), /*m=*/1,
             /*capacity=*/64, /*order=*/7) {}

  sim::TrajectoryWorkload MakeWorkload(size_t clients, size_t steps,
                                       uint64_t seed) const {
    datasets::TrajectoryParams params;
    auto wl = sim::MakeTrajectoryWorkload(sim::QueryKind::kWindow, clients,
                                          steps, params, universe_, seed);
    wl.window_side = 0.2;
    return wl;
  }

  common::Rect universe_;
  test::Families fam_;
  const air::AirIndexHandle& dsi_air_ = fam_.handle(air::Family::kDsi);
  const air::AirIndexHandle& rtree_air_ = fam_.handle(air::Family::kRtree);
};

TEST_F(DegeneratePopulation, ZeroClientsIsAZeroedRun) {
  const auto wl = MakeWorkload(0, 5, 41);
  ASSERT_TRUE(wl.clients.empty());
  std::vector<std::vector<sim::TrajectoryStep>> results;
  sim::TrajectoryOptions opt;
  opt.seed = 7;
  opt.results = &results;
  const auto m = sim::RunTrajectories(dsi_air_, wl, opt);
  EXPECT_EQ(m.clients, 0u);
  EXPECT_EQ(m.steps, 0u);
  EXPECT_EQ(m.skipped_steps, 0u);
  EXPECT_EQ(m.departed, 0u);
  EXPECT_DOUBLE_EQ(m.latency_bytes, 0.0);
  EXPECT_DOUBLE_EQ(m.cold_tuning_bytes, 0.0);
  EXPECT_TRUE(results.empty());
}

TEST_F(DegeneratePopulation, EmptyTrajectoriesContributeNothing) {
  // A present client with a zero-step path never touches the channel.
  auto wl = MakeWorkload(3, 4, 43);
  wl.clients[1].clear();
  std::vector<std::vector<sim::TrajectoryStep>> results;
  sim::TrajectoryOptions opt;
  opt.seed = 11;
  opt.results = &results;
  const auto m = sim::RunTrajectories(rtree_air_, wl, opt);
  EXPECT_EQ(m.steps, 8u);  // two live clients x four steps
  EXPECT_EQ(m.steps + m.skipped_steps, wl.num_steps());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[1].empty());
}

TEST_F(DegeneratePopulation, OneClientRunsEveryStep) {
  const auto wl = MakeWorkload(1, 6, 47);
  std::vector<std::vector<sim::TrajectoryStep>> results;
  sim::TrajectoryOptions opt;
  opt.seed = 13;
  opt.results = &results;
  const auto m = sim::RunTrajectories(dsi_air_, wl, opt);
  ASSERT_EQ(results.size(), 1u);
  for (const auto& step : results[0]) {
    EXPECT_TRUE(step.ran);
    EXPECT_LE(step.warm.tuning_bytes, step.warm.latency_bytes);
  }
  EXPECT_EQ(m.steps, 6u);
}

TEST_F(DegeneratePopulation, ChurnCanEmptyThePopulationMidRun) {
  // Every span departs one packet after arrival: each client finishes at
  // most its first step burst, then powers off, and every skipped step is
  // accounted for.
  auto wl = MakeWorkload(5, 4, 53);
  wl.pace_packets = dsi_air_.program().cycle_packets();
  wl.churn.resize(wl.clients.size());
  for (size_t c = 0; c < wl.churn.size(); ++c) {
    wl.churn[c].arrive_packet = 17 * c;
    wl.churn[c].depart_packet = 17 * c + 1;
  }
  std::vector<std::vector<sim::TrajectoryStep>> results;
  sim::TrajectoryOptions opt;
  opt.seed = 17;
  opt.results = &results;
  const auto m = sim::RunTrajectories(dsi_air_, wl, opt);
  EXPECT_EQ(m.departed, wl.clients.size());
  EXPECT_EQ(m.steps + m.skipped_steps, wl.num_steps());
  // The first step starts AT the arrival instant (before the depart
  // packet), so it runs; with a whole-cycle pace every later step wakes
  // past the depart instant.
  EXPECT_EQ(m.steps, wl.clients.size());
  for (size_t c = 0; c < wl.clients.size(); ++c) {
    for (size_t s = 0; s < wl.clients[c].size(); ++s) {
      EXPECT_EQ(results[c][s].ran, s == 0);
      // Unrun steps carry no cost.
      if (!results[c][s].ran) EXPECT_EQ(results[c][s].warm.latency_bytes, 0u);
    }
  }
}

TEST_F(DegeneratePopulation, NeverJoiningClientsSkipTheirWholeTour) {
  // depart <= arrive means the client never joins: zero channel cost, the
  // whole tour skipped.
  auto wl = MakeWorkload(3, 5, 59);
  wl.churn.resize(3);
  wl.churn[0] = {100, 100};  // depart == arrive
  wl.churn[1] = {200, 50};   // depart before arrive
  wl.churn[2] = {0, 0};
  sim::TrajectoryOptions opt;
  opt.seed = 19;
  const auto m = sim::RunTrajectories(dsi_air_, wl, opt);
  EXPECT_EQ(m.steps, 0u);
  EXPECT_EQ(m.departed, 3u);
  EXPECT_EQ(m.skipped_steps, wl.num_steps());
  EXPECT_DOUBLE_EQ(m.latency_bytes, 0.0);
  EXPECT_DOUBLE_EQ(m.tuning_bytes, 0.0);
}

TEST(ChurnStream, DegeneratesAndDeterminism) {
  EXPECT_TRUE(datasets::MakeChurnStream(0, 1000, 0.5, 1).empty());

  // churn_rate 0: everyone stays forever; arrivals inside the horizon.
  const auto stay = datasets::MakeChurnStream(20, 1000, 0.0, 2);
  ASSERT_EQ(stay.size(), 20u);
  for (const auto& span : stay) {
    EXPECT_LT(span.arrive_packet, 1000u);
    EXPECT_EQ(span.depart_packet, UINT64_MAX);
  }

  // churn_rate 1: everyone leaves, after a strictly positive residence.
  const auto leave = datasets::MakeChurnStream(20, 1000, 1.0, 2);
  ASSERT_EQ(leave.size(), 20u);
  for (size_t c = 0; c < 20; ++c) {
    EXPECT_GT(leave[c].depart_packet, leave[c].arrive_packet);
    EXPECT_NE(leave[c].depart_packet, UINT64_MAX);
    // Same seed => same arrival stream regardless of the rate: the rate
    // only flips the keep/leave coin, it never perturbs other draws.
    EXPECT_EQ(leave[c].arrive_packet, stay[c].arrive_packet);
  }

  // Seed-deterministic, seed-sensitive.
  const auto again = datasets::MakeChurnStream(20, 1000, 1.0, 2);
  for (size_t c = 0; c < 20; ++c) {
    EXPECT_EQ(leave[c].arrive_packet, again[c].arrive_packet);
    EXPECT_EQ(leave[c].depart_packet, again[c].depart_packet);
  }
  const auto other = datasets::MakeChurnStream(20, 1000, 1.0, 3);
  bool any_diff = false;
  for (size_t c = 0; c < 20; ++c) {
    any_diff |= other[c].arrive_packet != leave[c].arrive_packet;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace dsi
