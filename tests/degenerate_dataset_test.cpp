/// Degenerate-cardinality audit: n = 0 and n = 1 datasets through all four
/// AirIndexHandles. Construction must never assert or invoke UB, an empty
/// broadcast is an empty program (RunWorkload returns trivially correct
/// empty answers), and single-object broadcasts answer every query shape —
/// including the single-frame/single-chunk hop paths under loss.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "broadcast/coding.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "test_families.hpp"

namespace dsi {
namespace {

TEST(DegenerateDatasets, EmptyDatasetBuildsEmptyProgramsEverywhere) {
  const auto u = datasets::UnitUniverse();
  const std::vector<datasets::SpatialObject> none;
  const test::Families fam(none, /*m=*/1, /*capacity=*/64, /*order=*/5);

  const auto windows = sim::MakeWindowWorkload(3, 0.4, u, 1);
  const auto points = sim::MakeKnnWorkload(2, u, 2);
  for (const air::AirIndexHandle* handle : fam.handles()) {
    // Nothing on air: the program is empty...
    EXPECT_EQ(handle->program().cycle_packets(), 0u) << handle->family();
    // ...and the engine guards it: zero metrics, and since the dataset is
    // empty, the default-captured empty result set IS the exact answer.
    std::vector<sim::QueryResult> results;
    sim::RunOptions opt;
    opt.seed = 5;
    opt.results = &results;
    const auto mw =
        sim::RunWorkload(*handle, sim::Workload::Window(windows), opt);
    EXPECT_EQ(mw.queries, 0u) << handle->family();
    ASSERT_EQ(results.size(), windows.size());
    for (const auto& r : results) EXPECT_TRUE(r.ids.empty());
    const auto mk =
        sim::RunWorkload(*handle, sim::Workload::Knn(points, 4), opt);
    EXPECT_EQ(mk.queries, 0u) << handle->family();
  }
}

class SingleObject : public ::testing::TestWithParam<double> {};

TEST_P(SingleObject, AllQueriesFindTheLoneObject) {
  const double theta = GetParam();
  const auto u = datasets::UnitUniverse();
  const std::vector<datasets::SpatialObject> one{
      datasets::SpatialObject{42, common::Point{0.31, 0.77}}};
  const test::Families fam(one, /*m=*/1, /*capacity=*/64, /*order=*/5);

  // Window containing the object, window missing it, kNN from inside and
  // far outside with k = 1 and k >> n — across tune-in instants and loss.
  const common::Rect hit{0.2, 0.7, 0.4, 0.9};
  const common::Rect miss{0.6, 0.1, 0.9, 0.3};
  const std::vector<common::Point> points{common::Point{0.3, 0.8},
                                          common::Point{-4.0, 7.0}};
  for (const air::AirIndexHandle* handle : fam.handles()) {
    ASSERT_GT(handle->program().cycle_packets(), 0u) << handle->family();
    std::vector<sim::QueryResult> results;
    sim::RunOptions opt;
    opt.seed = 9;
    opt.results = &results;

    sim::RunWorkload(*handle,
                     sim::Workload::Window({hit, hit, miss, miss}, theta),
                     opt);
    ASSERT_EQ(results.size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(results[i].completed)
          << handle->family() << " theta=" << theta;
      if (i < 2) {
        EXPECT_EQ(results[i].ids, std::vector<uint32_t>{42})
            << handle->family();
      } else {
        EXPECT_TRUE(results[i].ids.empty()) << handle->family();
      }
    }

    for (size_t k : {1u, 7u}) {
      sim::RunWorkload(
          *handle,
          sim::Workload::Knn(points, k, air::KnnStrategy::kConservative,
                             theta),
          opt);
      for (const auto& r : results) {
        ASSERT_TRUE(r.completed) << handle->family();
        EXPECT_EQ(r.ids, std::vector<uint32_t>{42})
            << handle->family() << " k=" << k;
      }
      // The aggressive strategy only differs for DSI; exercise it anyway.
      sim::RunWorkload(
          *handle,
          sim::Workload::Knn(points, k, air::KnnStrategy::kAggressive, theta),
          opt);
      for (const auto& r : results) {
        EXPECT_EQ(r.ids, std::vector<uint32_t>{42}) << handle->family();
      }
    }
  }
}

// theta = 0.5 forces the single-frame/single-chunk recovery hop: the only
// possible retry is the lone frame itself, next cycle.
INSTANTIATE_TEST_SUITE_P(CleanAndLossy, SingleObject,
                         ::testing::Values(0.0, 0.5));

TEST(DegenerateDatasets, CodingOnEmptyAndSingleObjectBroadcasts) {
  // Erasure coding must survive the degenerate ends: an empty program codes
  // to an empty program (RunWorkload still guards it), and a single-object
  // broadcast — one or two buckets, so every parity group is the short
  // wrap-around group — still answers every query under loss, repairing
  // from parity when the lone frame is hit.
  const auto u = datasets::UnitUniverse();

  broadcast::BroadcastProgram empty(64);
  empty.Finalize();
  const auto coded_empty =
      broadcast::MakeCodedProgram(empty, broadcast::CodingConfig{4, 2});
  EXPECT_EQ(coded_empty.cycle_packets(), 0u);
  EXPECT_FALSE(coded_empty.coded());

  const std::vector<datasets::SpatialObject> none;
  const test::Families empties(none, /*m=*/1, /*capacity=*/64, /*order=*/5);
  sim::RunOptions opt;
  opt.seed = 3;
  opt.coding = broadcast::CodingConfig{4, 2};
  const auto windows = sim::MakeWindowWorkload(2, 0.4, u, 1);
  for (const air::AirIndexHandle* handle : empties.handles()) {
    const auto m =
        sim::RunWorkload(*handle, sim::Workload::Window(windows), opt);
    EXPECT_EQ(m.queries, 0u) << handle->family();
    EXPECT_EQ(m.repaired, 0u) << handle->family();
  }

  const std::vector<datasets::SpatialObject> one{
      datasets::SpatialObject{42, common::Point{0.31, 0.77}}};
  const test::Families fam(one, /*m=*/1, /*capacity=*/64, /*order=*/5);
  const common::Rect hit{0.2, 0.7, 0.4, 0.9};
  std::vector<sim::QueryResult> results;
  opt.results = &results;
  for (const air::AirIndexHandle* handle : fam.handles()) {
    // Group larger than the bucket count: the whole cycle is one short
    // wrap-around group.
    ASSERT_LT(handle->program().num_buckets(), 4u) << handle->family();
    sim::RunWorkload(*handle,
                     sim::Workload::Window({hit, hit, hit, hit}, 0.5), opt);
    ASSERT_EQ(results.size(), 4u);
    for (const auto& r : results) {
      ASSERT_TRUE(r.completed) << handle->family();
      EXPECT_EQ(r.ids, std::vector<uint32_t>{42}) << handle->family();
    }
  }
}

TEST(DegenerateDatasets, EmptyToOneObjectRepublication) {
  // A broadcast born empty cannot be tuned into; but a generation that
  // DELETES down to one object and one that re-inserts must both republish
  // cleanly through the DSI incremental path.
  const auto u = datasets::UnitUniverse();
  const hilbert::SpaceMapper mapper(u, 5);
  const std::vector<datasets::SpatialObject> two{
      datasets::SpatialObject{0, common::Point{0.2, 0.2}},
      datasets::SpatialObject{1, common::Point{0.8, 0.8}}};
  const core::DsiIndex base(two, mapper, 64, core::DsiConfig{});

  const std::vector<datasets::UpdateOp> del{
      datasets::UpdateOp{datasets::UpdateKind::kDelete, 1, {}}};
  const core::DsiIndex one = core::DsiIndex::Republish(base, del);
  EXPECT_EQ(one.sorted_objects().size(), 1u);
  EXPECT_EQ(one.num_frames(), 1u);

  const std::vector<datasets::UpdateOp> ins{datasets::UpdateOp{
      datasets::UpdateKind::kInsert, 9, common::Point{0.5, 0.5}}};
  const core::DsiIndex back = core::DsiIndex::Republish(one, ins);
  EXPECT_EQ(back.sorted_objects().size(), 2u);
}

}  // namespace
}  // namespace dsi
