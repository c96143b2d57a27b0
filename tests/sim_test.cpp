#include "sim/runner.hpp"
#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include "air/family.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "test_families.hpp"

namespace dsi::sim {
namespace {

/// DSI (m = 1) at 64-byte packets over \p n uniform objects.
air::FamilyBroadcast Dsi(size_t n, const hilbert::SpaceMapper& mapper) {
  return air::FamilyBroadcast(
      air::Family::kDsi,
      {{datasets::MakeUniform(n, datasets::UnitUniverse(), 5)}, {}}, mapper,
      64);
}

TEST(WorkloadTest, WindowWorkloadShapeAndClipping) {
  const auto windows =
      MakeWindowWorkload(50, 0.1, datasets::UnitUniverse(), 3);
  EXPECT_EQ(windows.size(), 50u);
  for (const auto& w : windows) {
    EXPECT_FALSE(w.IsEmpty());
    EXPECT_LE(w.Width(), 0.1 + 1e-12);
    EXPECT_LE(w.Height(), 0.1 + 1e-12);
    EXPECT_TRUE(datasets::UnitUniverse().Contains(w));
  }
}

TEST(WorkloadTest, DeterministicPerSeed) {
  const auto a = MakeWindowWorkload(10, 0.1, datasets::UnitUniverse(), 7);
  const auto b = MakeWindowWorkload(10, 0.1, datasets::UnitUniverse(), 7);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  const auto p = MakeKnnWorkload(10, datasets::UnitUniverse(), 7);
  const auto q = MakeKnnWorkload(10, datasets::UnitUniverse(), 7);
  for (size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], q[i]);
}

TEST(WorkloadTest, DescriptorSizeTracksKind) {
  const auto windows = MakeWindowWorkload(5, 0.1, datasets::UnitUniverse(), 1);
  const auto points = MakeKnnWorkload(7, datasets::UnitUniverse(), 2);
  EXPECT_EQ(Workload::Window(windows).size(), 5u);
  EXPECT_EQ(Workload::Knn(points, 3).size(), 7u);
}

TEST(RunnerTest, DsiWindowAveragesAreSane) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const air::FamilyBroadcast dsi = Dsi(500, mapper);
  const auto windows =
      MakeWindowWorkload(20, 0.1, datasets::UnitUniverse(), 9);
  const AvgMetrics m = RunWorkload(dsi.handle(0), Workload::Window(windows),
                                   RunOptions{11});
  EXPECT_EQ(m.queries, 20u);
  EXPECT_EQ(m.incomplete, 0u);
  EXPECT_GT(m.latency_bytes, 0.0);
  EXPECT_GT(m.tuning_bytes, 0.0);
  EXPECT_LE(m.tuning_bytes, m.latency_bytes);
  EXPECT_LE(m.latency_bytes, 2.0 * dsi.handle(0).program().cycle_bytes());
}

TEST(RunnerTest, DeterministicForSeed) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const air::FamilyBroadcast dsi = Dsi(300, mapper);
  const auto points = MakeKnnWorkload(10, datasets::UnitUniverse(), 13);
  const auto workload = Workload::Knn(points, 5);
  const AvgMetrics a = RunWorkload(dsi.handle(0), workload, RunOptions{17});
  const AvgMetrics b = RunWorkload(dsi.handle(0), workload, RunOptions{17});
  EXPECT_DOUBLE_EQ(a.latency_bytes, b.latency_bytes);
  EXPECT_DOUBLE_EQ(a.tuning_bytes, b.tuning_bytes);
}

TEST(RunnerTest, EmptyWorkloadIsZeroed) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const AvgMetrics m = RunWorkload(Dsi(100, mapper).handle(0),
                                   Workload::Window({}), RunOptions{1});
  EXPECT_EQ(m.queries, 0u);
  EXPECT_EQ(m.incomplete, 0u);
  EXPECT_DOUBLE_EQ(m.latency_bytes, 0.0);
  EXPECT_DOUBLE_EQ(m.tuning_bytes, 0.0);
}

TEST(RunnerTest, DeteriorationPct) {
  EXPECT_DOUBLE_EQ(AvgMetrics::DeteriorationPct(120.0, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(AvgMetrics::DeteriorationPct(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(AvgMetrics::DeteriorationPct(5.0, 0.0), 0.0);
}

TEST(RunnerTest, AllFamiliesRunBothQueryKinds) {
  const test::Families fam(
      datasets::MakeUniform(200, datasets::UnitUniverse(), 5), /*m=*/1,
      /*capacity=*/64, /*order=*/8);
  const auto windows = MakeWindowWorkload(5, 0.1, datasets::UnitUniverse(), 1);
  const auto points = MakeKnnWorkload(5, datasets::UnitUniverse(), 2);
  const Workload workloads[] = {
      Workload::Window(windows),
      Workload::Knn(points, 3, air::KnnStrategy::kAggressive)};
  for (const air::Family family :
       {air::Family::kDsi, air::Family::kRtree, air::Family::kHci}) {
    const air::AirIndexHandle* handle = &fam.handle(family);
    for (const Workload& w : workloads) {
      const AvgMetrics m = RunWorkload(*handle, w, RunOptions{3});
      EXPECT_EQ(m.queries, 5u) << handle->family();
      EXPECT_EQ(m.incomplete, 0u) << handle->family();
      EXPECT_GT(m.latency_bytes, 0.0) << handle->family();
    }
  }
}

}  // namespace
}  // namespace dsi::sim
