/// Cross-family metamorphic battery: properties that must relate the
/// results of DIFFERENT queries to each other, with no oracle in sight —
/// they hold for any correct spatial query engine, so a violation
/// implicates the engine even where a brute-force comparison would agree
/// by accident.
///
///  * Monotonicity: shrinking a window can only shrink its result set
///    (subset, never new members).
///  * kNN prefix: the k nearest are a prefix-by-distance of the k+1
///    nearest. Compared on sorted distance multisets, so ties may swap ids
///    without violating the property.
///  * Totality: a window covering the whole universe returns every object.
///  * Periodicity: a static broadcast repeats its cycle forever, so tuning
///    in k cycles later is the same query on the same channel — identical
///    answer, latency and tuning bytes.
///
/// All four families, real engine execution (mid-cycle tune-ins via
/// sim::RunWorkload); the periodicity relation drives sessions directly so
/// it can place tune-ins far past the first cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "broadcast/client.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "test_families.hpp"

namespace dsi {
namespace {

using test::Families;

constexpr size_t kQueries = 10;

std::vector<datasets::SpatialObject> TestObjects() {
  return datasets::MakeClustered(200, 5, 0.03, 0.25,
                                 datasets::UnitUniverse(), 83);
}

/// Scales \p r by \p f around its center.
common::Rect ShrinkAroundCenter(const common::Rect& r, double f) {
  const double cx = (r.min_x + r.max_x) / 2.0;
  const double cy = (r.min_y + r.max_y) / 2.0;
  const double hw = r.Width() / 2.0 * f;
  const double hh = r.Height() / 2.0 * f;
  return common::Rect{cx - hw, cy - hh, cx + hw, cy + hh};
}

std::vector<sim::QueryResult> RunQueries(const air::AirIndexHandle& h,
                                  const sim::Workload& wl, uint64_t seed) {
  std::vector<sim::QueryResult> results;
  sim::RunOptions opt;
  opt.seed = seed;
  opt.results = &results;
  sim::RunWorkload(h, wl, opt);
  for (const sim::QueryResult& r : results) {
    EXPECT_TRUE(r.completed);  // clean channel: every query must finish
  }
  return results;
}

TEST(MetamorphicTest, ShrunkWindowResultIsSubsetOfOriginal) {
  const auto objects = TestObjects();
  for (const uint32_t m : {1u, 2u}) {
    const Families fams(objects, m);
    const auto windows = sim::MakeWindowWorkload(
        kQueries, 0.3, datasets::UnitUniverse(), 17);
    std::vector<common::Rect> shrunk;
    common::Rng rng(29);
    for (const common::Rect& w : windows) {
      shrunk.push_back(ShrinkAroundCenter(w, rng.Uniform(0.2, 0.9)));
    }
    for (const air::AirIndexHandle* h : fams.handles()) {
      const auto big = RunQueries(*h, sim::Workload::Window(windows), 5);
      const auto small = RunQueries(*h, sim::Workload::Window(shrunk), 5);
      for (size_t i = 0; i < kQueries; ++i) {
        EXPECT_TRUE(std::includes(big[i].ids.begin(), big[i].ids.end(),
                                  small[i].ids.begin(), small[i].ids.end()))
            << h->family() << " m=" << m << " window " << i
            << ": shrunk result not a subset (" << small[i].ids.size()
            << " vs " << big[i].ids.size() << " ids)";
      }
    }
  }
}

TEST(MetamorphicTest, KnnIsDistancePrefixOfKnnPlusOne) {
  const auto objects = TestObjects();
  const Families fams(objects, 2);
  const auto points =
      sim::MakeKnnWorkload(kQueries, datasets::UnitUniverse(), 37);
  for (const air::AirIndexHandle* h : fams.handles()) {
    for (const size_t k : {1u, 4u, 9u}) {
      const auto smaller = RunQueries(*h, sim::Workload::Knn(points, k), 7);
      const auto larger = RunQueries(*h, sim::Workload::Knn(points, k + 1), 7);
      for (size_t i = 0; i < kQueries; ++i) {
        ASSERT_EQ(smaller[i].knn_distances.size(), k) << h->family();
        ASSERT_EQ(larger[i].knn_distances.size(), k + 1) << h->family();
        // Tie-aware prefix: the sorted distance multiset of kNN(k) must be
        // exactly the first k entries of kNN(k+1)'s.
        for (size_t j = 0; j < k; ++j) {
          EXPECT_EQ(smaller[i].knn_distances[j], larger[i].knn_distances[j])
              << h->family() << " point " << i << " k=" << k
              << " position " << j;
        }
      }
    }
  }
}

TEST(MetamorphicTest, UniverseWindowReturnsEveryObject) {
  const auto objects = TestObjects();
  const Families fams(objects, 1);
  std::vector<uint32_t> all_ids;
  all_ids.reserve(objects.size());
  for (const auto& o : objects) all_ids.push_back(o.id);
  std::sort(all_ids.begin(), all_ids.end());
  const common::Rect u = datasets::UnitUniverse();
  // The universe itself and a window strictly containing it.
  const std::vector<common::Rect> windows{
      u, common::Rect{u.min_x - 0.5, u.min_y - 0.5, u.max_x + 0.5,
                      u.max_y + 0.5}};
  for (const air::AirIndexHandle* h : fams.handles()) {
    const auto results = RunQueries(*h, sim::Workload::Window(windows), 3);
    for (size_t i = 0; i < windows.size(); ++i) {
      EXPECT_EQ(results[i].ids, all_ids)
          << h->family() << " window " << i << " returned "
          << results[i].ids.size() << " of " << all_ids.size() << " objects";
    }
  }
}

TEST(MetamorphicTest, TuneInIsPeriodicInTheCycle) {
  // The late tune-in lands near 2^26 packets, far past the first cycle.
  // Loss drawn from the session rng (kPerReadLoss) is part of the relation:
  // the same rng must flip the same coins at either instant. kPerBucketLoss
  // is left out on purpose — its coins are keyed by cycle index, so the
  // late client rightly hears a different channel.
  const auto objects = TestObjects();
  const Families fams(objects, 2);
  const auto windows =
      sim::MakeWindowWorkload(kQueries, 0.2, datasets::UnitUniverse(), 41);
  const auto points =
      sim::MakeKnnWorkload(kQueries, datasets::UnitUniverse(), 43);
  struct Outcome {
    std::vector<uint32_t> ids;
    broadcast::Metrics metrics;
    bool completed = false;
  };
  for (const air::AirIndexHandle* h : fams.handles()) {
    const uint64_t cycle = h->program().cycle_packets();
    const uint64_t late_shift = ((uint64_t{1} << 26) / cycle) * cycle;
    common::Rng draw(47);
    for (const double theta : {0.0, 0.3}) {
      const broadcast::ErrorModel errors{theta,
                                         broadcast::ErrorMode::kPerReadLoss};
      for (size_t i = 0; i < kQueries; ++i) {
        const auto t = static_cast<uint64_t>(
            draw.UniformInt(0, static_cast<int64_t>(cycle) - 1));
        for (const bool knn : {false, true}) {
          auto run = [&](uint64_t tune_in) {
            broadcast::ClientSession session(h->program(), tune_in, errors,
                                             common::Rng(1000 + i));
            const auto client = h->MakeClient(&session);
            const auto answer = knn ? client->KnnQuery(points[i], 5)
                                    : client->WindowQuery(windows[i]);
            Outcome out;
            for (const auto& o : answer) out.ids.push_back(o.id);
            std::sort(out.ids.begin(), out.ids.end());
            out.metrics = session.metrics();
            out.completed = client->stats().completed;
            return out;
          };
          const Outcome early = run(t);
          const Outcome late = run(t + late_shift);
          const std::string at = std::string(h->family()) +
                                 (knn ? " knn" : " window") + " query " +
                                 std::to_string(i) + " theta " +
                                 std::to_string(theta);
          EXPECT_EQ(early.ids, late.ids) << at;
          EXPECT_EQ(early.completed, late.completed) << at;
          EXPECT_EQ(early.metrics.access_latency_bytes,
                    late.metrics.access_latency_bytes)
              << at;
          EXPECT_EQ(early.metrics.tuning_bytes, late.metrics.tuning_bytes)
              << at;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dsi
