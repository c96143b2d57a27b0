/// Serial/parallel parity of the experiment engine: RunWorkload's workers
/// claim queries one at a time but randomness is forked per query index and
/// exact integer metric sums are merged, so N workers must reproduce 1
/// worker bit-identically — for every index family and both query kinds,
/// lossless and lossy, and for trajectory tours too. Also checks that a
/// worker stuck on a slow unit does not hold back the units after it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string_view>
#include <thread>
#include <vector>

#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "broadcast/client.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/runner.hpp"
#include "sim/seed_mix.hpp"
#include "sim/trajectory.hpp"
#include "sim/workload.hpp"
#include "transport/transport.hpp"

namespace dsi {
namespace {

class ParallelParityFixture : public ::testing::Test {
 protected:
  ParallelParityFixture()
      : mapper_(datasets::UnitUniverse(), 8),
        objects_(datasets::MakeUniform(300, datasets::UnitUniverse(), 19)),
        dsi_(objects_, mapper_, 64, MakeDsiConfig()),
        rtree_(objects_, 64),
        hci_(objects_, mapper_, 64),
        dsi_air_(dsi_),
        rtree_air_(rtree_),
        hci_air_(hci_),
        exp_air_(objects_, mapper_, 64) {}

  static core::DsiConfig MakeDsiConfig() {
    core::DsiConfig c;
    c.num_segments = 2;
    return c;
  }

  std::vector<const air::AirIndexHandle*> Handles() const {
    return {&dsi_air_, &rtree_air_, &hci_air_, &exp_air_};
  }

  static void ExpectIdentical(const sim::AvgMetrics& serial,
                              const sim::AvgMetrics& parallel,
                              std::string_view family, const char* kind) {
    EXPECT_DOUBLE_EQ(serial.latency_bytes, parallel.latency_bytes)
        << family << " " << kind;
    EXPECT_DOUBLE_EQ(serial.tuning_bytes, parallel.tuning_bytes)
        << family << " " << kind;
    EXPECT_EQ(serial.queries, parallel.queries) << family << " " << kind;
    EXPECT_EQ(serial.incomplete, parallel.incomplete)
        << family << " " << kind;
    EXPECT_EQ(serial.restarted, parallel.restarted) << family << " " << kind;
    EXPECT_EQ(serial.repaired, parallel.repaired) << family << " " << kind;
  }

  hilbert::SpaceMapper mapper_;
  std::vector<datasets::SpatialObject> objects_;
  core::DsiIndex dsi_;
  rtree::RtreeIndex rtree_;
  hci::HciIndex hci_;
  air::DsiHandle dsi_air_;
  air::RtreeHandle rtree_air_;
  air::HciHandle hci_air_;
  air::ExpHandle exp_air_;
};

TEST_F(ParallelParityFixture, WindowParityAcrossFamilies) {
  const auto windows =
      sim::MakeWindowWorkload(9, 0.1, datasets::UnitUniverse(), 23);
  const auto workload = sim::Workload::Window(windows);
  for (const air::AirIndexHandle* handle : Handles()) {
    const auto serial =
        sim::RunWorkload(*handle, workload, sim::RunOptions{101, 1});
    const auto parallel =
        sim::RunWorkload(*handle, workload, sim::RunOptions{101, 4});
    EXPECT_EQ(serial.queries, windows.size());
    ExpectIdentical(serial, parallel, handle->family(), "window");
  }
}

TEST_F(ParallelParityFixture, KnnParityAcrossFamilies) {
  const auto points = sim::MakeKnnWorkload(9, datasets::UnitUniverse(), 27);
  const auto workload = sim::Workload::Knn(points, 4);
  for (const air::AirIndexHandle* handle : Handles()) {
    const auto serial =
        sim::RunWorkload(*handle, workload, sim::RunOptions{103, 1});
    const auto parallel =
        sim::RunWorkload(*handle, workload, sim::RunOptions{103, 3});
    EXPECT_EQ(serial.queries, points.size());
    ExpectIdentical(serial, parallel, handle->family(), "knn");
  }
}

TEST_F(ParallelParityFixture, LossyChannelParity) {
  // The per-query error streams must also be independent of sharding.
  const auto windows =
      sim::MakeWindowWorkload(8, 0.1, datasets::UnitUniverse(), 29);
  for (const auto mode : {broadcast::ErrorMode::kPerReadLoss,
                          broadcast::ErrorMode::kSingleEvent,
                          broadcast::ErrorMode::kPerBucketLoss}) {
    const auto workload = sim::Workload::Window(windows, 0.5, mode);
    for (const air::AirIndexHandle* handle : Handles()) {
      const auto serial =
          sim::RunWorkload(*handle, workload, sim::RunOptions{107, 1});
      const auto parallel =
          sim::RunWorkload(*handle, workload, sim::RunOptions{107, 8});
      ExpectIdentical(serial, parallel, handle->family(), "lossy window");
    }
  }
}

TEST_F(ParallelParityFixture, WorkerCountDoesNotLeakIntoSeeds) {
  // 2, 3 and 5 workers split the 10 queries at different boundaries; all
  // must agree because seeds derive from query indices, not shard order.
  const auto points = sim::MakeKnnWorkload(10, datasets::UnitUniverse(), 31);
  const auto workload = sim::Workload::Knn(points, 3);
  const auto baseline =
      sim::RunWorkload(dsi_air_, workload, sim::RunOptions{109, 1});
  for (const size_t workers : {2u, 3u, 5u, 10u}) {
    const auto sharded =
        sim::RunWorkload(dsi_air_, workload, sim::RunOptions{109, workers});
    ExpectIdentical(baseline, sharded, "dsi", "worker sweep");
  }
}

TEST_F(ParallelParityFixture, PersistentPoolIsStableAcrossRepeatedRuns) {
  // The worker pool persists between RunWorkload calls; re-running the same
  // workload (and interleaving different worker counts so the pool grows in
  // between) must keep reproducing the serial result bit-identically.
  const auto windows =
      sim::MakeWindowWorkload(10, 0.1, datasets::UnitUniverse(), 41);
  const auto workload = sim::Workload::Window(windows);
  const auto baseline =
      sim::RunWorkload(dsi_air_, workload, sim::RunOptions{113, 1});
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const size_t workers : {4u, 2u, 7u}) {
      const auto pooled = sim::RunWorkload(dsi_air_, workload,
                                           sim::RunOptions{113, workers});
      ExpectIdentical(baseline, pooled, "dsi", "pool reuse");
    }
  }
}

TEST_F(ParallelParityFixture, AnyWorkerCountReproducesEveryTour) {
  // Tours keep one contiguous population per worker; every worker count
  // must still reproduce the serial metrics and every step of every tour,
  // warm and cold, on both simulation cores.
  datasets::TrajectoryParams params;
  params.speed = 0.02;
  for (const auto kind : {sim::QueryKind::kWindow, sim::QueryKind::kKnn}) {
    sim::TrajectoryWorkload wl = sim::MakeTrajectoryWorkload(
        kind, 11, 4, params, datasets::UnitUniverse(), 71);
    wl.k = 4;
    wl.theta = 0.3;
    wl.error_mode = broadcast::ErrorMode::kPerBucketLoss;
    for (const air::AirIndexHandle* handle : Handles()) {
      for (const auto engine : {sim::TrajectoryEngine::kLoop,
                                sim::TrajectoryEngine::kScheduler}) {
        std::vector<std::vector<sim::TrajectoryStep>> baseline;
        sim::TrajectoryOptions base_opt;
        base_opt.seed = 229;
        base_opt.results = &baseline;
        base_opt.engine = engine;
        const sim::TrajectoryMetrics serial =
            sim::RunTrajectories(*handle, wl, base_opt);
        EXPECT_EQ(serial.steps, 44u) << handle->family();
        for (const size_t workers : {2u, 3u, 7u}) {
          std::vector<std::vector<sim::TrajectoryStep>> got;
          sim::TrajectoryOptions opt = base_opt;
          opt.workers = workers;
          opt.results = &got;
          EXPECT_TRUE(sim::RunTrajectories(*handle, wl, opt) == serial)
              << handle->family() << " workers " << workers;
          EXPECT_TRUE(got == baseline)
              << handle->family() << " workers " << workers;
        }
      }
    }
  }
}

TEST(RunShardedTest, IdleWorkerTakesTheNextUnit) {
  // Unit 0 blocks until every other unit has run. A worker that owned a
  // fixed half would have to finish unit 0 before units 1..15, so unit 0
  // would wait in vain; with units claimed one at a time, the other worker
  // takes all 31 while unit 0 waits. The wait is bounded, so a regression
  // fails instead of hanging.
  constexpr size_t kUnits = 32;
  struct Count {
    size_t units = 0;
    Count& operator+=(const Count& o) {
      units += o.units;
      return *this;
    }
  };
  std::atomic<size_t> others_done{0};
  bool unit0_waited_in_vain = false;
  const Count total = sim::detail::RunSharded<Count>(
      kUnits, 2, [&](size_t begin, size_t end, Count* sums) {
        for (size_t i = begin; i < end; ++i) {
          if (i == 0) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (others_done.load() < kUnits - 1) {
              if (std::chrono::steady_clock::now() > deadline) {
                unit0_waited_in_vain = true;
                break;
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          } else {
            others_done.fetch_add(1);
          }
          ++sums->units;
        }
      });
  EXPECT_FALSE(unit0_waited_in_vain);
  EXPECT_EQ(total.units, kUnits);
}

TEST_F(ParallelParityFixture, ArenaClientsMatchHeapClients) {
  // MakeClientIn (the engine's per-worker arena path) must behave exactly
  // like MakeClient — same answer ids in the same order, same latency and
  // tuning bytes, on a clean and on a lossy channel — including when one
  // arena is reused across queries and families back to back.
  const auto windows =
      sim::MakeWindowWorkload(4, 0.1, datasets::UnitUniverse(), 43);
  const auto points = sim::MakeKnnWorkload(4, datasets::UnitUniverse(), 45);
  air::ClientArena arena;
  auto ids = [](const std::vector<datasets::SpatialObject>& answer) {
    std::vector<uint32_t> out;
    for (const datasets::SpatialObject& o : answer) out.push_back(o.id);
    return out;
  };
  for (const double theta : {0.0, 0.5}) {
    const broadcast::ErrorModel errors{theta,
                                       broadcast::ErrorMode::kPerBucketLoss};
    for (const air::AirIndexHandle* handle : Handles()) {
      // One query on a heap client and on an arena client, each over its
      // own session with identical tune-in and channel seed.
      auto expect_same = [&](uint64_t tune_in, uint64_t rng_seed,
                             const auto& query, const char* kind) {
        broadcast::ClientSession heap_session(handle->program(), tune_in,
                                              errors, common::Rng(rng_seed));
        broadcast::ClientSession arena_session(handle->program(), tune_in,
                                               errors, common::Rng(rng_seed));
        const auto heap_client = handle->MakeClient(&heap_session);
        air::AirClient* arena_client =
            handle->MakeClientIn(arena, &arena_session);
        EXPECT_EQ(ids(query(*heap_client)), ids(query(*arena_client)))
            << handle->family() << " " << kind << " theta " << theta;
        EXPECT_EQ(heap_session.metrics().access_latency_bytes,
                  arena_session.metrics().access_latency_bytes)
            << handle->family() << " " << kind << " theta " << theta;
        EXPECT_EQ(heap_session.metrics().tuning_bytes,
                  arena_session.metrics().tuning_bytes)
            << handle->family() << " " << kind << " theta " << theta;
      };
      for (size_t i = 0; i < windows.size(); ++i) {
        expect_same(
            300 + i, i,
            [&](air::AirClient& c) { return c.WindowQuery(windows[i]); },
            "window");
      }
      for (size_t i = 0; i < points.size(); ++i) {
        expect_same(
            500 + i, 90 + i,
            [&](air::AirClient& c) { return c.KnnQuery(points[i], 3); },
            "knn");
      }
    }
  }
}

TEST_F(ParallelParityFixture, ResultCaptureParityAcrossSharding) {
  // RunOptions::results entries are keyed by query index, so any worker
  // count must fill identical result sets and averages, lossless and lossy
  // — whatever order the workers claim the 61 queries in.
  const auto windows =
      sim::MakeWindowWorkload(61, 0.12, datasets::UnitUniverse(), 51);
  const auto points = sim::MakeKnnWorkload(61, datasets::UnitUniverse(), 53);
  const sim::Workload workloads[] = {
      sim::Workload::Window(windows),
      sim::Workload::Window(windows, 0.4),
      sim::Workload::Knn(points, 5),
      sim::Workload::Knn(points, 5, air::KnnStrategy::kConservative, 0.4,
                         broadcast::ErrorMode::kPerBucketLoss),
  };
  for (const air::AirIndexHandle* handle : Handles()) {
    for (const sim::Workload& workload : workloads) {
      std::vector<sim::QueryResult> baseline;
      sim::RunOptions base_opt;
      base_opt.seed = 211;
      base_opt.workers = 1;
      base_opt.results = &baseline;
      const sim::AvgMetrics serial =
          sim::RunWorkload(*handle, workload, base_opt);
      ASSERT_EQ(baseline.size(), workload.size());

      for (const size_t workers : {2u, 3u, 7u}) {
        std::vector<sim::QueryResult> got;
        sim::RunOptions opt = base_opt;
        opt.workers = workers;
        opt.results = &got;
        ExpectIdentical(serial, sim::RunWorkload(*handle, workload, opt),
                        handle->family(), "capture");
        ASSERT_EQ(got.size(), baseline.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(got[i] == baseline[i])
              << handle->family() << " query " << i << " workers "
              << workers;
        }
      }
    }
  }
}

TEST_F(ParallelParityFixture, EngineQueryIsTheDocumentedTuneIn) {
  // The engine's tune-in contract, spelled out by hand: query i tunes in at
  // the first UniformInt(0, cycle - 1) draw of Rng(MixSeed(seed, i)) and
  // runs a fresh client on a session over the plain program with the
  // fork of that rng. Every per-query result the engine captures — on two
  // workers, under per-bucket loss — must be exactly what that hand-driven
  // query produces. The goldens and every fixed-seed bench rest on it.
  constexpr uint64_t kSeed = 223;
  const auto windows =
      sim::MakeWindowWorkload(8, 0.12, datasets::UnitUniverse(), 57);
  const auto points = sim::MakeKnnWorkload(8, datasets::UnitUniverse(), 59);
  const auto mode = broadcast::ErrorMode::kPerBucketLoss;
  const sim::Workload workloads[] = {
      sim::Workload::Window(windows, 0.3, mode),
      sim::Workload::Knn(points, 5, air::KnnStrategy::kConservative, 0.3,
                         mode),
  };
  for (const air::AirIndexHandle* handle : Handles()) {
    transport::SimTransport channel(handle->program());
    const auto cycle = static_cast<int64_t>(handle->program().cycle_packets());
    for (const sim::Workload& workload : workloads) {
      std::vector<sim::QueryResult> results;
      sim::RunOptions opt;
      opt.seed = kSeed;
      opt.workers = 2;
      opt.results = &results;
      (void)sim::RunWorkload(*handle, workload, opt);
      ASSERT_EQ(results.size(), workload.size());
      for (size_t i = 0; i < workload.size(); ++i) {
        common::Rng rng(sim::MixSeed(kSeed, i));
        const auto tune_in = static_cast<uint64_t>(rng.UniformInt(0, cycle - 1));
        broadcast::ClientSession session(
            channel, tune_in,
            broadcast::ErrorModel{workload.theta, workload.error_mode},
            rng.Fork());
        const auto client = handle->MakeClient(&session);
        const auto answer =
            workload.kind == sim::QueryKind::kWindow
                ? client->WindowQuery(workload.windows[i])
                : client->KnnQuery(workload.points[i], workload.k,
                                   workload.strategy);
        std::vector<uint32_t> ids;
        for (const auto& o : answer) ids.push_back(o.id);
        std::sort(ids.begin(), ids.end());
        const broadcast::Metrics m = session.metrics();
        EXPECT_EQ(results[i].ids, ids) << handle->family() << " query " << i;
        EXPECT_EQ(results[i].completed, client->stats().completed)
            << handle->family() << " query " << i;
        EXPECT_EQ(results[i].latency_bytes, m.access_latency_bytes)
            << handle->family() << " query " << i;
        EXPECT_EQ(results[i].tuning_bytes, m.tuning_bytes)
            << handle->family() << " query " << i;
        EXPECT_EQ(results[i].generation, 0u);
        EXPECT_EQ(results[i].restarts, 0u);
      }
    }
  }
}

TEST_F(ParallelParityFixture, ExpAdapterAnswersAreExact) {
  // The 1-D exponential-index adapter must return exactly the objects an
  // in-memory oracle finds, for both query kinds.
  const auto windows =
      sim::MakeWindowWorkload(4, 0.12, datasets::UnitUniverse(), 33);
  for (const auto& w : windows) {
    size_t oracle = 0;
    for (const auto& o : objects_) {
      if (w.Contains(o.location)) ++oracle;
    }
    broadcast::ClientSession session(exp_air_.program(), 97,
                                     broadcast::ErrorModel{}, common::Rng(1));
    const auto client = exp_air_.MakeClient(&session);
    EXPECT_EQ(client->WindowQuery(w).size(), oracle);
  }
  const auto points = sim::MakeKnnWorkload(4, datasets::UnitUniverse(), 35);
  for (const auto& q : points) {
    std::vector<double> dists;
    for (const auto& o : objects_) {
      dists.push_back(common::Distance(q, o.location));
    }
    std::sort(dists.begin(), dists.end());
    broadcast::ClientSession session(exp_air_.program(), 131,
                                     broadcast::ErrorModel{}, common::Rng(2));
    const auto client = exp_air_.MakeClient(&session);
    const auto result = client->KnnQuery(q, 5);
    ASSERT_EQ(result.size(), 5u);
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_DOUBLE_EQ(common::Distance(q, result[i].location), dists[i]);
    }
  }
}

}  // namespace
}  // namespace dsi
