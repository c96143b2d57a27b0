/// \file golden_gen.cpp
/// \brief Regenerates the golden byte-metric table embedded in
/// tests/golden_equivalence_test.cpp. The numbers were first captured from
/// the pre-optimization (PR 1) implementation; the optimized hot path must
/// reproduce them bit-identically. Run this only to EXTEND the table (new
/// configs), never to paper over a regression.
///
/// Output: C++ initializer rows for the GoldenRow table, printed to stdout.

#include <cstdio>
#include <string>
#include <vector>

#include "air/family.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

int main() {
  using namespace dsi;
  using air::Family;
  constexpr size_t kQueries = 12;
  constexpr size_t kCapacity = 64;

  const air::Generations gens{
      {datasets::MakeUniform(300, datasets::UnitUniverse(), 19)}, {}};
  const auto windows = sim::MakeWindowWorkload(kQueries, 0.12,
                                               datasets::UnitUniverse(), 23);
  const auto points = sim::MakeKnnWorkload(kQueries, datasets::UnitUniverse(), 27);
  sim::RunOptions opt;  // every row runs serially on seed 77
  opt.seed = 77;

  // Flat rows (GoldenRow format: family, m, order, kind, theta, latency,
  // tuning, incomplete). DSI runs m = 1..3 and adds the aggressive kNN
  // tactic; the exponential index skips the lossy window; the R-tree has no
  // curve, so it runs once and prints order 0.
  for (const int order : {6, 8}) {
    const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), order);
    for (const Family family : air::kFamilies) {
      if (family == Family::kRtree && order != 6) continue;
      for (const uint32_t m : {1u, 2u, 3u}) {
        if (m > 1 && family != Family::kDsi) break;
        const air::FamilyBroadcast b(family, gens, mapper, kCapacity,
                                     core::DsiConfig{.num_segments = m});
        auto emit = [&](const char* kind, const sim::Workload& wl) {
          const auto metrics = sim::RunWorkload(b.handle(0), wl, opt);
          std::printf("    {\"%s\", %u, %d, \"%s\", %g, %.17g, %.17g, %zu},\n",
                      std::string(air::FamilyName(family)).c_str(), m,
                      family == Family::kRtree ? 0 : order, kind, wl.theta,
                      metrics.latency_bytes, metrics.tuning_bytes,
                      metrics.incomplete);
        };
        emit("window", sim::Workload::Window(windows));
        if (family != Family::kExpIndex) {
          emit("window", sim::Workload::Window(windows, 0.5));
        }
        emit("knn", sim::Workload::Knn(points, 4));
        if (family == Family::kDsi) {
          emit("knn-aggr",
               sim::Workload::Knn(points, 4, air::KnnStrategy::kAggressive));
        }
      }
    }
  }

  // Layout rows: every family at order 6 with default parameters, window
  // workloads at theta 0 and 0.5. Each row prints the family, then the
  // disk columns (disks, skew) and the code columns (group, parity) its
  // layout has, then kind, theta, latency, tuning, incomplete and, for
  // coded rows, repaired:
  //  * coding alone (CodedGoldenRow): theta = 0 pins the parity padding and
  //    slot translation costs, theta = 0.5 the repair path byte for byte;
  //  * multi-disk alone (DiskGoldenRow): (1, 0) pins the identity contract —
  //    byte-identical to the flat order-6 window rows — while (2, 1.2) and
  //    (3, 1.2) pin the skew-aware chunked layout and the repetition-aware
  //    client hops;
  //  * both (CodedDiskGoldenRow): parity groups over the physical airings
  //    of the (2, 1.2) multi-disk cycle, hot repetitions included.
  struct Layout {
    broadcast::CodingConfig coding;
    bool disk_columns = false;
    broadcast::DiskConfig disks;
  };
  const Layout layouts[] = {
      {{2, 1}, false, {}},         {{2, 2}, false, {}},
      {{}, true, {1, 0.0, 8, 5}},  {{}, true, {2, 1.2, 8, 5}},
      {{}, true, {3, 1.2, 8, 5}},  {{4, 1}, true, {2, 1.2, 8, 5}},
  };
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 6);
  std::vector<air::FamilyBroadcast> broadcasts;
  for (const Family family : air::kFamilies) {
    broadcasts.emplace_back(family, gens, mapper, kCapacity);
  }
  for (const Layout& layout : layouts) {
    opt.coding = layout.coding;
    opt.disks = layout.disks;
    for (const air::FamilyBroadcast& b : broadcasts) {
      for (const double theta : {0.0, 0.5}) {
        const auto metrics = sim::RunWorkload(
            b.handle(0), sim::Workload::Window(windows, theta), opt);
        std::printf("    {\"%s\"", std::string(b.handle(0).family()).c_str());
        if (layout.disk_columns) {
          std::printf(", %u, %g", layout.disks.num_disks, layout.disks.skew);
        }
        if (layout.coding.enabled()) {
          std::printf(", %u, %u", layout.coding.group, layout.coding.parity);
        }
        std::printf(", \"window\", %g, %.17g, %.17g, %zu", theta,
                    metrics.latency_bytes, metrics.tuning_bytes,
                    metrics.incomplete);
        if (layout.coding.enabled()) std::printf(", %zu", metrics.repaired);
        std::printf("},\n");
      }
    }
  }
  return 0;
}
