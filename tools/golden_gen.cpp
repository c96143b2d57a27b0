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

#include "air/dsi_handle.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "hci/hci.hpp"
#include "hilbert/space_mapper.hpp"
#include "rtree/rtree_air.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

int main() {
  using namespace dsi;
  constexpr size_t kQueries = 12;
  constexpr size_t kCapacity = 64;

  const auto objects =
      datasets::MakeUniform(300, datasets::UnitUniverse(), 19);
  const auto windows = sim::MakeWindowWorkload(kQueries, 0.12,
                                               datasets::UnitUniverse(), 23);
  const auto points = sim::MakeKnnWorkload(kQueries, datasets::UnitUniverse(), 27);

  auto emit = [&](const char* family, int m, int order, const char* kind,
                  double theta, const air::AirIndexHandle& h,
                  const sim::Workload& wl) {
    const auto metrics = sim::RunWorkload(h, wl, sim::RunOptions{77, 1});
    std::printf(
        "    {\"%s\", %d, %d, \"%s\", %g, %.17g, %.17g, %zu},\n", family, m,
        order, kind, theta, metrics.latency_bytes, metrics.tuning_bytes,
        metrics.incomplete);
  };

  for (const int order : {6, 8}) {
    const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), order);
    for (const uint32_t m : {1u, 2u, 3u}) {
      core::DsiConfig cfg;
      cfg.num_segments = m;
      const core::DsiIndex dsi(objects, mapper, kCapacity, cfg);
      const air::DsiHandle h(dsi);
      emit("dsi", static_cast<int>(m), order, "window", 0.0, h,
           sim::Workload::Window(windows));
      emit("dsi", static_cast<int>(m), order, "window", 0.5, h,
           sim::Workload::Window(windows, 0.5));
      emit("dsi", static_cast<int>(m), order, "knn", 0.0, h,
           sim::Workload::Knn(points, 4));
      emit("dsi", static_cast<int>(m), order, "knn-aggr", 0.0, h,
           sim::Workload::Knn(points, 4, air::KnnStrategy::kAggressive));
    }
    const hci::HciIndex hci(objects, mapper, kCapacity);
    const air::HciHandle hh(hci);
    emit("hci", 1, order, "window", 0.0, hh, sim::Workload::Window(windows));
    emit("hci", 1, order, "window", 0.5, hh,
         sim::Workload::Window(windows, 0.5));
    emit("hci", 1, order, "knn", 0.0, hh, sim::Workload::Knn(points, 4));
    const air::ExpHandle eh(objects, mapper, kCapacity);
    emit("expindex", 1, order, "window", 0.0, eh,
         sim::Workload::Window(windows));
    emit("expindex", 1, order, "knn", 0.0, eh, sim::Workload::Knn(points, 4));
  }
  {
    const rtree::RtreeIndex rt(objects, kCapacity);
    const air::RtreeHandle rh(rt);
    emit("rtree", 1, 0, "window", 0.0, rh, sim::Workload::Window(windows));
    emit("rtree", 1, 0, "window", 0.5, rh,
         sim::Workload::Window(windows, 0.5));
    emit("rtree", 1, 0, "knn", 0.0, rh, sim::Workload::Knn(points, 4));
  }

  // Erasure-coded rows (CodedGoldenRow format: family, group, parity, kind,
  // theta, latency, tuning, incomplete, repaired). Same workloads and seed;
  // theta = 0 pins the parity padding + slot translation costs, theta = 0.5
  // pins the repair path byte for byte.
  auto emit_coded = [&](const char* family, uint32_t group, uint32_t parity,
                        const char* kind, double theta,
                        const air::AirIndexHandle& h,
                        const sim::Workload& wl) {
    sim::RunOptions opt;
    opt.seed = 77;
    opt.workers = 1;
    opt.coding = broadcast::CodingConfig{group, parity};
    const auto metrics = sim::RunWorkload(h, wl, opt);
    std::printf(
        "    {\"%s\", %u, %u, \"%s\", %g, %.17g, %.17g, %zu, %zu},\n", family,
        group, parity, kind, theta, metrics.latency_bytes,
        metrics.tuning_bytes, metrics.incomplete, metrics.repaired);
  };

  {
    const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 6);
    const core::DsiIndex dsi(objects, mapper, kCapacity, core::DsiConfig{});
    const air::DsiHandle dh(dsi);
    const hci::HciIndex hci(objects, mapper, kCapacity);
    const air::HciHandle hh(hci);
    const air::ExpHandle eh(objects, mapper, kCapacity);
    const rtree::RtreeIndex rt(objects, kCapacity);
    const air::RtreeHandle rh(rt);
    for (const air::AirIndexHandle* h :
         {static_cast<const air::AirIndexHandle*>(&dh),
          static_cast<const air::AirIndexHandle*>(&rh),
          static_cast<const air::AirIndexHandle*>(&hh),
          static_cast<const air::AirIndexHandle*>(&eh)}) {
      const std::string family(h->family());
      for (const auto& cfg : {std::pair<uint32_t, uint32_t>{2, 1},
                              std::pair<uint32_t, uint32_t>{2, 2}}) {
        emit_coded(family.c_str(), cfg.first, cfg.second, "window", 0.0, *h,
                   sim::Workload::Window(windows));
        emit_coded(family.c_str(), cfg.first, cfg.second, "window", 0.5, *h,
                   sim::Workload::Window(windows, 0.5));
      }
    }
  }

  // Multi-disk rows (DiskGoldenRow format: family, disks, skew, kind, theta,
  // latency, tuning, incomplete). Same workloads and seed; the (1, 0) config
  // pins the identity contract — it must stay byte-identical to the flat
  // kGolden order-6 window rows — while (2, 1.2) and (3, 1.2) pin the
  // skew-aware chunked layout and the repetition-aware client hops.
  auto emit_disks = [&](const char* family, uint32_t disks, double skew,
                        const char* kind, double theta,
                        const air::AirIndexHandle& h, const sim::Workload& wl) {
    sim::RunOptions opt;
    opt.seed = 77;
    opt.workers = 1;
    opt.disks = broadcast::DiskConfig{disks, skew, 8, 5};
    const auto metrics = sim::RunWorkload(h, wl, opt);
    std::printf(
        "    {\"%s\", %u, %g, \"%s\", %g, %.17g, %.17g, %zu},\n", family,
        disks, skew, kind, theta, metrics.latency_bytes, metrics.tuning_bytes,
        metrics.incomplete);
  };

  {
    const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 6);
    const core::DsiIndex dsi(objects, mapper, kCapacity, core::DsiConfig{});
    const air::DsiHandle dh(dsi);
    const hci::HciIndex hci(objects, mapper, kCapacity);
    const air::HciHandle hh(hci);
    const air::ExpHandle eh(objects, mapper, kCapacity);
    const rtree::RtreeIndex rt(objects, kCapacity);
    const air::RtreeHandle rh(rt);
    for (const air::AirIndexHandle* h :
         {static_cast<const air::AirIndexHandle*>(&dh),
          static_cast<const air::AirIndexHandle*>(&rh),
          static_cast<const air::AirIndexHandle*>(&hh),
          static_cast<const air::AirIndexHandle*>(&eh)}) {
      const std::string family(h->family());
      for (const auto& cfg : {std::pair<uint32_t, double>{1, 0.0},
                              std::pair<uint32_t, double>{2, 1.2},
                              std::pair<uint32_t, double>{3, 1.2}}) {
        emit_disks(family.c_str(), cfg.first, cfg.second, "window", 0.0, *h,
                   sim::Workload::Window(windows));
        emit_disks(family.c_str(), cfg.first, cfg.second, "window", 0.5, *h,
                   sim::Workload::Window(windows, 0.5));
      }
    }
  }

  // Coded multi-disk rows (CodedDiskGoldenRow format: family, disks, skew,
  // group, parity, kind, theta, latency, tuning, incomplete, repaired). Same
  // workloads and seed; parity groups over the physical airings of the
  // (2, 1.2) multi-disk cycle, hot repetitions included.
  auto emit_coded_disks = [&](const char* family, const char* kind,
                              double theta, const air::AirIndexHandle& h,
                              const sim::Workload& wl) {
    sim::RunOptions opt;
    opt.seed = 77;
    opt.workers = 1;
    opt.disks = broadcast::DiskConfig{2, 1.2, 8, 5};
    opt.coding = broadcast::CodingConfig{4, 1};
    const auto metrics = sim::RunWorkload(h, wl, opt);
    std::printf(
        "    {\"%s\", %u, %g, %u, %u, \"%s\", %g, %.17g, %.17g, %zu, %zu},\n",
        family, opt.disks.num_disks, opt.disks.skew, opt.coding.group,
        opt.coding.parity, kind, theta, metrics.latency_bytes,
        metrics.tuning_bytes, metrics.incomplete, metrics.repaired);
  };

  {
    const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 6);
    const core::DsiIndex dsi(objects, mapper, kCapacity, core::DsiConfig{});
    const air::DsiHandle dh(dsi);
    const hci::HciIndex hci(objects, mapper, kCapacity);
    const air::HciHandle hh(hci);
    const air::ExpHandle eh(objects, mapper, kCapacity);
    const rtree::RtreeIndex rt(objects, kCapacity);
    const air::RtreeHandle rh(rt);
    for (const air::AirIndexHandle* h :
         {static_cast<const air::AirIndexHandle*>(&dh),
          static_cast<const air::AirIndexHandle*>(&rh),
          static_cast<const air::AirIndexHandle*>(&hh),
          static_cast<const air::AirIndexHandle*>(&eh)}) {
      const std::string family(h->family());
      emit_coded_disks(family.c_str(), "window", 0.0, *h,
                       sim::Workload::Window(windows));
      emit_coded_disks(family.c_str(), "window", 0.5, *h,
                       sim::Workload::Window(windows, 0.5));
    }
  }
  return 0;
}
