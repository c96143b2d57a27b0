/// Ablation (DESIGN.md §6): DSI index base r. Larger bases shrink the index
/// table (fewer entries per frame) at the cost of more EEF hops; the paper
/// fixes r = 2. Window + 10NN at 64-byte packets.

#include <iostream>

#include "air/dsi_handle.hpp"
#include "bench_common.hpp"

// A hand-built DsiIndex: the table prints its table size and entry count.

int main(int argc, char** argv) {
  using namespace dsi;
  const bench::Options opt = bench::ParseOptions(argc, argv);
  const auto objects = bench::MakeDataset(opt);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    bench::OrderFor(opt));
  const auto windows = sim::MakeWindowWorkload(
      opt.queries, 0.1, datasets::UnitUniverse(), opt.seed + 1);
  const auto points =
      sim::MakeKnnWorkload(opt.queries, datasets::UnitUniverse(), opt.seed + 2);

  std::cout << "Ablation: DSI index base r (capacity=64B, "
            << objects.size() << " objects)\n\n";
  std::cout << "Latency and tuning in bytes x10^3; table size in bytes:\n";
  sim::TablePrinter t({"r", "TableB", "Entries", "Lat(Win)", "Tun(Win)",
                       "Lat(10NN)", "Tun(10NN)"});
  t.PrintHeader();
  const auto win_workload = sim::Workload::Window(windows);
  const auto knn_workload = sim::Workload::Knn(points, 10);
  for (const uint32_t r : {2u, 4u, 8u, 16u}) {
    core::DsiConfig cfg = bench::DsiReorganized();
    cfg.index_base = r;
    const core::DsiIndex index(objects, mapper, 64, cfg);
    const auto mw = sim::RunWorkload(air::DsiHandle(index), win_workload,
                                     bench::Par(opt.seed + 3));
    const auto mk = sim::RunWorkload(air::DsiHandle(index), knn_workload,
                                     bench::Par(opt.seed + 4));
    t.PrintRow(r, index.table_bytes(), index.entries_per_table(),
               mw.latency_bytes / 1e3, mw.tuning_bytes / 1e3,
               mk.latency_bytes / 1e3, mk.tuning_bytes / 1e3);
  }
  std::cout << "\nExpected: larger r -> smaller tables (shorter cycle, "
               "slightly lower latency) but coarser forwarding (more tuning "
               "on navigation).\n";
  return 0;
}
