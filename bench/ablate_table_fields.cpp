/// Ablation (EXPERIMENTS.md, Deviations #1): DSI index-table HC field
/// width. Section 4 allots 16 bytes per HC value, which makes a
/// full-coverage table span several packets at small capacities; the
/// compact default packs the cell index instead. This bench quantifies
/// what the literal field sizes cost.

#include <iostream>

#include "air/dsi_handle.hpp"
#include "bench_common.hpp"

// A hand-built DsiIndex: the table prints its table size.

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

  std::cout << "Ablation: DSI table HC field width (capacity=64B, "
            << objects.size() << " objects)\n\n";
  std::cout << "Latency/tuning in bytes x10^3; table/cycle absolute:\n";
  sim::TablePrinter t({"HCbytes", "TableB", "CycleMB", "Lat(Win)",
                       "Tun(Win)", "Lat(10NN)", "Tun(10NN)"});
  t.PrintHeader();
  const auto win_workload = sim::Workload::Window(windows);
  const auto knn_workload = sim::Workload::Knn(points, 10);
  for (const uint32_t hc_bytes : {0u, 4u, 8u, 16u}) {
    core::DsiConfig cfg = bench::DsiReorganized();
    cfg.table_hc_bytes = hc_bytes;
    const core::DsiIndex index(objects, mapper, 64, cfg);
    const auto mw = sim::RunWorkload(air::DsiHandle(index), win_workload,
                                     bench::Par(opt.seed + 3));
    const auto mk = sim::RunWorkload(air::DsiHandle(index), knn_workload,
                                     bench::Par(opt.seed + 4));
    t.PrintRow(hc_bytes == 0 ? std::string("auto") : std::to_string(hc_bytes),
               index.table_bytes(),
               index.program().cycle_bytes() / 1e6, mw.latency_bytes / 1e3,
               mw.tuning_bytes / 1e3, mk.latency_bytes / 1e3,
               mk.tuning_bytes / 1e3);
  }
  std::cout << "\nExpected: 16-byte fields (the paper's literal Section 4 "
               "accounting) stretch every frame by several packets — "
               "longer cycle, higher latency, and table-dominated kNN "
               "tuning. The compact default keeps tables near one "
               "packet.\n";
  return 0;
}
