/// Ablation (DESIGN.md §6): DSI object factor no (objects per frame),
/// including the paper's packet-size-driven derivation (no = 0 config).
/// Coarser frames mean fewer index tables (shorter cycle) but force clients
/// to download whole frames to check membership (more tuning).

#include <iostream>

#include "air/dsi_handle.hpp"
#include "bench_common.hpp"

// A hand-built DsiIndex: the table prints its frame count.

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

  std::cout << "Ablation: DSI object factor no (capacity=64B, "
            << objects.size() << " objects; no=0 is the paper's "
            << "one-packet-table derivation)\n\n";
  std::cout << "Latency and tuning in bytes x10^3:\n";
  sim::TablePrinter t({"no", "Frames", "Lat(Win)", "Tun(Win)", "Lat(10NN)",
                       "Tun(10NN)"});
  t.PrintHeader();
  const auto win_workload = sim::Workload::Window(windows);
  const auto knn_workload = sim::Workload::Knn(points, 10);
  for (const uint32_t no : {1u, 2u, 4u, 16u, 64u, 0u}) {
    core::DsiConfig cfg = bench::DsiReorganized();
    cfg.object_factor = no;
    const core::DsiIndex index(objects, mapper, 64, cfg);
    const auto mw = sim::RunWorkload(air::DsiHandle(index), win_workload,
                                     bench::Par(opt.seed + 3));
    const auto mk = sim::RunWorkload(air::DsiHandle(index), knn_workload,
                                     bench::Par(opt.seed + 4));
    t.PrintRow(no == 0 ? std::string("paper") : std::to_string(no),
               index.num_frames(), mw.latency_bytes / 1e3,
               mw.tuning_bytes / 1e3, mk.latency_bytes / 1e3,
               mk.tuning_bytes / 1e3);
  }
  std::cout << "\nExpected: tuning grows sharply with no (whole-frame "
               "downloads); latency shrinks slightly (fewer tables on air). "
               "no = 1 is the configuration whose magnitudes match the "
               "paper's figures (see EXPERIMENTS.md).\n";
  return 0;
}
