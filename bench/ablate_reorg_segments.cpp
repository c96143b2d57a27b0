/// Ablation (DESIGN.md §6): number of interleaved broadcast segments m.
/// The paper uses m = 2; this sweep shows the latency/tuning trade-off as
/// the broadcast is sliced finer. Window + 10NN at 64-byte packets.

#include <iostream>

#include "bench_common.hpp"

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

  std::cout << "Ablation: DSI broadcast segments m (capacity=64B, "
            << objects.size() << " objects)\n\n";
  std::cout << "Latency and tuning in bytes x10^3:\n";
  sim::TablePrinter t({"m", "Lat(Win)", "Tun(Win)", "Lat(10NN)",
                       "Tun(10NN)"});
  t.PrintHeader();
  const auto win_workload = sim::Workload::Window(windows);
  const auto knn_workload = sim::Workload::Knn(points, 10);
  for (const uint32_t m : {1u, 2u, 4u, 8u}) {
    const auto dsi = bench::Broadcast(air::Family::kDsi, objects, mapper, 64,
                                      core::DsiConfig{.num_segments = m});
    const auto mw = sim::RunWorkload(dsi.handle(0), win_workload,
                                     bench::Par(opt.seed + 3));
    const auto mk = sim::RunWorkload(dsi.handle(0), knn_workload,
                                     bench::Par(opt.seed + 4));
    t.PrintRow(m, mw.latency_bytes / 1e3, mw.tuning_bytes / 1e3,
               mk.latency_bytes / 1e3, mk.tuning_bytes / 1e3);
  }
  std::cout << "\nExpected: m = 2 captures most of the kNN gain over m = 1 "
               "(the paper's choice); larger m adds segment-head overhead "
               "to every table for diminishing returns.\n";
  return 0;
}
