/// Reproduces Figure 11: NN (k=1) and 10NN access latency / tuning time
/// versus packet capacity, DSI (reorganized, conservative strategy) vs.
/// R-tree vs. HCI. UNIFORM dataset.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsi;
  const bench::Options opt = bench::ParseOptions(argc, argv);
  const auto objects = bench::MakeDataset(opt);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    bench::OrderFor(opt));
  const auto points =
      sim::MakeKnnWorkload(opt.queries, datasets::UnitUniverse(), opt.seed + 1);

  std::cout << "Figure 11: kNN queries vs. packet capacity ("
            << (opt.real ? "REAL-like" : "UNIFORM") << ", " << objects.size()
            << " objects, " << opt.queries << " queries/point)\n";

  for (const size_t k : {1u, 10u}) {
    std::cout << "\nk = " << k << " — latency and tuning in bytes x10^3:\n";
    sim::TablePrinter t({"Capacity", "Lat(DSI)", "Lat(Rtree)", "Lat(HCI)",
                         "Tun(DSI)", "Tun(Rtree)", "Tun(HCI)"});
    t.PrintHeader();
    const auto workload = sim::Workload::Knn(points, k);
    for (const size_t cap : bench::Capacities()) {
      // The paper's range, 64..512: the R-tree does not fit 32-byte packets.
      if (cap < air::MinPacketCapacity(air::Family::kRtree)) continue;
      bench::PrintCompared(
          t, cap,
          bench::RunCompared(bench::ComparedBroadcasts(objects, mapper, cap),
                             workload, bench::Par(opt.seed + 2)));
    }
  }
  std::cout << "\nExpected shape (paper): DSI wins by a wide margin (NN: "
               "~23% of HCI and ~59% of R-tree latency; ~27%/~42% of their "
               "tuning); DSI stays stable across capacities while the tree "
               "indexes grow.\n";
  return 0;
}
