/// Reproduces Figure 12: kNN access latency (a) and tuning time (b) versus
/// k in {1,3,5,10,20,30} at 64-byte packets, DSI vs. R-tree vs. HCI.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsi;
  const bench::Options opt = bench::ParseOptions(argc, argv);
  const auto objects = bench::MakeDataset(opt);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    bench::OrderFor(opt));
  constexpr size_t kCapacity = 64;
  const auto points =
      sim::MakeKnnWorkload(opt.queries, datasets::UnitUniverse(), opt.seed + 1);

  const auto broadcasts = bench::ComparedBroadcasts(objects, mapper, kCapacity);

  std::cout << "Figure 12: kNN queries vs. K ("
            << (opt.real ? "REAL-like" : "UNIFORM") << ", " << objects.size()
            << " objects, capacity=64B, " << opt.queries
            << " queries/point)\n\n";
  std::cout << "Latency and tuning in bytes x10^3:\n";
  sim::TablePrinter t({"K", "Lat(DSI)", "Lat(Rtree)", "Lat(HCI)", "Tun(DSI)",
                       "Tun(Rtree)", "Tun(HCI)"});
  t.PrintHeader();
  for (const size_t k : {1u, 3u, 5u, 10u, 20u, 30u}) {
    bench::PrintCompared(t, k,
                         bench::RunCompared(broadcasts,
                                            sim::Workload::Knn(points, k),
                                            bench::Par(opt.seed + 2)));
  }
  std::cout << "\nExpected shape (paper): DSI best everywhere; latency "
               "roughly flat in k (bounded by the cycle) while DSI tuning "
               "grows much slower with k than R-tree's and HCI's.\n";
  return 0;
}
