/// Reproduces Figure 10: window query access latency (a) and tuning time
/// (b) versus WinSideRatio at 64-byte packets, DSI vs. R-tree vs. HCI.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsi;
  const bench::Options opt = bench::ParseOptions(argc, argv);
  const auto objects = bench::MakeDataset(opt);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    bench::OrderFor(opt));
  constexpr size_t kCapacity = 64;

  const auto broadcasts = bench::ComparedBroadcasts(objects, mapper, kCapacity);

  std::cout << "Figure 10: window queries vs. WinSideRatio ("
            << (opt.real ? "REAL-like" : "UNIFORM") << ", " << objects.size()
            << " objects, capacity=64B, " << opt.queries
            << " queries/point)\n\n";
  std::cout << "Latency and tuning in bytes x10^3:\n";
  sim::TablePrinter t({"Ratio", "Lat(DSI)", "Lat(Rtree)", "Lat(HCI)",
                       "Tun(DSI)", "Tun(Rtree)", "Tun(HCI)"});
  t.PrintHeader();
  for (const double ratio : {0.02, 0.05, 0.1, 0.15, 0.2}) {
    const auto windows = sim::MakeWindowWorkload(
        opt.queries, ratio, datasets::UnitUniverse(), opt.seed + 1);
    bench::PrintCompared(t, ratio,
                         bench::RunCompared(broadcasts,
                                            sim::Workload::Window(windows),
                                            bench::Par(opt.seed + 2)));
  }
  std::cout << "\nExpected shape (paper): all grow with window size; DSI "
               "wins overall, except R-tree may win tuning at the smallest "
               "windows (high R-tree spatial locality; a small window does "
               "not imply a small HC range).\n";
  return 0;
}
