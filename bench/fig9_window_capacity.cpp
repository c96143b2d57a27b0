/// Reproduces Figure 9: window query access latency (a) and tuning time (b)
/// versus packet capacity for DSI (reorganized), R-tree (STR + distributed
/// index) and HCI. WinSideRatio = 0.1, UNIFORM dataset. R-tree is skipped
/// at 32-byte packets (34-byte entries do not fit — the paper notes the
/// same limitation).

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

  std::cout << "Figure 9: window queries vs. packet capacity ("
            << (opt.real ? "REAL-like" : "UNIFORM") << ", " << objects.size()
            << " objects, WinSideRatio=0.1, " << opt.queries
            << " queries/point)\n\n";
  std::cout << "Latency and tuning in bytes x10^3:\n";
  sim::TablePrinter t({"Capacity", "Lat(DSI)", "Lat(Rtree)", "Lat(HCI)",
                       "Tun(DSI)", "Tun(Rtree)", "Tun(HCI)"});
  t.PrintHeader();
  const auto workload = sim::Workload::Window(windows);
  for (const size_t cap : bench::Capacities()) {
    bench::PrintCompared(
        t, cap,
        bench::RunCompared(bench::ComparedBroadcasts(objects, mapper, cap),
                           workload, bench::Par(opt.seed + 2)));
  }
  std::cout << "\nExpected shape (paper): DSI stays flat across capacities "
               "and wins both metrics (UNIFORM: ~85% of R-tree latency, "
               "~78% of HCI latency; ~80%/~64% of their tuning); R-tree and "
               "HCI grow with capacity.\n";
  return 0;
}
