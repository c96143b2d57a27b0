/// Reproduces Figure 8: DSI broadcast reorganization vs. the original
/// HC-ascending broadcast, for window queries (a: latency, b: tuning) and
/// 10NN queries (c: latency, d: tuning — original broadcast with the
/// conservative and aggressive strategies vs. the two-segment reorganized
/// broadcast), swept over packet capacity. UNIFORM dataset.

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

  std::cout << "Figure 8: DSI broadcast reorganization ("
            << (opt.real ? "REAL-like" : "UNIFORM") << ", "
            << objects.size() << " objects, " << opt.queries
            << " queries/point)\n\n";

  std::cout << "(a)+(b) Window queries (WinSideRatio=0.1), bytes x10^3:\n";
  sim::TablePrinter win({"Capacity", "Lat(Orig)", "Lat(Reorg)", "Tun(Orig)",
                         "Tun(Reorg)"});
  win.PrintHeader();
  const auto win_workload = sim::Workload::Window(windows);
  const auto dsi = [&](size_t cap, const core::DsiConfig& cfg) {
    return bench::Broadcast(air::Family::kDsi, objects, mapper, cap, cfg);
  };
  for (const size_t cap : bench::Capacities()) {
    const auto original = dsi(cap, bench::DsiOriginal());
    const auto reorg = dsi(cap, bench::DsiReorganized());
    const auto mo = sim::RunWorkload(original.handle(0), win_workload,
                                     bench::Par(opt.seed + 3));
    const auto mr = sim::RunWorkload(reorg.handle(0), win_workload,
                                     bench::Par(opt.seed + 3));
    win.PrintRow(cap, mo.latency_bytes / 1e3, mr.latency_bytes / 1e3,
                 mo.tuning_bytes / 1e3, mr.tuning_bytes / 1e3);
  }

  std::cout << "\n(c)+(d) 10NN queries, bytes x10^3:\n";
  sim::TablePrinter knn({"Capacity", "Lat(Cons)", "Lat(Aggr)", "Lat(Reorg)",
                         "Tun(Cons)", "Tun(Aggr)", "Tun(Reorg)"});
  knn.PrintHeader();
  const auto cons = sim::Workload::Knn(points, 10);
  const auto aggr =
      sim::Workload::Knn(points, 10, air::KnnStrategy::kAggressive);
  for (const size_t cap : bench::Capacities()) {
    const auto original = dsi(cap, bench::DsiOriginal());
    const auto reorg = dsi(cap, bench::DsiReorganized());
    const auto mc = sim::RunWorkload(original.handle(0), cons,
                                     bench::Par(opt.seed + 4));
    const auto ma = sim::RunWorkload(original.handle(0), aggr,
                                     bench::Par(opt.seed + 4));
    const auto mr = sim::RunWorkload(reorg.handle(0), cons,
                                     bench::Par(opt.seed + 4));
    knn.PrintRow(cap, mc.latency_bytes / 1e3, ma.latency_bytes / 1e3,
                 mr.latency_bytes / 1e3, mc.tuning_bytes / 1e3,
                 ma.tuning_bytes / 1e3, mr.tuning_bytes / 1e3);
  }

  std::cout << "\nExpected shape (paper): reorganized broadcast beats the "
               "original on window latency (~28% less) and tuning (~7% "
               "less); for 10NN it combines the conservative strategy's "
               "latency with the aggressive strategy's tuning, beating "
               "both.\n";
  return 0;
}
