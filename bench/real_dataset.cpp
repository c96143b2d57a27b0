/// Reproduces the paper's REAL-dataset results, which are summarized in its
/// text rather than plotted (window: DSI needs 59.7% of R-tree and 50.5% of
/// HCI latency; 75.2% / 41.5% of their tuning). Uses the REAL substitute
/// (5848 clustered points, DESIGN.md §5). Window (ratio 0.1) and 10NN at
/// 64-byte packets, plus the DSI/R-tree and DSI/HCI ratios.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsi;
  bench::Options opt = bench::ParseOptions(argc, argv);
  opt.real = true;
  const auto objects = bench::MakeDataset(opt);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    bench::OrderFor(opt));
  constexpr size_t kCapacity = 64;
  const auto windows = sim::MakeWindowWorkload(
      opt.queries, 0.1, datasets::UnitUniverse(), opt.seed + 1);
  const auto points =
      sim::MakeKnnWorkload(opt.queries, datasets::UnitUniverse(), opt.seed + 2);

  const auto broadcasts = bench::ComparedBroadcasts(objects, mapper, kCapacity);

  std::cout << "REAL dataset (substitute, " << objects.size()
            << " clustered points, capacity=64B, " << opt.queries
            << " queries/point)\n\n";

  const auto win = bench::RunCompared(
      broadcasts, sim::Workload::Window(windows), bench::Par(opt.seed + 3));
  const auto knn = bench::RunCompared(
      broadcasts, sim::Workload::Knn(points, 10), bench::Par(opt.seed + 4));

  std::cout << "Absolute metrics, bytes x10^3:\n";
  sim::TablePrinter t({"Query", "Lat(DSI)", "Lat(Rtree)", "Lat(HCI)",
                       "Tun(DSI)", "Tun(Rtree)", "Tun(HCI)"});
  t.PrintHeader();
  bench::PrintCompared(t, "Window", win);
  bench::PrintCompared(t, "10NN", knn);

  std::cout << "\nDSI as % of baseline (paper, window: 59.7% of R-tree / "
               "50.5% of HCI latency; 75.2% / 41.5% tuning):\n";
  sim::TablePrinter p({"Query", "Lat/Rtree%", "Lat/HCI%", "Tun/Rtree%",
                       "Tun/HCI%"});
  p.PrintHeader();
  for (const auto& [query, m] :
       {std::pair{"Window", win}, std::pair{"10NN", knn}}) {
    const sim::AvgMetrics& d = *m[0];
    const sim::AvgMetrics& r = *m[1];
    const sim::AvgMetrics& h = *m[2];
    p.PrintRow(query, d.latency_bytes / r.latency_bytes * 100.0,
               d.latency_bytes / h.latency_bytes * 100.0,
               d.tuning_bytes / r.tuning_bytes * 100.0,
               d.tuning_bytes / h.tuning_bytes * 100.0);
  }
  return 0;
}
