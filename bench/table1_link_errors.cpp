/// Reproduces Table 1: performance deterioration (percent vs. the lossless
/// channel) of window and 10NN queries under link-error rates
/// theta in {0.2, 0.5, 0.7} for HCI, R-tree and DSI. Uses the paper-
/// calibrated single-event error model (see broadcast::ErrorMode).

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsi;
  const bench::Options opt = bench::ParseOptions(argc, argv);
  const auto objects = bench::MakeDataset(opt);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    bench::OrderFor(opt));
  constexpr size_t kCapacity = 64;
  constexpr auto kMode = broadcast::ErrorMode::kSingleEvent;
  const auto windows = sim::MakeWindowWorkload(
      opt.queries, 0.1, datasets::UnitUniverse(), opt.seed + 1);
  const auto points =
      sim::MakeKnnWorkload(opt.queries, datasets::UnitUniverse(), opt.seed + 2);

  std::cout << "Table 1: deterioration (%) in error-prone environments ("
            << (opt.real ? "REAL-like" : "UNIFORM") << ", " << objects.size()
            << " objects, capacity=64B, " << opt.queries
            << " queries/point, single-event error model)\n\n";

  // One descriptor per kind, theta mutated per data point (the query
  // vectors are copied once, not per run).
  auto win = sim::Workload::Window(windows, 0.0, kMode);
  auto knn = sim::Workload::Knn(points, 10, air::KnnStrategy::kConservative,
                                0.0, kMode);
  const auto wopt = bench::Par(opt.seed + 3);
  const auto kopt = bench::Par(opt.seed + 4);

  sim::TablePrinter t({"Index/theta", "WinLat%", "WinTun%", "10NNLat%",
                       "10NNTun%"});
  t.PrintHeader();
  using sim::AvgMetrics;
  for (const air::Family family :
       {air::Family::kHci, air::Family::kRtree, air::Family::kDsi}) {
    const auto b = bench::Broadcast(family, objects, mapper, kCapacity);
    const air::AirIndexHandle& handle = b.handle(0);
    // Lossless baselines.
    win.theta = knn.theta = 0.0;
    const auto w0 = sim::RunWorkload(handle, win, wopt);
    const auto k0 = sim::RunWorkload(handle, knn, kopt);
    for (const double theta : {0.2, 0.5, 0.7}) {
      win.theta = knn.theta = theta;
      const auto w = sim::RunWorkload(handle, win, wopt);
      const auto k = sim::RunWorkload(handle, knn, kopt);
      t.PrintRow(std::string(bench::Label(family)) + " " +
                     std::to_string(theta).substr(0, 3),
                 AvgMetrics::DeteriorationPct(w.latency_bytes, w0.latency_bytes),
                 AvgMetrics::DeteriorationPct(w.tuning_bytes, w0.tuning_bytes),
                 AvgMetrics::DeteriorationPct(k.latency_bytes, k0.latency_bytes),
                 AvgMetrics::DeteriorationPct(k.tuning_bytes, k0.tuning_bytes));
    }
  }
  std::cout << "\nExpected shape (paper): deterioration grows with theta "
               "for every index; DSI deteriorates least (e.g. paper window "
               "latency at 0.7: DSI 13.9% vs HCI 29.0% vs R-tree 62.4%).\n";
  return 0;
}
