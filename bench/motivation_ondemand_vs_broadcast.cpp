/// The paper's introduction in numbers: "On-demand access is good for
/// light-loaded systems...; Broadcast, allowing an arbitrary number of
/// users to access data simultaneously, is suitable for heavy-loaded
/// systems". This bench sweeps the query arrival rate: the on-demand
/// server's mean response time grows without bound as it saturates, while
/// the broadcast latency is load-independent (every listener shares the
/// same cycle). Prints the crossover.

#include <iostream>

#include "bench_common.hpp"
#include "ondemand/ondemand.hpp"

int main(int argc, char** argv) {
  using namespace dsi;
  const bench::Options opt = bench::ParseOptions(argc, argv);
  const auto objects = bench::MakeDataset(opt);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    bench::OrderFor(opt));
  const auto dsi = bench::Broadcast(air::Family::kDsi, objects, mapper, 64);

  // Broadcast side: window queries, load-independent by construction.
  const auto windows = sim::MakeWindowWorkload(
      opt.queries, 0.1, datasets::UnitUniverse(), opt.seed + 1);
  const auto broadcast_m =
      sim::RunWorkload(dsi.handle(0), sim::Workload::Window(windows),
                       bench::Par(opt.seed + 2));
  double avg_results = 0.0;
  {
    size_t total = 0;
    for (const auto& w : windows) {
      for (const auto& o : objects) {
        if (w.Contains(o.location)) ++total;
      }
    }
    avg_results = static_cast<double>(total) / windows.size();
  }

  ondemand::OnDemandConfig cfg;
  std::cout << "Motivation: on-demand vs. broadcast under load ("
            << objects.size() << " objects, window ratio 0.1, avg "
            << avg_results << " results/query)\n\n";
  std::cout << "Mean response time in bytes x10^3 of channel time "
               "(broadcast constant: "
            << broadcast_m.latency_bytes / 1e3 << ")\n\n";
  sim::TablePrinter t({"Load(q/Mb)", "Util%", "OnDemand", "Broadcast",
                       "Winner"});
  t.PrintHeader();
  common::Rng rng(opt.seed + 3);
  for (const double per_mb : {0.5, 2.0, 6.0, 9.0, 9.5, 10.0, 12.0, 16.0}) {
    const double rate = per_mb / 1e6;  // arrivals per byte-time
    auto arrivals = ondemand::MakePoissonArrivals(
        rate, /*horizon=*/5e8, 1,
        static_cast<uint64_t>(2 * avg_results), &rng);
    const auto od = ondemand::SimulateQueue(arrivals, cfg);
    t.PrintRow(per_mb, od.utilization * 100.0,
               od.mean_latency_bytes / 1e3, broadcast_m.latency_bytes / 1e3,
               od.mean_latency_bytes < broadcast_m.latency_bytes
                   ? "on-demand"
                   : "broadcast");
  }
  std::cout << "\nExpected: on-demand wins while the server is lightly "
               "loaded, then saturates (utilization -> 100%) and response "
               "times blow past the load-independent broadcast latency — "
               "the paper's motivating trade-off.\n";
  return 0;
}
