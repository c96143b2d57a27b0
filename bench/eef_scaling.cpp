/// Scaling of energy-efficient forwarding (Section 3.2): the paper argues
/// EEF "is logically like a binary search" — the number of index tables a
/// point query touches should grow logarithmically with the number of
/// objects. This bench sweeps the dataset size and reports hops, tables
/// read, tuning and latency (latency is linear in N: the cycle itself
/// grows).

#include <cmath>
#include <iostream>

#include "dsi/client.hpp"
#include "bench_common.hpp"

// A hand-built DsiIndex: the bench drives 1-D DsiClient point lookups.

int main(int argc, char** argv) {
  using namespace dsi;
  const bench::Options opt = bench::ParseOptions(argc, argv);

  std::cout << "EEF scaling: point queries vs. dataset size "
            << "(capacity=64B, " << opt.queries << " queries/point)\n\n";
  sim::TablePrinter t({"N", "log2(N)", "AvgHops", "AvgTables",
                       "Tun(KiB)", "Lat(cycles)"});
  t.PrintHeader();

  for (const size_t n : {1000u, 4000u, 10000u, 20000u, 40000u}) {
    const auto objects =
        datasets::MakeUniform(n, datasets::UnitUniverse(), opt.seed);
    const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                      hilbert::ChooseOrder(n));
    const core::DsiIndex index(objects, mapper, 64, core::DsiConfig{});
    common::Rng rng(opt.seed + 1);
    double hops = 0.0;
    double tables = 0.0;
    double tuning = 0.0;
    double cycles = 0.0;
    for (size_t q = 0; q < opt.queries; ++q) {
      const auto& target = index.sorted_objects()[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1))];
      broadcast::ClientSession session(
          index.program(),
          static_cast<uint64_t>(rng.UniformInt(
              0, static_cast<int64_t>(index.program().cycle_packets()) - 1)),
          broadcast::ErrorModel{}, rng.Fork());
      core::DsiClient client(index, &session);
      (void)client.PointQuery(target.location);
      hops += static_cast<double>(client.hops());
      tables += static_cast<double>(client.stats().index_reads);
      tuning += static_cast<double>(session.metrics().tuning_bytes);
      cycles += static_cast<double>(session.metrics().access_latency_bytes) /
                static_cast<double>(index.program().cycle_bytes());
    }
    const auto qd = static_cast<double>(opt.queries);
    t.PrintRow(n, std::log2(static_cast<double>(n)), hops / qd, tables / qd,
               tuning / qd / 1024.0, cycles / qd);
  }
  std::cout << "\nExpected: hops/tables track log2(N) (a few extra for "
               "landing offsets); latency stays a constant fraction of the "
               "cycle.\n";
  return 0;
}
