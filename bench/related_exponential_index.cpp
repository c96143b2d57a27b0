/// Related-work check (paper §2.2): DSI is the 2-D generalization of the
/// exponential index [16]. Running both over the *same* key sequence (the
/// dataset's Hilbert values) on identical channels, point lookups should
/// cost nearly the same — the DSI machinery adds only the spatial mapping.

#include <iostream>

#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "bench_common.hpp"
#include "dsi/client.hpp"
#include "expindex/expindex.hpp"

// Hand-built indexes: the bench drives 1-D DsiClient and ExpClient lookups.

int main(int argc, char** argv) {
  using namespace dsi;
  const bench::Options opt = bench::ParseOptions(argc, argv);
  const auto objects = bench::MakeDataset(opt);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    bench::OrderFor(opt));
  constexpr size_t kCapacity = 64;

  // DSI with the original (m = 1) broadcast order.
  const core::DsiIndex dsi(objects, mapper, kCapacity, bench::DsiOriginal());

  // Exponential index over the very same Hilbert keys; match DSI's compact
  // table field width for a fair table size.
  std::vector<uint64_t> keys;
  keys.reserve(objects.size());
  for (const auto& o : objects) keys.push_back(mapper.PointToIndex(o.location));
  expindex::ExpConfig cfg;
  cfg.key_bytes = dsi.table_hc_bytes();
  const expindex::ExpIndex exp(keys, kCapacity, cfg);

  std::cout << "Related work: DSI (m=1) vs. exponential index over the "
            << "same " << objects.size() << " Hilbert keys (capacity=64B, "
            << opt.queries << " queries)\n\n";

  common::Rng rng(opt.seed + 1);
  double dsi_lat = 0, dsi_tun = 0, exp_lat = 0, exp_tun = 0;
  for (size_t q = 0; q < opt.queries; ++q) {
    const auto& target = dsi.sorted_objects()[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(objects.size()) - 1))];
    const auto tune_in = static_cast<uint64_t>(rng.UniformInt(
        0, static_cast<int64_t>(dsi.program().cycle_packets()) - 1));
    {
      broadcast::ClientSession s(dsi.program(), tune_in,
                                 broadcast::ErrorModel{}, common::Rng(q + 1));
      core::DsiClient c(dsi, &s);
      (void)c.PointQuery(target.location);
      dsi_lat += static_cast<double>(s.metrics().access_latency_bytes);
      dsi_tun += static_cast<double>(s.metrics().tuning_bytes);
    }
    {
      broadcast::ClientSession s(exp.program(), tune_in,
                                 broadcast::ErrorModel{}, common::Rng(q + 1));
      expindex::ExpClient c(exp, &s);
      (void)c.Lookup(mapper.PointToIndex(target.location));
      exp_lat += static_cast<double>(s.metrics().access_latency_bytes);
      exp_tun += static_cast<double>(s.metrics().tuning_bytes);
    }
  }
  const auto qd = static_cast<double>(opt.queries);
  sim::TablePrinter t({"Index", "Lat(x10^3)", "Tun(x10^3)"});
  t.PrintHeader();
  t.PrintRow("DSI m=1", dsi_lat / qd / 1e3, dsi_tun / qd / 1e3);
  t.PrintRow("ExpIndex", exp_lat / qd / 1e3, exp_tun / qd / 1e3);
  std::cout << "\nExpected: near-identical costs — the exponential index IS "
               "DSI's forwarding structure on a 1-D key axis; DSI adds the "
               "Hilbert mapping (and, separately, reorganization) to serve "
               "spatial queries.\n";

  // Spatial queries through the unified engine: the ExpHandle adapter
  // answers window queries by 1-D range scans over the Hilbert key axis,
  // which quantifies what DSI's native spatial reasoning is worth.
  const air::ExpHandle exp_air(objects, mapper, kCapacity, cfg);
  const auto windows = sim::MakeWindowWorkload(
      opt.queries, 0.1, datasets::UnitUniverse(), opt.seed + 2);
  const auto workload = sim::Workload::Window(windows);
  const auto md = sim::RunWorkload(air::DsiHandle(dsi), workload,
                                   bench::Par(opt.seed + 3));
  const auto me = sim::RunWorkload(exp_air, workload,
                                   bench::Par(opt.seed + 3));
  std::cout << "\nWindow queries (ratio 0.1) through the same engine:\n";
  sim::TablePrinter w({"Index", "Lat(x10^3)", "Tun(x10^3)"});
  w.PrintHeader();
  w.PrintRow("DSI m=1", md.latency_bytes / 1e3, md.tuning_bytes / 1e3);
  w.PrintRow("ExpIndex", me.latency_bytes / 1e3, me.tuning_bytes / 1e3);
  return 0;
}
