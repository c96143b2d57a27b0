/// Ablation (EXPERIMENTS.md, Deviations #4): the paper's theta is only
/// described as "the percentage of link errors". This bench contrasts the
/// two implementable readings — i.i.d. per-read bucket loss vs. a single
/// error event per query — on window queries, showing why the i.i.d.
/// reading cannot be what produced Table 1 (its penalties are an order of
/// magnitude beyond the paper's) while the single-event model lands in the
/// paper's regime.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsi;
  const bench::Options opt = bench::ParseOptions(argc, argv);
  const auto objects = bench::MakeDataset(opt);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    bench::OrderFor(opt));
  constexpr size_t kCapacity = 64;
  const auto windows = sim::MakeWindowWorkload(
      opt.queries, 0.1, datasets::UnitUniverse(), opt.seed + 1);

  const auto dsi =
      bench::Broadcast(air::Family::kDsi, objects, mapper, kCapacity);
  const auto hci =
      bench::Broadcast(air::Family::kHci, objects, mapper, kCapacity);
  const air::AirIndexHandle& hd = dsi.handle(0);
  const air::AirIndexHandle& hh = hci.handle(0);

  std::cout << "Ablation: link-error models, window query latency "
            << "deterioration in % (capacity=64B, " << objects.size()
            << " objects)\n\n";
  sim::TablePrinter t({"theta", "DSI(event)", "HCI(event)", "DSI(iid)",
                       "HCI(iid)"});
  t.PrintHeader();
  using broadcast::ErrorMode;
  using sim::AvgMetrics;
  const auto run = [&](const air::AirIndexHandle& h, double theta,
                       ErrorMode mode) {
    return sim::RunWorkload(h, sim::Workload::Window(windows, theta, mode),
                            bench::Par(opt.seed + 2));
  };
  const auto d0e = run(hd, 0.0, ErrorMode::kSingleEvent);
  const auto h0e = run(hh, 0.0, ErrorMode::kSingleEvent);
  for (const double theta : {0.2, 0.5, 0.7}) {
    const auto de = run(hd, theta, ErrorMode::kSingleEvent);
    const auto he = run(hh, theta, ErrorMode::kSingleEvent);
    const auto di = run(hd, theta, ErrorMode::kPerReadLoss);
    const auto hi = run(hh, theta, ErrorMode::kPerReadLoss);
    t.PrintRow(theta,
               AvgMetrics::DeteriorationPct(de.latency_bytes, d0e.latency_bytes),
               AvgMetrics::DeteriorationPct(he.latency_bytes, h0e.latency_bytes),
               AvgMetrics::DeteriorationPct(di.latency_bytes, d0e.latency_bytes),
               AvgMetrics::DeteriorationPct(hi.latency_bytes, h0e.latency_bytes));
  }
  std::cout << "\nExpected: single-event deterioration stays within tens of "
               "percent (the paper's Table 1 regime); i.i.d. per-read loss "
               "explodes into hundreds/thousands of percent because every "
               "lost data frame costs a revisit cycle.\n";
  return 0;
}
