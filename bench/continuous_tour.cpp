/// Continuous moving-client bench: the paper's motivating scenario
/// measured end to end. Persistent clients ride the broadcast along
/// random-waypoint tours and re-evaluate a window query at every step;
/// the engine's built-in cold baseline re-runs each step with a fresh
/// client at the same instant, so every data point reports the price of
/// tuning in cold — and the savings cross-query knowledge reuse buys.
///
///   (a) cost per re-evaluation vs step size (how far the client moves
///       between queries): the closer consecutive queries are, the more
///       of the previous answer's knowledge still applies;
///   (b) cost per re-evaluation vs stream length: longer streams amortize
///       the client's accumulated knowledge over more queries;
///   (c) clean vs lossy channel (kPerBucketLoss): reuse also removes
///       re-exposure to loss — what you do not re-listen to cannot be
///       corrupted.
///
/// All four families. Extra knobs: --clients=N --steps=N --theta=T.
/// Besides the aligned tables, machine-readable series go to
/// BENCH_continuous_tour.json (schema in bench/README.md).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/trajectory.hpp"

namespace {

struct JsonRow {
  std::string family;
  std::string sweep;
  double x = 0.0;
  dsi::sim::TrajectoryMetrics m;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dsi;
  size_t clients = 20;
  size_t steps = 12;
  double lossy_theta = 0.5;
  const bench::Options opt = bench::ParseOptions(
      argc, argv, {},
      {{"--clients", &clients}, {"--steps", &steps}, {"--theta", &lossy_theta}});

  const auto objects = bench::MakeDataset(opt);
  const auto u = datasets::UnitUniverse();
  const hilbert::SpaceMapper mapper(u, bench::OrderFor(opt));
  constexpr size_t kCapacity = 128;

  std::vector<air::FamilyBroadcast> broadcasts;
  std::vector<const air::AirIndexHandle*> families;
  for (const air::Family family : air::kFamilies) {
    broadcasts.push_back(bench::Broadcast(family, objects, mapper, kCapacity));
    families.push_back(&broadcasts.back().handle(0));
  }

  std::vector<JsonRow> json_rows;
  auto run = [&](const air::AirIndexHandle& h, double speed, size_t nsteps,
                 double theta, const char* sweep, double x) {
    datasets::TrajectoryParams params;
    params.model = datasets::TrajectoryModel::kRandomWaypoint;
    params.speed = speed;
    sim::TrajectoryWorkload wl = sim::MakeTrajectoryWorkload(
        sim::QueryKind::kWindow, clients, nsteps, params, u, opt.seed + 7);
    wl.window_side = 0.1 * u.Width();
    wl.theta = theta;
    wl.error_mode = broadcast::ErrorMode::kPerBucketLoss;
    wl.pace_packets = h.program().cycle_packets() / 4;
    const sim::TrajectoryMetrics m =
        sim::RunTrajectories(h, wl, sim::TrajectoryOptions{opt.seed, 0});
    json_rows.push_back(JsonRow{std::string(h.family()), sweep, x, m});
    return m;
  };

  std::cout << "Continuous moving clients ("
            << (opt.real ? "REAL-like" : "UNIFORM") << ", " << objects.size()
            << " objects, " << clients << " clients x " << steps
            << " steps, window side 0.1)\n\n";

  std::cout << "(a) Tuning bytes x10^3 per re-evaluation vs step size "
               "(clean channel; cold = fresh client per step):\n";
  sim::TablePrinter ta({"Step size", "DSI", "DSI cold", "R-tree",
                        "Rt cold", "HCI", "HCI cold", "Exp", "Exp cold"},
                       11);
  ta.PrintHeader();
  for (const double speed : {0.01, 0.05, 0.1, 0.2}) {
    std::vector<double> cells;
    for (const air::AirIndexHandle* h : families) {
      const sim::TrajectoryMetrics m =
          run(*h, speed, steps, 0.0, "step_size", speed);
      cells.push_back(m.tuning_bytes / 1e3);
      cells.push_back(m.cold_tuning_bytes / 1e3);
    }
    ta.PrintRow(speed, cells[0], cells[1], cells[2], cells[3], cells[4],
                cells[5], cells[6], cells[7]);
  }

  std::cout << "\n(b) Tuning savings % vs stream length (clean channel, "
               "step size 0.05):\n";
  sim::TablePrinter tb({"Steps", "DSI", "R-tree", "HCI", "Exp"}, 12);
  tb.PrintHeader();
  for (const size_t n : {size_t{2}, size_t{4}, size_t{8}, size_t{16},
                         size_t{32}}) {
    std::vector<double> cells;
    for (const air::AirIndexHandle* h : families) {
      cells.push_back(
          run(*h, 0.05, n, 0.0, "stream_length", static_cast<double>(n))
              .TuningSavingsPct());
    }
    tb.PrintRow(n, cells[0], cells[1], cells[2], cells[3]);
  }

  std::cout << "\n(c) Tuning bytes x10^3 per re-evaluation, clean vs lossy "
               "(theta = " << lossy_theta << ", per-bucket loss):\n";
  sim::TablePrinter tc({"Family", "Warm", "Cold", "Warm lossy",
                        "Cold lossy", "Savings%", "Lossy sav%"},
                       13);
  tc.PrintHeader();
  for (const air::AirIndexHandle* h : families) {
    const sim::TrajectoryMetrics clean =
        run(*h, 0.05, steps, 0.0, "clean", 0.0);
    const sim::TrajectoryMetrics lossy =
        run(*h, 0.05, steps, lossy_theta, "lossy", lossy_theta);
    tc.PrintRow(std::string(h->family()), clean.tuning_bytes / 1e3,
                clean.cold_tuning_bytes / 1e3, lossy.tuning_bytes / 1e3,
                lossy.cold_tuning_bytes / 1e3, clean.TuningSavingsPct(),
                lossy.TuningSavingsPct());
  }

  std::ofstream json("BENCH_continuous_tour.json");
  json << "{\n  \"config\": {\"objects\": " << objects.size()
       << ", \"clients\": " << clients << ", \"steps\": " << steps
       << ", \"seed\": " << opt.seed << "},\n  \"results\": [\n";
  for (size_t i = 0; i < json_rows.size(); ++i) {
    const JsonRow& r = json_rows[i];
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "    {\"family\": \"%s\", \"sweep\": \"%s\", \"x\": %g, "
        "\"warm_tuning_bytes\": %.1f, \"cold_tuning_bytes\": %.1f, "
        "\"warm_latency_bytes\": %.1f, \"cold_latency_bytes\": %.1f, "
        "\"tuning_savings_pct\": %.2f, \"steps\": %zu, \"incomplete\": "
        "%zu}%s\n",
        r.family.c_str(), r.sweep.c_str(), r.x, r.m.tuning_bytes,
        r.m.cold_tuning_bytes, r.m.latency_bytes, r.m.cold_latency_bytes,
        r.m.TuningSavingsPct(), r.m.steps, r.m.incomplete,
        i + 1 < json_rows.size() ? "," : "");
    json << line;
  }
  json << "  ]\n}\n";
  std::cout << "\nwrote BENCH_continuous_tour.json (" << json_rows.size()
            << " series points)\n";
  return 0;
}
