/// \file perf_smoke.cpp
/// \brief Host-side throughput smoke harness: runs fixed fig9-style window
/// and fig11-style kNN workloads across all four index families and an
/// objects-scaling ladder, measures wall-clock queries/sec, and emits
/// machine-readable BENCH_perf.json so the perf trajectory of the query hot
/// path is tracked PR over PR.
///
/// The simulated byte metrics (access latency / tuning) are printed next to
/// the throughput: they must stay bit-identical across optimization PRs and
/// worker counts, which is what makes the queries/sec numbers comparable.
///
///   perf_smoke [--queries=N] [--max-objects=N] [--workers=N] [--repeats=N]
///              [--traj-clients=N] [--out=PATH] [--append]
///
/// JSON schema (BENCH_perf.json):
///   {
///     "results": [
///       {"build": "native"|"scalar", "family": "dsi",
///        "workload": "window", "objects": N, "queries": N,
///        "seconds": S, "qps": Q,
///        "avg_latency_bytes": L, "avg_tuning_bytes": T}, ...
///     ]
///   }
/// "build" records the library's codegen flavor (native = -march=native via
/// -DDSI_NATIVE=ON, scalar = portable); the checked-in artifact carries one
/// block of each, produced by running the tool once per build with --append
/// on the second run (which splices new rows into an existing file instead
/// of truncating it).
///
/// The ladder runs objects = 10^4..--max-objects (x10 per rung). Queries
/// per rung shrink as 2000/{1,5,31,125} so every rung costs roughly the
/// same wall-clock; byte metrics stay exact averages over whatever count a
/// rung runs. qps is the best (max) rate over the repeats; seconds is that
/// repeat's wall-clock. Byte metrics are identical across repeats by
/// construction.
///
/// Each rung also emits one "window-decomp" row: the Hilbert window
/// decomposition microbench (SpaceMapper::WindowToRanges over 20000 fresh
/// windows, no broadcast simulation). It isolates the query-planning hot
/// path from the air-simulation loop; byte metrics are 0 by construction
/// and qps counts decompositions per second at that rung's curve order.
///
/// Besides the per-query series, an optional clients-scaling series
/// (workload "clients-N", populations 10^3 up to --traj-clients, off by
/// default) runs churned moving-client populations through the
/// event-driven scheduler engine (sim::TrajectoryEngine::kScheduler, warm
/// path only); there qps counts executed re-evaluations per second.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "air/family.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/runner.hpp"
#include "sim/trajectory.hpp"
#include "sim/workload.hpp"

namespace {

using namespace dsi;

#ifdef DSI_BUILD_NATIVE
constexpr const char* kBuild = "native";
#else
constexpr const char* kBuild = "scalar";
#endif

struct Options {
  size_t queries = 2000;          // base count; rungs divide it down
  size_t max_objects = 10000000;  // ladder cap (10^4 x10 per rung)
  size_t workers = 0;             // 0 = one per hardware thread
  size_t repeats = 3;
  size_t traj_clients = 0;  // clients-scaling series ladder cap (0 = off)
  std::string out = "BENCH_perf.json";
  bool append = false;
};

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--queries=", 0) == 0) {
      opt.queries = std::stoul(arg.substr(10));
    } else if (arg.rfind("--max-objects=", 0) == 0) {
      opt.max_objects = std::stoul(arg.substr(14));
    } else if (arg.rfind("--objects=", 0) == 0) {  // legacy alias
      opt.max_objects = std::stoul(arg.substr(10));
    } else if (arg.rfind("--workers=", 0) == 0) {
      opt.workers = std::stoul(arg.substr(10));
    } else if (arg.rfind("--repeats=", 0) == 0) {
      opt.repeats = std::stoul(arg.substr(10));
    } else if (arg.rfind("--traj-clients=", 0) == 0) {
      opt.traj_clients = std::stoul(arg.substr(15));
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out = arg.substr(6);
    } else if (arg == "--append") {
      opt.append = true;
    }
  }
  return opt;
}

struct Result {
  std::string family;
  std::string workload;
  size_t objects = 0;
  size_t queries = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double avg_latency_bytes = 0.0;
  double avg_tuning_bytes = 0.0;
};

Result Measure(const air::AirIndexHandle& handle, const sim::Workload& wl,
               const char* workload_name, size_t objects, const Options& opt) {
  Result r;
  r.family = std::string(handle.family());
  r.workload = workload_name;
  r.objects = objects;
  const sim::RunOptions run{/*seed=*/42, /*workers=*/opt.workers};
  for (size_t rep = 0; rep < opt.repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const sim::AvgMetrics m = sim::RunWorkload(handle, wl, run);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double qps = secs > 0.0 ? static_cast<double>(m.queries) / secs : 0.0;
    if (qps > r.qps) {
      r.qps = qps;
      r.seconds = secs;
    }
    r.queries = m.queries;
    r.avg_latency_bytes = m.latency_bytes;
    r.avg_tuning_bytes = m.tuning_bytes;
  }
  return r;
}

/// Hilbert window-decomposition microbench: planning only, no air loop.
Result MeasureDecomp(const hilbert::SpaceMapper& mapper, size_t objects,
                     const Options& opt) {
  constexpr size_t kDecompQueries = 20000;
  const auto windows = sim::MakeWindowWorkload(
      kDecompQueries, 0.1, datasets::UnitUniverse(), 43);
  Result r;
  r.family = "dsi";
  r.workload = "window-decomp";
  r.objects = objects;
  r.queries = kDecompQueries;
  std::vector<hilbert::HcRange> ranges;
  size_t sink = 0;  // defeats dead-code elimination of the decomposition
  for (size_t rep = 0; rep < opt.repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const common::Rect& w : windows) {
      mapper.WindowToRanges(w, &ranges);
      sink += ranges.size();
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double qps =
        secs > 0.0 ? static_cast<double>(kDecompQueries) / secs : 0.0;
    if (qps > r.qps) {
      r.qps = qps;
      r.seconds = secs;
    }
  }
  if (sink == 0) std::fprintf(stderr, "window-decomp: empty decompositions\n");
  return r;
}

std::string RenderRows(const std::vector<Result>& results, bool last_block) {
  std::ostringstream out;
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"build\": \"%s\", \"family\": \"%s\", "
                  "\"workload\": \"%s\", \"objects\": %zu, \"queries\": %zu, "
                  "\"seconds\": %.6f, \"qps\": %.1f, "
                  "\"avg_latency_bytes\": %.6f, \"avg_tuning_bytes\": %.6f}%s",
                  kBuild, r.family.c_str(), r.workload.c_str(), r.objects,
                  r.queries, r.seconds, r.qps, r.avg_latency_bytes,
                  r.avg_tuning_bytes,
                  i + 1 < results.size() || !last_block ? ",\n" : "\n");
    out << line;
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  constexpr size_t kCapacity = 64;  // fig9's mid column
  std::vector<Result> results;

  // Queries shrink with the rung so every rung costs comparable wall-clock
  // (the simulated cycle grows linearly with the object count).
  const size_t divisors[] = {1, 5, 31, 125};
  size_t rung = 0;
  for (size_t objects = 10000; objects <= opt.max_objects;
       objects *= 10, ++rung) {
    const size_t queries =
        std::max<size_t>(1, opt.queries /
                                divisors[std::min<size_t>(rung, 3)]);
    const air::Generations gens{
        {datasets::MakeUniform(objects, datasets::UnitUniverse(), 42)}, {}};
    const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                      hilbert::ChooseOrder(objects));

    core::DsiConfig cfg;
    cfg.num_segments = 2;  // the paper's reorganized broadcast
    std::vector<air::FamilyBroadcast> broadcasts;
    for (const air::Family family : air::kFamilies) {
      broadcasts.emplace_back(family, gens, mapper, kCapacity, cfg);
    }
    const air::AirIndexHandle& dsi_air = broadcasts.front().handle(0);

    // fig9-style window workload (WinSideRatio = 0.1) and fig11-style kNN.
    const auto window_wl = sim::Workload::Window(
        sim::MakeWindowWorkload(queries, 0.1, datasets::UnitUniverse(), 43));
    const auto knn_wl = sim::Workload::Knn(
        sim::MakeKnnWorkload(queries, datasets::UnitUniverse(), 44), 10);

    for (const air::FamilyBroadcast& b : broadcasts) {
      const air::AirIndexHandle& h = b.handle(0);
      results.push_back(Measure(h, window_wl, "window", objects, opt));
      results.push_back(Measure(h, knn_wl, "knn", objects, opt));
    }
    results.push_back(MeasureDecomp(mapper, objects, opt));

    // Clients-scaling series: churned moving-client populations through
    // the event-driven scheduler engine, DSI family, smallest rung only.
    // qps = executed re-evaluations per second.
    if (rung == 0) {
      const uint64_t cycle = dsi_air.program().cycle_packets();
      for (size_t clients = 1000; clients <= opt.traj_clients;
           clients *= 10) {
        datasets::TrajectoryParams params;
        sim::TrajectoryWorkload twl = sim::MakeTrajectoryWorkload(
            sim::QueryKind::kWindow, clients, 3, params,
            datasets::UnitUniverse(), 45);
        twl.window_side = 0.05;
        twl.pace_packets = cycle / 2;
        twl.churn = datasets::MakeChurnStream(clients, 4 * cycle, 0.3, 46);
        sim::TrajectoryOptions topt;
        topt.seed = 42;
        topt.workers = opt.workers;
        topt.cold_baseline = false;
        topt.engine = sim::TrajectoryEngine::kScheduler;
        Result r;
        r.family = "dsi";
        r.workload = "clients-" + std::to_string(clients);
        r.objects = objects;
        for (size_t rep = 0; rep < opt.repeats; ++rep) {
          const auto t0 = std::chrono::steady_clock::now();
          const sim::TrajectoryMetrics m =
              sim::RunTrajectories(dsi_air, twl, topt);
          const double secs = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
          const double sps =
              secs > 0.0 ? static_cast<double>(m.steps) / secs : 0.0;
          if (sps > r.qps) {
            r.qps = sps;
            r.seconds = secs;
          }
          r.queries = m.steps;
          r.avg_latency_bytes = m.latency_bytes;
          r.avg_tuning_bytes = m.tuning_bytes;
        }
        results.push_back(r);
      }
    }
  }

  if (opt.append) {
    // Splice this build's rows into an existing artifact: drop the closing
    // "  ]\n}" of the results array, terminate the previous row with a
    // comma, and re-close.
    std::ifstream in(opt.out);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string existing = buf.str();
    const size_t close = existing.rfind("  ]");
    if (in.good() && close != std::string::npos) {
      std::string head = existing.substr(0, close);
      const size_t last_brace = head.find_last_of('}');
      if (last_brace != std::string::npos) {
        head.insert(last_brace + 1, ",");
        // The previous last row now ends ",\n"; ours closes the array.
        std::ofstream json(opt.out);
        json << head << RenderRows(results, /*last_block=*/true)
             << "  ]\n}\n";
        json.close();
      }
    } else {
      std::fprintf(stderr, "--append: %s missing or malformed, rewriting\n",
                   opt.out.c_str());
      std::ofstream json(opt.out);
      json << "{\n  \"results\": [\n"
           << RenderRows(results, /*last_block=*/true) << "  ]\n}\n";
      json.close();
    }
  } else {
    std::ofstream json(opt.out);
    json << "{\n  \"results\": [\n"
         << RenderRows(results, /*last_block=*/true) << "  ]\n}\n";
    json.close();
  }

  std::cout << "perf_smoke [" << kBuild << "]: objects 10^4.."
            << opt.max_objects << " x {window,knn,window-decomp}, capacity "
            << kCapacity << "\n";
  for (const Result& r : results) {
    std::printf("%-9s %-13s %9zu obj %10.1f q/s  (%.3fs)  lat=%.1f tun=%.1f\n",
                r.family.c_str(), r.workload.c_str(), r.objects, r.qps,
                r.seconds, r.avg_latency_bytes, r.avg_tuning_bytes);
  }
  std::cout << "wrote " << opt.out << "\n";
  return 0;
}
