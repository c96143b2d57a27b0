/// \file main.cpp
/// \brief The benchmark binary (normally launched by perfbench/run.py).
///
///   perfbench --workload oneshot-1e5|city-dyn|live-loopback --seed N
///             --seconds S --trace 0|1 [--out-dir DIR]
///
/// Prints progress and tables on stderr and, as the last stdout line, one
/// JSON object {"correct", "attempted", "failed", "metrics"}: the
/// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
/// Exits 1 when a correctness check failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::max(1, std::atoi(val.c_str()));
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--out-dir") {
      args.out_dir = val;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }

  Report report;
  SpanRecorder rec(args.trace);
  const uint64_t t0 = NowNs();
  if (args.workload == "oneshot-1e5") {
    RunOneshot(args, &report, &rec);
  } else if (args.workload == "city-dyn") {
    RunCity(args, &report, &rec);
  } else if (args.workload == "live-loopback") {
    RunLive(args, &report, &rec);
  } else {
    std::fprintf(stderr,
                 "perfbench: --workload must be oneshot-1e5, city-dyn or "
                 "live-loopback\n");
    return 2;
  }
  report.ScaleToReferenceSpeed();
  report.Set("ok_frac", report.ok_frac());
  report.Set("peak_rss_mb", static_cast<double>(PeakRssBytes()) / 1e6);

  if (args.trace) {
    rec.PrintSummary();
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    if (rec.Write(path)) {
      Note("spans: %zu written to %s", rec.spans().size(), path.c_str());
    } else {
      Note("spans: could not write %s", path.c_str());
    }
  }
  Note("%s seed %llu: %llu operations, %llu failed, %.1f s", args.workload.c_str(),
       static_cast<unsigned long long>(args.seed),
       static_cast<unsigned long long>(report.attempted()),
       static_cast<unsigned long long>(report.failed()), SecondsSince(t0));
  std::fflush(stderr);
  std::printf("%s\n", report.Json(args.trace ? PerLayerMetrics()
                                             : EndToEndMetrics())
                          .c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
