/// \file conformance_fuzz.cpp
/// \brief Differential conformance fuzzer over the broadcast engine.
///
/// Sweep mode (default) replays seed-determined conformance cases — all
/// four index families, lossy channels, reorganized broadcasts, dynamic
/// multi-generation broadcasts with update streams, duplicate-heavy
/// datasets, degenerate queries, and continuous moving-client tours
/// (persistent warm clients checked for result parity against fresh cold
/// clients at every step, plus the per-query tuning <= latency audit;
/// every seed also runs the tours through BOTH simulation cores — the
/// loop oracle and the event-driven scheduler — and diffs them
/// bit-exactly, with churned populations on a quarter of the seeds) —
/// against brute-force oracles:
///
///   conformance_fuzz --seeds=200 [--start=0] [--families=dsi,hci]
///       [--min-generations=3] [--min-updates=2]
///       [--theta=0.5 --error-mode=burst --code-group=2 --code-parity=2]
///       [--clients=8 --churn-rate=0.5]
///       [--num-disks=3 --disk-skew=1.2] [--windows=0]
///
/// --min-generations / --min-updates lift every swept case to at least
/// that many broadcast generations / update ops between generations — the
/// dedicated update-stream sweep CI runs. Passing --theta, --error-mode,
/// --code-group, --code-parity, --clients (moving-client population),
/// --churn-rate, --num-disks, --disk-skew or --windows (random window
/// queries per case) in sweep mode pins that axis across every swept case
/// (the coded-channel, burst-weather, churn, skewed-multi-disk and
/// kNN-focused CI sweeps); axes not pinned keep their
/// seed-determined values. Coding and multi-disk layouts compose: pinning
/// both runs coded multi-disk cycles on every swept case.
///
/// A case fails on any oracle divergence (completed queries are checked
/// against the object set of the generation they answered for) OR — at
/// theta <= 0.7, where every family must finish — any watchdog-aborted
/// query (phantom aborts are how the blocking-recovery bug class
/// manifests). In the extreme-loss band (theta > 0.7) aborts are
/// legitimate; only completed-query correctness and the exact
/// AvgMetrics::incomplete accounting are enforced. The driver then shrinks
/// the failing instance (smaller dataset, lossless channel, static
/// broadcast, serial execution — whatever keeps it failing) and
/// prints a one-line reproducer. Replaying one is repro mode:
///
///   conformance_fuzz --repro --seed=17 --n=64 --order=5 ... --families=dsi
///
/// which runs exactly that instance and prints every divergence in full.
/// Exit code 0 = conformant, 1 = divergence, 2 = bad usage.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "air/family.hpp"
#include "sim/conformance.hpp"

namespace {

using dsi::sim::ConformanceCase;
using dsi::sim::ConformanceReport;
using dsi::sim::Divergence;

struct Args {
  bool repro = false;
  uint64_t seeds = 50;
  uint64_t start = 0;
  std::vector<std::string> families;
  ConformanceCase base;     // repro mode: explicit case
  bool have_seed = false;
  // Sweep-mode floors: force every case onto the dynamic-broadcast axis.
  uint32_t min_generations = 1;
  uint32_t min_updates = 0;
  // Sweep-mode axis pins (set when the flag was given explicitly).
  bool have_theta = false;
  bool have_mode = false;
  bool have_coding = false;
  bool have_clients = false;
  bool have_churn = false;
  bool have_disks = false;
  bool have_windows = false;
};

/// Splits a comma-separated family list, checking each name against the
/// family table. Returns false on an unknown name.
bool SplitFamilies(const std::string& value, std::vector<std::string>* out) {
  size_t pos = 0;
  while (pos < value.size()) {
    const size_t comma = value.find(',', pos);
    const size_t end = comma == std::string::npos ? value.size() : comma;
    if (end > pos) {
      const std::string name = value.substr(pos, end - pos);
      if (!dsi::air::ParseFamily(name)) {
        std::fprintf(stderr, "unknown family: %s\n", name.c_str());
        return false;
      }
      out->push_back(name);
    }
    pos = end + 1;
  }
  return true;
}

bool ParseMode(const std::string& value, dsi::broadcast::ErrorMode* mode) {
  if (value == "read") *mode = dsi::broadcast::ErrorMode::kPerReadLoss;
  else if (value == "event") *mode = dsi::broadcast::ErrorMode::kSingleEvent;
  else if (value == "bucket") *mode = dsi::broadcast::ErrorMode::kPerBucketLoss;
  else if (value == "burst") *mode = dsi::broadcast::ErrorMode::kBurstLoss;
  else return false;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    auto u64 = [&]() { return static_cast<uint64_t>(std::strtoull(value.c_str(), nullptr, 10)); };
    if (key == "--repro") args->repro = true;
    else if (key == "--seeds") args->seeds = u64();
    else if (key == "--start") args->start = u64();
    else if (key == "--families") { if (!SplitFamilies(value, &args->families)) return false; }
    else if (key == "--seed") { args->base.seed = u64(); args->have_seed = true; }
    else if (key == "--n") args->base.n = u64();
    else if (key == "--order") args->base.order = static_cast<int>(u64());
    else if (key == "--capacity") args->base.capacity = u64();
    else if (key == "--clustered") args->base.clustered = u64() != 0;
    else if (key == "--m") args->base.m = static_cast<uint32_t>(u64());
    else if (key == "--object-factor") args->base.object_factor = static_cast<uint32_t>(u64());
    else if (key == "--chunk-size") args->base.chunk_size = static_cast<uint32_t>(u64());
    else if (key == "--theta") { args->base.theta = std::strtod(value.c_str(), nullptr); args->have_theta = true; }
    else if (key == "--error-mode") { if (!ParseMode(value, &args->base.error_mode)) return false; args->have_mode = true; }
    else if (key == "--workers") args->base.workers = u64();
    else if (key == "--windows") { args->base.window_queries = u64(); args->have_windows = true; }
    else if (key == "--knn-points") args->base.knn_points = u64();
    else if (key == "--k") args->base.k = u64();
    else if (key == "--duplicates") args->base.duplicates = u64() != 0;
    else if (key == "--generations") args->base.generations = static_cast<uint32_t>(u64());
    else if (key == "--updates") args->base.updates_per_gen = static_cast<uint32_t>(u64());
    else if (key == "--gen-cycles") args->base.gen_cycles = static_cast<uint32_t>(u64());
    else if (key == "--code-group") { args->base.code_group = static_cast<uint32_t>(u64()); args->have_coding = true; }
    else if (key == "--code-parity") { args->base.code_parity = static_cast<uint32_t>(u64()); args->have_coding = true; }
    else if (key == "--traj-clients" || key == "--clients") { args->base.trajectory_clients = static_cast<uint32_t>(u64()); args->have_clients = true; }
    else if (key == "--traj-steps") args->base.trajectory_steps = static_cast<uint32_t>(u64());
    else if (key == "--churn-rate") { args->base.churn_rate = std::strtod(value.c_str(), nullptr); args->have_churn = true; }
    else if (key == "--num-disks") { args->base.num_disks = static_cast<uint32_t>(u64()); args->have_disks = true; }
    else if (key == "--disk-skew") { args->base.disk_skew = std::strtod(value.c_str(), nullptr); args->have_disks = true; }
    else if (key == "--min-generations") args->min_generations = static_cast<uint32_t>(u64());
    else if (key == "--min-updates") args->min_updates = static_cast<uint32_t>(u64());
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void PrintDivergences(const ConformanceCase& c, const ConformanceReport& r) {
  for (const Divergence& d : r.divergences) {
    std::printf("  DIVERGENCE family=%s workload=%s query=%zu: %s\n",
                d.family.c_str(), d.workload.c_str(), d.query_index,
                d.detail.c_str());
  }
  for (const Divergence& d : r.incomplete_queries) {
    std::printf("  INCOMPLETE family=%s workload=%s query=%zu: %s\n",
                d.family.c_str(), d.workload.c_str(), d.query_index,
                d.detail.c_str());
  }
  std::printf("  checked=%zu incomplete=%zu divergences=%zu\n",
              r.queries_checked, r.incomplete, r.divergences.size());
  (void)c;
}

/// A case fails if any query diverged from the oracle OR — at theta <= 0.7,
/// where every family must finish — was watchdog-aborted (phantom aborts
/// were exactly how the blocking-on-lost-buckets bug class manifested —
/// they must fail CI, not just divergences). Beyond 0.7 aborts are the
/// channel's fault; correctness of completed queries and exact incomplete
/// accounting (checked inside the harness, surfaced as divergences) still
/// apply.
bool CaseFails(const ConformanceCase& c, const ConformanceReport& r) {
  return !r.divergences.empty() || (c.theta <= 0.7 && r.incomplete > 0);
}

/// Greedy shrink: apply each simplification while the (family-restricted)
/// case keeps failing; every accepted step makes the reproducer smaller
/// or more deterministic.
ConformanceCase Shrink(ConformanceCase c,
                       const std::vector<std::string>& families) {
  auto fails = [&](const ConformanceCase& candidate) {
    return CaseFails(candidate, RunConformanceCase(candidate, families));
  };
  // Smaller dataset.
  while (c.n / 2 >= 8) {
    ConformanceCase candidate = c;
    candidate.n = c.n / 2;
    if (!fails(candidate)) break;
    c = candidate;
  }
  // Static broadcast, then fewer updates.
  if (c.generations > 1) {
    ConformanceCase candidate = c;
    candidate.generations = 1;
    candidate.updates_per_gen = 0;
    if (fails(candidate)) c = candidate;
  }
  while (c.generations > 1 && c.updates_per_gen > 1) {
    ConformanceCase candidate = c;
    candidate.updates_per_gen = c.updates_per_gen / 2;
    if (!fails(candidate)) break;
    c = candidate;
  }
  // No moving clients, then shorter tours.
  if (c.trajectory_clients > 0) {
    ConformanceCase candidate = c;
    candidate.trajectory_clients = 0;
    candidate.trajectory_steps = 0;
    if (fails(candidate)) c = candidate;
  }
  while (c.trajectory_clients > 1 || c.trajectory_steps > 2) {
    ConformanceCase candidate = c;
    candidate.trajectory_clients = std::max<uint32_t>(1, c.trajectory_clients / 2);
    candidate.trajectory_steps = std::max<uint32_t>(2, c.trajectory_steps / 2);
    if (candidate.trajectory_clients == c.trajectory_clients &&
        candidate.trajectory_steps == c.trajectory_steps) {
      break;
    }
    if (!fails(candidate)) break;
    c = candidate;
  }
  // Churn-free population (uniform tune-ins, nobody departs).
  if (c.churn_rate != 0.0) {
    ConformanceCase candidate = c;
    candidate.churn_rate = 0.0;
    if (fails(candidate)) c = candidate;
  }
  // Uncoded channel (repairs off, plain broadcast layout).
  if (c.code_group != 0 || c.code_parity != 0) {
    ConformanceCase candidate = c;
    candidate.code_group = 0;
    candidate.code_parity = 0;
    if (fails(candidate)) c = candidate;
  }
  // Flat single-disk cycle (skewed sampling off too: disk_skew drives the
  // query distribution, so the pair shrinks together).
  if (c.num_disks != 1 || c.disk_skew != 0.0) {
    ConformanceCase candidate = c;
    candidate.num_disks = 1;
    candidate.disk_skew = 0.0;
    if (fails(candidate)) c = candidate;
  }
  // Lossless channel.
  if (c.theta != 0.0) {
    ConformanceCase candidate = c;
    candidate.theta = 0.0;
    if (fails(candidate)) c = candidate;
  }
  // Serial execution.
  if (c.workers != 1) {
    ConformanceCase candidate = c;
    candidate.workers = 1;
    if (fails(candidate)) c = candidate;
  }
  // Fewer random queries (degenerates always remain).
  while (c.window_queries > 0 || c.knn_points > 0) {
    ConformanceCase candidate = c;
    candidate.window_queries = c.window_queries / 2;
    candidate.knn_points = c.knn_points / 2;
    if (!fails(candidate)) break;
    c = candidate;
    if (candidate.window_queries == 0 && candidate.knn_points == 0) break;
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  // A hand-edited reproducer line must fail as usage error, not crash.
  if (args.base.n == 0 || args.base.order < 1 || args.base.order > 16 ||
      args.base.capacity < 32 || args.base.theta < 0.0 ||
      args.base.theta > 1.0 || args.base.workers == 0 ||
      args.base.generations == 0 || args.base.gen_cycles == 0 ||
      args.base.code_group + args.base.code_parity > 64 ||
      args.base.churn_rate < 0.0 || args.base.churn_rate > 1.0 ||
      args.base.num_disks < 1 || args.base.num_disks > 3 ||
      args.base.disk_skew < 0.0) {
    std::fprintf(stderr,
                 "invalid case: need --n>=1, 1<=--order<=16, --capacity>=32, "
                 "0<=--theta<=1, --workers>=1, --generations>=1, "
                 "--gen-cycles>=1, --code-group + --code-parity <= 64, "
                 "0<=--churn-rate<=1, 1<=--num-disks<=3, --disk-skew>=0\n");
    return 2;
  }
  // Every requested family (all four when none is named) must build at the
  // case's packet capacity.
  for (const dsi::air::Family family : dsi::air::kFamilies) {
    const std::string name(dsi::air::FamilyName(family));
    const bool requested =
        args.families.empty() ||
        std::find(args.families.begin(), args.families.end(), name) !=
            args.families.end();
    if (requested &&
        args.base.capacity < dsi::air::MinPacketCapacity(family)) {
      std::fprintf(stderr,
                   "invalid case: --capacity=%zu is below the %s minimum of "
                   "%zu\n",
                   args.base.capacity, name.c_str(),
                   dsi::air::MinPacketCapacity(family));
      return 2;
    }
  }

  if (args.repro) {
    if (!args.have_seed) {
      std::fprintf(stderr, "--repro requires --seed\n");
      return 2;
    }
    const ConformanceReport r =
        RunConformanceCase(args.base, args.families);
    std::printf("repro seed=%llu\n",
                static_cast<unsigned long long>(args.base.seed));
    PrintDivergences(args.base, r);
    return CaseFails(args.base, r) ? 1 : 0;
  }

  size_t checked = 0;
  size_t incomplete = 0;
  size_t restarted = 0;
  for (uint64_t seed = args.start; seed < args.start + args.seeds; ++seed) {
    ConformanceCase c = dsi::sim::MakeConformanceCase(seed);
    if (args.min_generations > c.generations) {
      c.generations = args.min_generations;
    }
    if (c.generations > 1 && args.min_updates > c.updates_per_gen) {
      c.updates_per_gen = args.min_updates;
    }
    // Pinned axes override the seed-determined values across the whole
    // sweep (dataset/query/tune-in derivation stays seed-driven).
    if (args.have_theta) c.theta = args.base.theta;
    if (args.have_mode) c.error_mode = args.base.error_mode;
    if (args.have_coding) {
      c.code_group = args.base.code_group;
      c.code_parity = args.base.code_parity;
    }
    if (args.have_disks) {
      c.num_disks = args.base.num_disks;
      c.disk_skew = args.base.disk_skew;
    }
    if (args.have_clients) c.trajectory_clients = args.base.trajectory_clients;
    if (args.have_churn) c.churn_rate = args.base.churn_rate;
    if (args.have_windows) c.window_queries = args.base.window_queries;
    const ConformanceReport r = RunConformanceCase(c, args.families);
    checked += r.queries_checked;
    incomplete += r.incomplete;
    restarted += r.restarted;
    if (CaseFails(c, r)) {
      std::printf("seed %llu FAILED:\n",
                  static_cast<unsigned long long>(seed));
      PrintDivergences(c, r);
      // Shrink against the families that actually failed.
      std::vector<std::string> failing;
      for (const std::vector<Divergence>* list :
           {&r.divergences, &r.incomplete_queries}) {
        for (const Divergence& d : *list) {
          if (std::find(failing.begin(), failing.end(), d.family) ==
              failing.end()) {
            failing.push_back(d.family);
          }
        }
      }
      const ConformanceCase small = Shrink(c, failing);
      const ConformanceReport small_r = RunConformanceCase(small, failing);
      std::printf("shrunk instance:\n");
      PrintDivergences(small, small_r);
      std::string fam_list;
      for (const std::string& f : failing) {
        fam_list += (fam_list.empty() ? "" : ",") + f;
      }
      std::printf("REPRODUCE: %s\n",
                  dsi::sim::FormatReproducer(small, fam_list).c_str());
      return 1;
    }
    if ((seed - args.start + 1) % 25 == 0) {
      std::printf(
          "... %llu seeds done (%zu queries checked, %zu incomplete, "
          "%zu cross-generation restarts)\n",
          static_cast<unsigned long long>(seed - args.start + 1), checked,
          incomplete, restarted);
    }
  }
  std::printf(
      "CONFORMANT: %llu seeds, %zu queries checked against the oracle, "
      "%zu incomplete (watchdog) skipped, %zu cross-generation restarts\n",
      static_cast<unsigned long long>(args.seeds), checked, incomplete,
      restarted);
  return 0;
}
