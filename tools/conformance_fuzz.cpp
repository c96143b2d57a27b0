/// \file conformance_fuzz.cpp
/// \brief Differential conformance fuzzer over the broadcast engine.
///
/// Sweep mode (default) replays seed-determined conformance cases — all
/// four index families, lossy channels, reorganized broadcasts, dynamic
/// multi-generation broadcasts with update streams, duplicate-heavy
/// datasets, degenerate queries, and continuous moving-client tours
/// (persistent warm clients checked for result parity against fresh cold
/// clients at every step, plus the per-query tuning <= latency audit;
/// every seed with two or more clients also runs each client alone and
/// diffs its steps against the population run bit-exactly, with churned
/// populations on a quarter of the seeds) —
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
/// dedicated update-stream sweep CI runs. Every case flag of the
/// reproducer line except --seed (a sweep draws each case's seed from
/// --start and --seeds; --seed without --repro is a usage error) also
/// works in sweep mode and pins its field across every swept case, after
/// the floors: --theta, --error-mode, --code-group, --code-parity,
/// --clients (an alias of --traj-clients, the moving-client population),
/// --churn-rate, --num-disks, --disk-skew and --windows give the
/// coded-channel, burst-weather, churn, skewed-multi-disk and kNN-focused
/// CI sweeps, and --n, --m, --order, --capacity, --degenerate and the rest
/// pin the same way. Fields not pinned keep their seed-determined values.
/// Coding and multi-disk layouts compose: pinning both runs coded
/// multi-disk cycles on every swept case. Every value must parse whole:
/// --theta=abc is a usage error.
///
/// The sweeps CI runs are the rows of tests/fuzz_bands.cmake, each with
/// its flags and the CONFORMANT: line it prints pinned; ctest runs them
/// (ctest -C fuzz -L fuzz_sanitized, -L fuzz_release). A change that moves
/// a row's counts edits that row's pin.
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
#include <string>
#include <utility>
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
  ConformanceCase base;  // the default case with every case flag set
  dsi::sim::SweepPins sweep;
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

bool ParseArgs(int argc, char** argv, Args* args) {
  using dsi::sim::ParseFlagValue;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool ok = true;
    if (key == "--repro") args->repro = true;
    else if (key == "--families") { if (!SplitFamilies(value, &args->families)) return false; }
    else if (key == "--seeds") ok = ParseFlagValue(value, &args->seeds);
    else if (key == "--start") ok = ParseFlagValue(value, &args->start);
    else if (key == "--min-generations") ok = ParseFlagValue(value, &args->sweep.min_generations);
    else if (key == "--min-updates") ok = ParseFlagValue(value, &args->sweep.min_updates);
    else {
      switch (dsi::sim::SetCaseFlag(key, value, &args->base)) {
        case dsi::sim::CaseFlag::kSet: args->sweep.flags.emplace_back(key, value); break;
        case dsi::sim::CaseFlag::kBadValue: ok = false; break;
        case dsi::sim::CaseFlag::kUnknown:
          std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
          return false;
      }
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value for %s: '%s'\n", key.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

void PrintDivergences(const ConformanceReport& r) {
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
              r.queries_checked, r.incomplete_queries.size(),
              r.divergences.size());
}

/// A case fails if any query diverged from the oracle OR — at theta <= 0.7,
/// where every family must finish — was watchdog-aborted (phantom aborts
/// were exactly how the blocking-on-lost-buckets bug class manifested —
/// they must fail CI, not just divergences). Beyond 0.7 aborts are the
/// channel's fault; correctness of completed queries and exact incomplete
/// accounting (checked inside the harness, surfaced as divergences) still
/// apply.
bool CaseFails(const ConformanceCase& c, const ConformanceReport& r) {
  return !r.divergences.empty() ||
         (c.theta <= 0.7 && !r.incomplete_queries.empty());
}

/// Greedy shrink: apply each simplification while the (family-restricted)
/// case keeps failing; every accepted step makes the reproducer smaller
/// or more deterministic.
ConformanceCase Shrink(ConformanceCase c,
                       const std::vector<std::string>& families) {
  // Takes one simplification if the case still fails after it; false when
  // it changes nothing or the failure goes away.
  const auto take = [&](auto simplify) {
    ConformanceCase candidate = c;
    simplify(candidate);
    if (candidate == c ||
        !CaseFails(candidate, RunConformanceCase(candidate, families))) {
      return false;
    }
    c = candidate;
    return true;
  };
  // Smaller dataset.
  while (c.n / 2 >= 8 && take([](ConformanceCase& s) { s.n /= 2; })) {}
  // Static broadcast, then fewer updates.
  take([](ConformanceCase& s) {
    s.generations = 1;
    s.updates_per_gen = 0;
  });
  while (c.generations > 1 && c.updates_per_gen > 1 &&
         take([](ConformanceCase& s) { s.updates_per_gen /= 2; })) {}
  // No moving clients, then shorter tours.
  take([](ConformanceCase& s) {
    s.trajectory_clients = 0;
    s.trajectory_steps = 0;
  });
  while ((c.trajectory_clients > 1 || c.trajectory_steps > 2) &&
         take([](ConformanceCase& s) {
           s.trajectory_clients = std::max<uint32_t>(1, s.trajectory_clients / 2);
           s.trajectory_steps = std::max<uint32_t>(2, s.trajectory_steps / 2);
         })) {}
  // Churn-free population (uniform tune-ins, nobody departs).
  take([](ConformanceCase& s) { s.churn_rate = 0.0; });
  // Uncoded channel (repairs off, plain broadcast layout).
  take([](ConformanceCase& s) {
    s.code_group = 0;
    s.code_parity = 0;
  });
  // Flat single-disk cycle (skewed sampling off too: disk_skew drives the
  // query distribution, so the pair shrinks together).
  take([](ConformanceCase& s) {
    s.num_disks = 1;
    s.disk_skew = 0.0;
  });
  // Lossless channel, then serial execution.
  take([](ConformanceCase& s) { s.theta = 0.0; });
  take([](ConformanceCase& s) { s.workers = 1; });
  // Fewer random queries (degenerates always remain).
  while (take([](ConformanceCase& s) {
    s.window_queries /= 2;
    s.knn_points /= 2;
  })) {}
  return c;
}

/// Whether \p c can run for \p families; prints why not. A hand-edited
/// reproducer line or a sweep pin must fail as a usage error, not crash.
bool ValidCase(const ConformanceCase& c,
               const std::vector<std::string>& families) {
  if (c.n == 0 || c.order < 1 || c.order > 16 || c.capacity < 32 ||
      c.theta < 0.0 || c.theta > 1.0 || c.workers == 0 ||
      c.generations == 0 || c.gen_cycles == 0 ||
      uint64_t{c.code_group} + c.code_parity > 64 || c.churn_rate < 0.0 ||
      c.churn_rate > 1.0 || c.num_disks < 1 || c.num_disks > 3 ||
      c.disk_skew < 0.0) {
    std::fprintf(stderr,
                 "invalid case: need --n>=1, 1<=--order<=16, --capacity>=32, "
                 "0<=--theta<=1, --workers>=1, --generations>=1, "
                 "--gen-cycles>=1, --code-group + --code-parity <= 64, "
                 "0<=--churn-rate<=1, 1<=--num-disks<=3, --disk-skew>=0\n");
    return false;
  }
  // Every requested family (all four when none is named) must build at the
  // case's packet capacity.
  for (const dsi::air::Family family : dsi::air::kFamilies) {
    const std::string name(dsi::air::FamilyName(family));
    const bool requested =
        families.empty() ||
        std::find(families.begin(), families.end(), name) != families.end();
    if (requested && c.capacity < dsi::air::MinPacketCapacity(family)) {
      std::fprintf(stderr,
                   "invalid case: --capacity=%zu is below the %s minimum of "
                   "%zu\n",
                   c.capacity, name.c_str(),
                   dsi::air::MinPacketCapacity(family));
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const auto& flags = args.sweep.flags;
  const bool have_seed =
      std::any_of(flags.begin(), flags.end(),
                  [](const auto& flag) { return flag.first == "--seed"; });
  if (args.repro != have_seed) {
    std::fprintf(stderr, args.repro
                             ? "--repro requires --seed\n"
                             : "--seed requires --repro: a sweep draws each "
                               "case's seed from --start and --seeds\n");
    return 2;
  }

  if (!ValidCase(args.base, args.families)) return 2;
  if (args.repro) {
    const ConformanceReport r =
        RunConformanceCase(args.base, args.families);
    std::printf("repro seed=%llu\n",
                static_cast<unsigned long long>(args.base.seed));
    PrintDivergences(r);
    return CaseFails(args.base, r) ? 1 : 0;
  }

  size_t checked = 0;
  size_t incomplete = 0;
  size_t restarted = 0;
  for (uint64_t seed = args.start; seed < args.start + args.seeds; ++seed) {
    const ConformanceCase c = args.sweep.CaseFor(seed);
    if (!ValidCase(c, args.families)) {
      std::fprintf(stderr, "  (the pinned case of seed %llu)\n",
                   static_cast<unsigned long long>(seed));
      return 2;
    }
    const ConformanceReport r = RunConformanceCase(c, args.families);
    checked += r.queries_checked;
    incomplete += r.incomplete_queries.size();
    restarted += r.restarted;
    if (CaseFails(c, r)) {
      std::printf("seed %llu FAILED:\n",
                  static_cast<unsigned long long>(seed));
      PrintDivergences(r);
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
      PrintDivergences(small_r);
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
