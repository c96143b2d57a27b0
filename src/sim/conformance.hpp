#pragma once

/// \file conformance.hpp
/// \brief Differential conformance harness: drives every index family
/// through the *real* experiment engine (sim::RunWorkload, per-query
/// sessions, lossy channels, mid-cycle tune-ins) and checks each query's
/// result set against a brute-force oracle.
///
/// The paper's central correctness claim is that broadcast queries return
/// exact answers no matter where in the cycle the client tunes in and no
/// matter which buckets the channel corrupts (lost buckets only cost time).
/// This harness enforces that claim as an executable oracle:
///
///  * a ConformanceCase is a fully seed-determined instance: dataset, curve
///    order, packet capacity, DSI segment count m, object factor, channel
///    error model, worker count — and, for dynamic broadcasts, the
///    generation count, the update stream applied between generations and
///    each generation's airtime;
///  * the query mix deliberately includes the degenerate shapes directed
///    tests forget: zero-area (point) windows, windows clipped by or fully
///    outside the universe, kNN with k >= dataset size, query points
///    outside the universe;
///  * every completed query must match the oracle exactly (window: id sets;
///    kNN: distance multisets — ties may swap ids) — against the object set
///    of the generation the query answered for (QueryResult::generation,
///    the one live at its last (re)tune-in). Watchdog-aborted queries are
///    reported separately, never silently compared;
///  * aggregate accounting is itself checked: AvgMetrics::incomplete must
///    equal the count of completed = false results exactly, at every theta
///    up to and including total loss.
///
/// The same entry points back tools/conformance_fuzz (sweep + shrink +
/// one-line reproducers) and tests/conformance_test.cpp (CI seed sweep).
/// A case's command-line encoding is one flag table (SetCaseFlag,
/// FormatReproducer): a reproducer line parses back to the case it prints.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broadcast/client.hpp"
#include "sim/runner.hpp"
#include "sim/trajectory.hpp"

namespace dsi::sim {

/// One fully seed-determined conformance instance. Every field is encoded
/// in the reproducer line, so a failure replays from the line alone.
struct ConformanceCase {
  uint64_t seed = 0;          ///< Master seed (queries, tune-ins, errors).
  size_t n = 200;             ///< Dataset cardinality.
  int order = 6;              ///< Hilbert curve order.
  size_t capacity = 128;      ///< Packet capacity in bytes.
  bool clustered = false;     ///< Clustered (vs uniform) dataset.
  uint32_t m = 1;             ///< DSI broadcast segments (1 = original).
  uint32_t object_factor = 1; ///< DSI objects per frame (0 = packet-driven).
  uint32_t chunk_size = 1;    ///< Exponential-index items per chunk.
  double theta = 0.0;         ///< Link-error rate (up to 1.0 = total loss).
  broadcast::ErrorMode error_mode = broadcast::ErrorMode::kPerReadLoss;
  size_t workers = 1;         ///< Engine worker threads.
  /// Duplicate-heavy dataset: a handful of distinct sites, each hosting a
  /// pile of coincident objects (identical Hilbert keys) — exercises
  /// equal-key runs in frame/chunk formation, kNN distance-multiset ties
  /// and window membership of coincident points.
  bool duplicates = false;
  /// Broadcast generations (1 = static). With more than one, a
  /// seed-determined update stream (inserts/deletes/moves) is applied
  /// between consecutive generations, the DSI family republishes through
  /// the incremental path, and queries run through sim::GenerationalRun
  /// with tune-ins straddling the republication instants.
  uint32_t generations = 1;
  uint32_t updates_per_gen = 0;  ///< Update ops between generations.
  uint32_t gen_cycles = 2;       ///< Airtime (cycles) per generation.
  /// Random window queries; four degenerate shapes (zero-area window on an
  /// object, window fully outside the universe, window overhanging an edge,
  /// window strictly containing the universe) are appended when
  /// `degenerate` is set.
  size_t window_queries = 4;
  /// Random kNN points; four degenerate points (just outside the universe,
  /// far outside it, a universe corner, the exact location of an object)
  /// are appended when `degenerate` is set.
  size_t knn_points = 2;
  size_t k = 8;  ///< Small-k value.
  /// Appends the degenerate windows and kNN points above and runs the k >= n
  /// workload (one inside point and the far-outside one). On for every
  /// drawn case; off leaves exactly the random queries, so
  /// `--windows=0 --knn-points=0 --degenerate=0` runs trajectories alone.
  /// The random queries are the same either way.
  bool degenerate = true;
  /// Server-side erasure coding (0/0 = uncoded, today's channel): parity
  /// groups of code_group data buckets followed by code_parity parity
  /// buckets. Coded cases run every workload over the coded channel; lost
  /// reads repair in place and the harness audits the exact repaired
  /// accounting (aggregate == sum of per-query counters, 0 when uncoded).
  uint32_t code_group = 0;
  uint32_t code_parity = 0;
  /// Continuous moving-client axis (sim::RunTrajectories): persistent
  /// warm clients re-evaluate along seed-determined trajectories while a
  /// fresh cold client re-runs every step at the same instant over the
  /// same channel. Checked: warm/cold result parity (same generation, both
  /// completed), both answers against the oracle of their generation, the
  /// per-step tuning <= latency invariant, and exact incomplete
  /// accounting. 0 clients or 0 steps disables the axis.
  uint32_t trajectory_clients = 2;
  uint32_t trajectory_steps = 4;
  /// Population churn on the trajectory axis: when > 0, client presence
  /// spans come from datasets::MakeChurnStream at this rate (arrivals
  /// spread over the generational horizon, a rate-determined share
  /// departing mid-run), and the harness audits the exact
  /// departed/skipped-step accounting. Independently of the rate, every
  /// case with >= 2 clients also runs each client alone
  /// (RunEachClientAlone) and diffs every per-step result bit-exactly
  /// against the population run.
  double churn_rate = 0.0;
  /// Skewed multi-disk broadcast axis: when num_disks > 1 the on-air cycle
  /// is a Broadcast-Disks multi-frequency layout (buckets popularity-ranked
  /// by a Zipf grid at disk_skew) and the query/trajectory streams draw
  /// from the matching skewed distribution. The brute-force oracles are
  /// layout-independent, so exactness across repetitions is checked for
  /// free. 1 = flat cycle. Composes with code_group > 0: the parity then
  /// protects the multi-disk cycle's physical airings.
  uint32_t num_disks = 1;
  double disk_skew = 0.0;

  bool operator==(const ConformanceCase&) const = default;
};

/// Randomizes a case from a sweep seed. Guarantees coverage of m = 1 and
/// m >= 2, clean and lossy channels, all error modes and 1-vs-2 workers
/// across consecutive seeds.
ConformanceCase MakeConformanceCase(uint64_t seed);

/// One query whose result set deviated from the brute-force oracle.
struct Divergence {
  std::string family;      ///< "dsi", "rtree", "hci", "expindex".
  std::string workload;    ///< "window", "knn", "knn-aggressive", "knn-big".
  size_t query_index = 0;  ///< Index within that workload.
  std::string detail;      ///< Human-readable oracle-vs-got diff.
};

/// Outcome of one case run.
struct ConformanceReport {
  std::vector<Divergence> divergences;
  size_t queries_checked = 0;  ///< Completed queries compared to the oracle.
  /// Queries that straddled a republication instant and restarted on a new
  /// generation (dynamic cases only) — evidence the schedule actually
  /// exercised cross-generation execution.
  size_t restarted = 0;
  /// Every aborted query — one-shot, and both sides of every trajectory
  /// step — with where it happened (detail carries the result sizes); its
  /// size is the abort count. Aborts are legitimate only under sustained
  /// heavy loss, so harness users assert on this list for moderate-theta
  /// sweeps.
  std::vector<Divergence> incomplete_queries;
};

/// Runs \p c against every family in \p families (empty = all four) and
/// reports all divergences.
ConformanceReport RunConformanceCase(
    const ConformanceCase& c, const std::vector<std::string>& families = {});

/// The one-line reproducer for a failing case: a conformance_fuzz command
/// line that replays exactly this instance (optionally restricted to one
/// family). Every field of the case appears, as `--flag=value` in flag-table
/// order, with doubles at round-trip precision.
std::string FormatReproducer(const ConformanceCase& c,
                             const std::string& family = "");

/// The trajectory scheduler's parity oracle: every client of \p workload
/// run alone, by the same scheduler over a copy of the workload whose
/// other clients' paths are emptied. Churn spans stay index-aligned and
/// client c keeps its seed fork, so only the company changes; a calendar
/// holding one tour runs it client-major. Entry [c] holds client c's steps
/// (empty for an empty path). Each alone run uses one worker, and
/// \p options.results is ignored. Clients are passive listeners, so a
/// population run must reproduce every entry bit for bit.
std::vector<std::vector<TrajectoryStep>> RunEachClientAlone(
    const GenerationalIndex& index, const TrajectoryWorkload& workload,
    TrajectoryOptions options);

/// Outcome of SetCaseFlag.
enum class CaseFlag { kSet, kUnknown, kBadValue };

/// Sets the case field of command-line flag \p flag ("--theta"; "--clients"
/// is an alias of "--traj-clients") from \p value. The flag table behind it
/// also drives FormatReproducer, so every field has exactly one flag.
CaseFlag SetCaseFlag(std::string_view flag, std::string_view value,
                     ConformanceCase* c);

/// The flag table's strict value parser, for a tool's own values: the
/// whole of \p text must be a decimal integer in range, or a finite
/// number for a double. Returns false and leaves \p out as it was
/// otherwise.
bool ParseFlagValue(std::string_view text, uint64_t* out);
bool ParseFlagValue(std::string_view text, uint32_t* out);
bool ParseFlagValue(std::string_view text, int* out);
bool ParseFlagValue(std::string_view text, double* out);

/// What a conformance sweep sets over each seed's case.
struct SweepPins {
  /// Floors lifting every case onto the dynamic-broadcast axis: at least
  /// this many generations, and (when dynamic) update ops between them.
  uint32_t min_generations = 1;
  uint32_t min_updates = 0;
  /// Case flags as given, (flag, value), each one SetCaseFlag accepts.
  /// Every flag pins its field on every swept case.
  std::vector<std::pair<std::string, std::string>> flags;

  /// The case of sweep seed \p seed: MakeConformanceCase(seed) lifted to
  /// the floors, then every flag set over it. The dataset, query and
  /// tune-in derivation stays seed-driven.
  ConformanceCase CaseFor(uint64_t seed) const;
};

}  // namespace dsi::sim
