#pragma once

/// \file trajectory.hpp
/// \brief Continuous moving-client workloads: the paper's motivating
/// scenario as a first-class experiment. A trajectory client tunes in
/// once, stays on the channel, and re-evaluates its spatial query at every
/// step of its path — window queries ride along with the client, kNN
/// queries ask for the neighbors of its current position.
///
/// The engine (RunTrajectories) keeps ONE persistent family client per
/// tour: everything the client learned from the air on step i (DSI segment
/// knowledge and tables, HCI/R-tree node caches and leaf anchors,
/// exponential-index chunk tables and item keys, retrieved objects) is
/// still a true description of the broadcast within a generation, so step
/// i+1 starts warm. On a dynamic broadcast a republication invalidates all
/// of it — detected either mid-query (ClientStats::stale, the PR-4
/// contract) or while dozing between steps (session.generation()
/// advanced); the engine then discards the warm client and rebuilds
/// against the new generation's handle.
///
/// The load-bearing correctness tool is the cold baseline: for every step
/// the engine can also run a FRESH client on a fresh session over the same
/// physical channel at the same instant. Its result must be identical to
/// the warm client's (warm/cold parity — wired into sim::conformance), and
/// its cost is what the warm client would have paid without reuse — the
/// reuse-savings headline.
///
/// Determinism: whole clients (not steps) are sharded across the worker
/// pool, per-client randomness is forked by client INDEX and cold-side
/// randomness by (client, step), so every metric and result is
/// bit-identical for any worker count.
///
/// One simulation core drives the tours: an event-driven scheduler
/// (sim/scheduler.hpp) that advances the broadcast timeline and wakes
/// clients at their due packet, so 10^6+ concurrent clients fit on one
/// machine. Its parity oracle is the same scheduler run on each client
/// alone (sim::RunEachClientAlone): clients are passive listeners, so a
/// population must reproduce every client's solo tour bit for bit.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "air/air_index.hpp"
#include "broadcast/client.hpp"
#include "common/geometry.hpp"
#include "datasets/datasets.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

namespace dsi::sim {

/// A continuous-query experiment: per-client position streams plus the
/// query each position poses.
struct TrajectoryWorkload {
  QueryKind kind = QueryKind::kWindow;
  /// clients[c][s] = where client c re-evaluates its query at step s.
  std::vector<std::vector<common::Point>> clients;
  common::Rect universe = datasets::UnitUniverse();
  /// kWindow: the query is a window of this side length (universe units)
  /// centered on the client's position, clipped to the universe.
  double window_side = 0.1;
  size_t k = 10;  ///< kKnn: neighbors per re-evaluation.
  air::KnnStrategy strategy = air::KnnStrategy::kConservative;
  double theta = 0.0;
  broadcast::ErrorMode error_mode = broadcast::ErrorMode::kPerReadLoss;
  /// Radio-off think time between consecutive re-evaluations, in packets
  /// (the drive time between waypoints). 0 = re-evaluate immediately.
  uint64_t pace_packets = 0;
  /// Client churn (datasets::MakeChurnStream): entry c is client c's
  /// presence span. Empty = every client is present from a uniform tune-in
  /// forever (the original population — bit-identical to builds without
  /// churn); non-empty must match clients.size(), client c then tunes in
  /// at its arrive_packet instead of the uniform draw and powers off at
  /// the first step boundary at or after its depart_packet (running
  /// queries always finish; skipped steps are accounted exactly — see
  /// TrajectoryMetrics::skipped_steps and TrajectoryStep::ran).
  std::vector<datasets::ChurnSpan> churn;

  /// Total re-evaluations across all clients.
  size_t num_steps() const {
    size_t n = 0;
    for (const auto& path : clients) n += path.size();
    return n;
  }

  /// The window client \p c poses at step \p s (kWindow workloads).
  common::Rect WindowAt(size_t client, size_t step) const {
    return common::MakeClippedWindow(clients[client][step], window_side,
                                     universe);
  }
};

/// Convenience builder: \p num_clients trajectories of \p steps positions
/// each via datasets::MakeTrajectory, with per-client seeds forked from
/// \p seed by client index.
TrajectoryWorkload MakeTrajectoryWorkload(
    QueryKind kind, size_t num_clients, size_t steps,
    const datasets::TrajectoryParams& params, const common::Rect& universe,
    uint64_t seed);

/// One re-evaluation's capture. `warm` is the persistent client's answer;
/// its byte metrics are the STEP's deltas on the shared session. The
/// radio-off think time itself (pace_packets) is excluded — no answer is
/// pending — but everything waking up costs IS charged to the step: the
/// doze to the next bucket boundary and, after a republication, the
/// one-packet re-sync listen. `cold` is the fresh-client baseline for the
/// same query at the same instant (zeroed unless
/// TrajectoryOptions::cold_baseline).
struct TrajectoryStep {
  QueryResult warm;
  QueryResult cold;
  /// Whether this step executed at all. False only for steps a churned
  /// client departed before reaching (or never arrived for) — such entries
  /// keep their default-constructed results and carry no cost.
  bool ran = false;

  bool operator==(const TrajectoryStep&) const = default;
};

/// Aggregate continuous-query metrics, averaged per re-evaluation.
struct TrajectoryMetrics {
  double latency_bytes = 0.0;  ///< Warm cost per re-evaluation.
  double tuning_bytes = 0.0;
  double cold_latency_bytes = 0.0;  ///< Fresh-client cost, same queries.
  double cold_tuning_bytes = 0.0;
  size_t clients = 0;
  size_t steps = 0;            ///< Total re-evaluations.
  size_t incomplete = 0;       ///< Warm steps aborted by the watchdog.
  size_t restarted = 0;        ///< Warm steps that straddled a republication.
  size_t cold_incomplete = 0;  ///< Cold-baseline steps aborted.
  /// TOTAL parity repairs (not averages): lost reads the warm/cold clients
  /// recovered from the erasure code. Each equals the sum of the matching
  /// per-step QueryResult::repaired counters; 0 when coding is disabled.
  size_t repaired = 0;
  size_t cold_repaired = 0;
  /// Churn accounting (exact): clients whose span cut their tour short —
  /// including clients that never joined at all (depart <= arrive) — and
  /// the steps those departures skipped. steps + skipped_steps equals the
  /// workload's num_steps() always; both are 0 without churn.
  size_t departed = 0;
  size_t skipped_steps = 0;

  /// Field-by-field, doubles compared exactly (worker-count parity is
  /// bit-exact).
  bool operator==(const TrajectoryMetrics&) const = default;

  /// Headline reuse metric: share of the cold tuning cost the warm client
  /// did not have to pay (percent).
  double TuningSavingsPct() const {
    return cold_tuning_bytes == 0.0
               ? 0.0
               : (cold_tuning_bytes - tuning_bytes) / cold_tuning_bytes *
                     100.0;
  }
  double LatencySavingsPct() const {
    return cold_latency_bytes == 0.0
               ? 0.0
               : (cold_latency_bytes - latency_bytes) / cold_latency_bytes *
                     100.0;
  }
};

/// Which simulation core drives the clients: the event scheduler, the only
/// one.
enum class TrajectoryEngine : uint8_t { kScheduler };

/// Execution knobs of one trajectory run.
struct TrajectoryOptions {
  uint64_t seed = 0;
  /// Worker threads to shard CLIENTS over; 0 = one per hardware thread.
  size_t workers = 1;
  /// Also run a fresh cold client for every step, on its own session over
  /// the same channel, tuning in at the warm step's start instant: the
  /// reuse-savings baseline and the warm/cold parity differential axis.
  bool cold_baseline = true;
  /// When set, resized to [client][step] and filled (entry [c][s] belongs
  /// to that client/step for any worker count).
  std::vector<std::vector<TrajectoryStep>>* results = nullptr;
  /// Server-side erasure coding of the on-air cycle(s); see
  /// RunOptions::coding. Warm and cold clients listen to the same coded
  /// channel, so warm/cold parity holds under repair too.
  broadcast::CodingConfig coding;
  /// Server-side multi-disk layout of the on-air cycle(s); see
  /// RunOptions::disks. Warm and cold clients share the multi-disk channel,
  /// so warm/cold parity holds across repetitions too.
  broadcast::DiskConfig disks;
  /// Read by nothing: kept only because perfbench/src/city.cpp assigns it.
  /// ROADMAP 6a deletes this field and TrajectoryEngine together.
  TrajectoryEngine engine = TrajectoryEngine::kScheduler;
};

/// Runs every client tour of \p workload against a static broadcast.
/// Returns zeroed metrics for an empty workload or an empty program.
TrajectoryMetrics RunTrajectories(const air::AirIndexHandle& index,
                                  const TrajectoryWorkload& workload,
                                  const TrajectoryOptions& options = {});

/// Dynamic-broadcast variant: tours run across the generational horizon,
/// warm knowledge dies at every republication (mid-query stale restarts
/// and between-step invalidation both rebuild the client on the new
/// generation's handle), and each result is stamped with the generation it
/// answers for.
TrajectoryMetrics RunTrajectories(const GenerationalIndex& index,
                                  const TrajectoryWorkload& workload,
                                  const TrajectoryOptions& options = {});

}  // namespace dsi::sim
