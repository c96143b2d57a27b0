#pragma once

/// \file runner.hpp
/// \brief The experiment engine: executes a Workload against any air index
/// through the AirIndexHandle abstraction, with uniformly random tune-in
/// instants, and averages the two paper metrics (access latency and tuning
/// time, in bytes).
///
/// One query = one mobile client tuning in: every query gets a fresh
/// ClientSession and AirClient (the latter built into a per-worker arena so
/// back-to-back queries recycle storage). Queries are sharded across a
/// persistent worker pool (threads parked between calls); randomness is
/// forked per query INDEX (not per iteration order), and metrics accumulate
/// in exact integer sums, so the averaged results are bit-identical for any
/// worker count and fully determined by (workload, seed).
///
/// There is one one-shot engine, GenerationalRun: a static broadcast is a
/// one-generation schedule airing for one cycle, so its tune-in horizon is
/// exactly one cycle and its sessions never see a republication — byte
/// for byte a single-program session (pinned by the golden suite).

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "air/air_index.hpp"
#include "broadcast/client.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"
#include "broadcast/generation.hpp"
#include "sim/worker_pool.hpp"
#include "sim/workload.hpp"

namespace dsi::sim {

/// The answer one query produced, captured when RunOptions::results is set.
/// Conformance harnesses compare these against brute-force oracles; the
/// byte metrics deliberately stay separate (they are averages, results are
/// per query).
struct QueryResult {
  std::vector<uint32_t> ids;  ///< Object ids of the result set, sorted.
  /// kKnn only: distances from the query point, sorted ascending. Oracle
  /// comparisons use these (ids may legitimately differ under ties).
  std::vector<double> knn_distances;
  bool completed = true;  ///< False if the watchdog aborted the query.
  /// The broadcast generation this result answers for: the one the client
  /// was synchronized to when it finished (= live at its last (re)tune-in).
  /// Always 0 for static runs; generation-aware oracles check the result
  /// against the object set of THIS generation.
  uint64_t generation = 0;
  /// Republications the query observed mid-flight (each one invalidated
  /// all learned state and restarted the search on the new layout).
  size_t restarts = 0;
  /// This query's own byte metrics (the aggregate averages are separate).
  /// For trajectory steps these are the step's deltas, so per-query
  /// invariants (tuning <= latency) can be audited at every query, not
  /// just on averages.
  uint64_t latency_bytes = 0;
  uint64_t tuning_bytes = 0;
  /// Lost bucket reads this query recovered from parity instead of a
  /// next-cycle retry (coded broadcasts only; always 0 uncoded).
  uint64_t repaired = 0;
};

/// Averaged byte metrics over a workload.
struct AvgMetrics {
  double latency_bytes = 0.0;
  double tuning_bytes = 0.0;
  size_t queries = 0;
  size_t incomplete = 0;  ///< Watchdog-aborted queries (extreme loss only).
  /// Queries that straddled at least one republication instant and had to
  /// restart on a new generation (generational runs only).
  size_t restarted = 0;
  /// TOTAL parity repairs across all queries (not an average): lost reads
  /// recovered in place from the erasure code. Exact-accounting invariant,
  /// audited by the conformance oracle: equals the sum of the per-query
  /// QueryResult::repaired counters, and is 0 when coding is disabled.
  size_t repaired = 0;

  /// Relative deterioration of this run versus a lossless baseline, in
  /// percent (Table 1's quantity).
  static double DeteriorationPct(double lossy, double clean) {
    return clean == 0.0 ? 0.0 : (lossy - clean) / clean * 100.0;
  }
};

/// Execution knobs of one run. The seed drives tune-in instants and error
/// streams; workers only changes wall-clock time, never the result.
struct RunOptions {
  uint64_t seed = 0;
  /// Worker threads to shard queries over; 0 = one per hardware thread.
  size_t workers = 1;
  /// When set, resized to the workload size and filled with the per-query
  /// result sets (entry i belongs to query i regardless of worker count).
  std::vector<QueryResult>* results = nullptr;
  /// Construct each query's client on the heap (AirIndexHandle::MakeClient)
  /// instead of the per-worker arena. Results and metrics must be identical
  /// either way; conformance runs exercise both paths.
  bool heap_clients = false;
  /// Server-side erasure coding of the on-air cycle. Disabled by default;
  /// when enabled every query listens to the coded program (parity buckets
  /// interleaved per group) and lost reads repair in place. Disabled runs
  /// are byte-identical to a build without the coding layer.
  broadcast::CodingConfig coding;
  /// Server-side multi-disk (Broadcast-Disks) layout of the on-air cycle
  /// (air/disk_layout.hpp): buckets binned by Zipf region popularity into
  /// frequency tiers, hot tiers airing 2-4x per cycle, every read resolved
  /// to the nearest upcoming repetition. Disabled runs take the index's own
  /// program by reference — byte-identical to a build without the layer.
  /// With coding also enabled, the parity protects the multi-disk cycle's
  /// physical airings.
  broadcast::DiskConfig disks;
};

/// One index family across broadcast generations: handle g serves the
/// republished content after the g-th update batch. All handles must be
/// the same family over the same channel (equal packet capacity).
struct GenerationalIndex {
  /// Per-generation handles (non-owning); at least one.
  std::vector<const air::AirIndexHandle*> generations;
  /// Airtime of each generation in its own broadcast cycles (>= 1). Entry
  /// g < last bounds when generation g+1 takes over; the LAST generation
  /// airs forever so in-flight queries always finish — its entry only
  /// widens the uniform tune-in horizon.
  std::vector<uint64_t> cycles;
};

/// The one-shot experiment: every query of \p workload is a fresh client
/// tuning in uniformly over the whole generational horizon, so queries
/// straddle republication instants. A query that observes a generation
/// switch (stale read) discards everything it learned and restarts against
/// the new generation's handle on the SAME session — latency keeps counting
/// from the original tune-in, exactly what a long-lived client pays.
/// QueryResult::generation records which object set each answer reflects.
/// Returns zeroed metrics for an empty workload or if any generation's
/// program is empty.
AvgMetrics GenerationalRun(const GenerationalIndex& index,
                           const Workload& workload,
                           const RunOptions& options = {});

/// Runs every query of \p workload against the static broadcast of
/// \p index: GenerationalRun over one generation airing for one cycle, so
/// query i tunes in at the first UniformInt(0, cycle - 1) draw of
/// Rng(MixSeed(seed, i)). Returns a zeroed AvgMetrics for an empty
/// workload or an empty broadcast program (nothing on air to tune into).
AvgMetrics RunWorkload(const air::AirIndexHandle& index,
                       const Workload& workload,
                       const RunOptions& options = {});

namespace detail {

/// The channel one run airs: every generation's program — the index's own
/// by reference when both layouts are off, else
/// MakeCodedProgram(MakeSkewedProgram(...)) — appended to one
/// GenerationSchedule. Each generation is re-laid-out independently:
/// parity groups and disk schedules die with their generation. Shared by
/// GenerationalRun and RunTrajectories. Not copyable or movable: the
/// schedule points into the owned re-layouts.
class OnAirSchedule {
 public:
  /// \p cycles[g] is generation g's airtime (see GenerationalIndex).
  OnAirSchedule(const std::vector<const air::AirIndexHandle*>& generations,
                const std::vector<uint64_t>& cycles,
                const broadcast::CodingConfig& coding,
                const broadcast::DiskConfig& disks);
  OnAirSchedule(const OnAirSchedule&) = delete;
  OnAirSchedule& operator=(const OnAirSchedule&) = delete;

  const broadcast::GenerationSchedule& schedule() const { return schedule_; }

 private:
  std::vector<broadcast::BroadcastProgram> relaid_;
  broadcast::GenerationSchedule schedule_;
};

/// Runs \p run_shard(begin, end, &sums) over contiguous shards of [0, n)
/// and returns the shards' sums merged with Sums::operator+=. \p workers = 0
/// means one per hardware thread; shards run on the persistent WorkerPool.
/// Boundaries depend only on (n, workers) and every unit's randomness is
/// forked by its index, so any worker count reproduces the serial run
/// exactly — provided Sums merges associatively (exact integers).
template <typename Sums, typename RunShardFn>
Sums RunSharded(size_t n, size_t workers, RunShardFn&& run_shard) {
  if (workers == 0) {
    workers = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, n);
  Sums total;
  if (workers <= 1) {
    run_shard(size_t{0}, n, &total);
    return total;
  }
  std::vector<Sums> shard_sums(workers);
  WorkerPool::Instance().Run(workers, [&](size_t w) {
    run_shard(n * w / workers, n * (w + 1) / workers, &shard_sums[w]);
  });
  for (const Sums& s : shard_sums) total += s;
  return total;
}

/// What one fresh client produced for one query.
struct FreshAnswer {
  std::vector<datasets::SpatialObject> answer;
  bool completed = true;
  /// Republications the query observed mid-flight.
  size_t restarts = 0;
};

/// Answers one query with a fresh client on the already-built \p session:
/// probes first (the probe itself may park past a republication instant,
/// and the client must be built for the generation actually on air), then
/// builds the client of the live generation — on the heap or in \p arena —
/// and runs \p query(client). A stale abort (republished mid-query) keeps
/// the session, so latency keeps accruing, and restarts with a fresh client
/// on the new generation; generations strictly advance, so this loops at
/// most generations.size() times. Shared by GenerationalRun's queries and
/// RunTrajectories' cold baseline.
template <typename Query>
FreshAnswer RunFreshClient(
    const std::vector<const air::AirIndexHandle*>& generations,
    broadcast::ClientSession& session, bool heap_clients,
    air::ClientArena& arena, Query&& query) {
  session.InitialProbe();
  FreshAnswer out;
  while (true) {
    const uint64_t gen = session.generation();
    std::unique_ptr<air::AirClient> heap_client;
    air::AirClient* client;
    if (heap_clients) {
      heap_client = generations[gen]->MakeClient(&session);
      client = heap_client.get();
    } else {
      client = generations[gen]->MakeClientIn(arena, &session);
    }
    out.answer = query(*client);
    const air::ClientStats st = client->stats();
    if (!st.stale) {
      out.completed = st.completed;
      return out;
    }
    assert(session.generation() > gen);
    ++out.restarts;
  }
}

/// Captures one answered query into \p out: ids sorted, kNN distance
/// multiset from \p query_point (ignored for windows), flags and byte
/// metrics. The ONE result-capture routine, shared by GenerationalRun and
/// RunTrajectories — the conformance oracles compare
/// these fields, so the capture rules must be identical everywhere.
void CaptureResult(QueryKind kind, const common::Point& query_point,
                   const std::vector<datasets::SpatialObject>& answer,
                   bool completed, uint64_t generation, size_t restarts,
                   uint64_t latency_bytes, uint64_t tuning_bytes,
                   uint64_t repaired, QueryResult* out);

}  // namespace detail

}  // namespace dsi::sim
