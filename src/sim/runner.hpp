#pragma once

/// \file runner.hpp
/// \brief The experiment engine: executes a Workload against any air index
/// through the AirIndexHandle abstraction, with uniformly random tune-in
/// instants, and averages the two paper metrics (access latency and tuning
/// time, in bytes).
///
/// One query = one mobile client tuning in: every query gets a fresh
/// ClientSession and AirClient (the latter built into a per-worker arena so
/// back-to-back queries recycle storage). The workers of a persistent pool
/// (threads parked between calls) claim queries one at a time; randomness
/// is forked per query INDEX (not per claim order), and metrics accumulate
/// in exact integer sums, so the averaged results are bit-identical for any
/// worker count and fully determined by (workload, seed).
///
/// There is one one-shot engine, GenerationalRun: a static broadcast is a
/// one-generation schedule airing for one cycle, so its tune-in horizon is
/// exactly one cycle and its sessions never see a republication — byte
/// for byte a single-program session (pinned by the golden suite).

#include <algorithm>
#include <atomic>
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

  bool operator==(const QueryResult&) const = default;
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

/// How RunSharded cuts [0, n) into the units its workers claim.
enum class Units {
  /// Every index is a unit: a worker that finishes early takes the next
  /// query instead of idling while another works through a slow stretch.
  kOneIndex,
  /// One contiguous unit per worker, [n*w/workers, n*(w+1)/workers): each
  /// unit is one population (a trajectory calendar holds n/workers tours).
  kOnePerWorker,
};

/// Runs \p run_shard(begin, end, &sums) over the units of [0, n) and
/// returns every worker's sums merged with Sums::operator+=; run_shard ADDS
/// its unit into *sums, since a worker's sums collect all the units it
/// claims. \p workers = 0 means one per hardware thread; workers run on the
/// persistent WorkerPool and claim units one at a time, in index order, from
/// one shared counter, so which worker runs a unit depends on timing. Every
/// unit's randomness is forked by its index and results are index-keyed,
/// so any worker count and any claim order reproduce the serial run exactly
/// — provided Sums merges associatively (exact integers).
template <typename Sums, typename RunShardFn>
Sums RunSharded(size_t n, size_t workers, RunShardFn&& run_shard,
                Units units = Units::kOneIndex) {
  if (workers == 0) {
    workers = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, n);
  Sums total;
  if (workers <= 1) {
    run_shard(size_t{0}, n, &total);
    return total;
  }
  const size_t num_units = units == Units::kOneIndex ? n : workers;
  std::atomic<size_t> next_unit{0};
  std::vector<Sums> worker_sums(workers);
  WorkerPool::Instance().Run(workers, [&](size_t w) {
    for (size_t u = next_unit.fetch_add(1, std::memory_order_relaxed);
         u < num_units;
         u = next_unit.fetch_add(1, std::memory_order_relaxed)) {
      run_shard(n * u / num_units, n * (u + 1) / num_units, &worker_sums[w]);
    }
  });
  for (const Sums& s : worker_sums) total += s;
  return total;
}

/// What the client of one query produced.
struct ClientAnswer {
  std::vector<datasets::SpatialObject> answer;
  bool completed = true;
  /// Republications the query observed mid-flight.
  size_t restarts = 0;
};

/// The restart loop of both client paths: probes first (the probe itself
/// may park past a republication instant, and the client must be the one
/// of the generation actually on air), then runs \p query on
/// \p client_for(generation on air). A stale abort (republished
/// mid-query) keeps the session, so latency keeps accruing, and re-issues
/// on the new generation's client; generations strictly advance, so this
/// loops at most once per generation.
template <typename ClientFor, typename Query>
ClientAnswer RunOnLiveGeneration(broadcast::ClientSession& session,
                                ClientFor&& client_for, Query&& query) {
  session.InitialProbe();
  ClientAnswer out;
  while (true) {
    const uint64_t gen = session.generation();
    air::AirClient& client = client_for(gen);
    out.answer = query(client);
    const air::ClientStats& st = client.stats();
    if (!st.stale) {
      out.completed = st.completed;
      return out;
    }
    assert(session.generation() > gen);
    ++out.restarts;
  }
}

/// Answers one query on the already-built \p session with a fresh client
/// per generation, built in \p arena. Shared by GenerationalRun's queries
/// and RunTrajectories' cold baseline.
template <typename Query>
ClientAnswer RunFreshClient(
    const std::vector<const air::AirIndexHandle*>& generations,
    broadcast::ClientSession& session, air::ClientArena& arena,
    Query&& query) {
  return RunOnLiveGeneration(
      session,
      [&](uint64_t gen) -> air::AirClient& {
        return *generations[gen]->MakeClientIn(arena, &session);
      },
      query);
}

/// A continuous client kept alive across the queries of one session, and
/// the generation it was built for (null until the first query).
struct WarmClient {
  std::unique_ptr<air::AirClient> client;
  uint64_t generation = 0;
};

/// Answers one query on \p session with the continuous client \p warm,
/// built on the first query and rebuilt whenever the generation on air is
/// not the one it was built for (republished while it dozed, or
/// mid-query), and armed with BeginQuery before every issue. Shared by
/// RunTrajectories' warm tours, live_client and the transport parity test.
template <typename Query>
ClientAnswer RunWarmClient(
    const std::vector<const air::AirIndexHandle*>& generations,
    broadcast::ClientSession& session, WarmClient* warm, Query&& query) {
  return RunOnLiveGeneration(
      session,
      [&](uint64_t gen) -> air::AirClient& {
        if (warm->client == nullptr || warm->generation != gen) {
          warm->generation = gen;
          warm->client = generations[gen]->MakeContinuousClient(&session);
        }
        warm->client->BeginQuery();
        return *warm->client;
      },
      query);
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
