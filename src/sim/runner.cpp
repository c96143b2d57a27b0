#include "sim/runner.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "air/disk_layout.hpp"
#include "broadcast/generation.hpp"
#include "common/rng.hpp"
#include "sim/seed_mix.hpp"
#include "transport/transport.hpp"

namespace dsi::sim {

namespace {

/// Exact per-worker sums. Latency/tuning are integer byte counts, so merges
/// are associative — no floating-point order sensitivity.
struct WorkerSums {
  uint64_t latency_bytes = 0;
  uint64_t tuning_bytes = 0;
  size_t queries = 0;
  size_t incomplete = 0;
  size_t restarted = 0;
  size_t repaired = 0;

  WorkerSums& operator+=(const WorkerSums& o) {
    latency_bytes += o.latency_bytes;
    tuning_bytes += o.tuning_bytes;
    queries += o.queries;
    incomplete += o.incomplete;
    restarted += o.restarted;
    repaired += o.repaired;
    return *this;
  }
};

/// Runs queries [begin, end) and adds them into \p sums.
void RunGenerationalQueries(const GenerationalIndex& index,
                            transport::SimTransport& channel,
                            const Workload& wl, const RunOptions& options,
                            size_t begin, size_t end, WorkerSums* sums) {
  // One arena per pool thread, kept warm across queries AND runs: every
  // query constructs its client into recycled storage. The channel is a
  // stateless view, so every session on every worker shares it.
  thread_local air::ClientArena arena;
  const uint64_t horizon = channel.schedule()->TuneInHorizon();
  for (size_t i = begin; i < end; ++i) {
    common::Rng rng(MixSeed(options.seed, i));
    const auto tune_in = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(horizon) - 1));
    broadcast::ClientSession session(
        channel, tune_in, broadcast::ErrorModel{wl.theta, wl.error_mode},
        rng.Fork());
    const detail::ClientAnswer fresh = detail::RunFreshClient(
        index.generations, session, arena,
        [&](air::AirClient& client) {
          return wl.kind == QueryKind::kWindow
                     ? client.WindowQuery(wl.windows[i])
                     : client.KnnQuery(wl.points[i], wl.k, wl.strategy);
        });
    const broadcast::Metrics m = session.metrics();
    sums->latency_bytes += m.access_latency_bytes;
    sums->tuning_bytes += m.tuning_bytes;
    sums->repaired += m.repaired;
    ++sums->queries;
    if (!fresh.completed) ++sums->incomplete;
    if (fresh.restarts > 0) ++sums->restarted;
    if (options.results != nullptr) {
      // Entry i belongs to query i for any worker count — disjoint, no race.
      detail::CaptureResult(
          wl.kind,
          wl.kind == QueryKind::kKnn ? wl.points[i] : common::Point{},
          fresh.answer, fresh.completed, session.generation(), fresh.restarts,
          m.access_latency_bytes, m.tuning_bytes, m.repaired,
          &(*options.results)[i]);
    }
  }
}

}  // namespace

namespace detail {

void CaptureResult(QueryKind kind, const common::Point& query_point,
                   const std::vector<datasets::SpatialObject>& answer,
                   bool completed, uint64_t generation, size_t restarts,
                   uint64_t latency_bytes, uint64_t tuning_bytes,
                   uint64_t repaired, QueryResult* out) {
  out->ids.clear();
  out->knn_distances.clear();
  out->ids.reserve(answer.size());
  for (const datasets::SpatialObject& o : answer) out->ids.push_back(o.id);
  std::sort(out->ids.begin(), out->ids.end());
  if (kind == QueryKind::kKnn) {
    out->knn_distances.reserve(answer.size());
    for (const datasets::SpatialObject& o : answer) {
      out->knn_distances.push_back(common::Distance(query_point, o.location));
    }
    std::sort(out->knn_distances.begin(), out->knn_distances.end());
  }
  out->completed = completed;
  out->generation = generation;
  out->restarts = restarts;
  out->latency_bytes = latency_bytes;
  out->tuning_bytes = tuning_bytes;
  out->repaired = repaired;
}

}  // namespace detail

AvgMetrics GenerationalRun(const GenerationalIndex& index,
                           const Workload& workload,
                           const RunOptions& options) {
  assert(!index.generations.empty());
  const size_t n = workload.size();
  AvgMetrics avg;
  if (options.results != nullptr) options.results->assign(n, QueryResult{});
  // Re-layout once per run, not per query; workers share the immutable
  // programs through one stateless channel view (the same Transport seam a
  // live StreamTransport plugs into).
  const air::OnAirSchedule on_air(index.generations, index.cycles,
                                  options.coding, options.disks);
  // Guard: an empty program never airs, so there is no packet to tune into
  // (the tune-in draw would underflow), and an empty workload has nothing
  // to average.
  if (on_air.schedule().num_generations() == 0 || n == 0) return avg;
  transport::SimTransport channel(on_air.schedule());
  const WorkerSums total = detail::RunSharded<WorkerSums>(
      n, options.workers, [&](size_t begin, size_t end, WorkerSums* sums) {
        RunGenerationalQueries(index, channel, workload, options, begin, end,
                               sums);
      });

  avg.queries = total.queries;
  avg.incomplete = total.incomplete;
  avg.restarted = total.restarted;
  avg.repaired = total.repaired;
  if (total.queries > 0) {
    avg.latency_bytes = static_cast<double>(total.latency_bytes) /
                        static_cast<double>(total.queries);
    avg.tuning_bytes = static_cast<double>(total.tuning_bytes) /
                       static_cast<double>(total.queries);
  }
  return avg;
}

AvgMetrics RunWorkload(const air::AirIndexHandle& index,
                       const Workload& workload, const RunOptions& options) {
  return GenerationalRun(GenerationalIndex{{&index}, {1}}, workload, options);
}

}  // namespace dsi::sim
