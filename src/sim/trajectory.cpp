#include "sim/trajectory.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>

#include "air/disk_layout.hpp"
#include "broadcast/generation.hpp"
#include "common/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/seed_mix.hpp"

namespace dsi::sim {

namespace {

/// Salt separating the cold-baseline rng stream from the warm tour stream:
/// the two must be independent even though both fork from the run seed.
constexpr uint64_t kColdSalt = 0xC01DBA5Eull;

/// Exact integer sums of one shard of clients (associative merges keep the
/// run bit-identical for any worker count).
struct TourSums {
  uint64_t latency_bytes = 0;
  uint64_t tuning_bytes = 0;
  uint64_t cold_latency_bytes = 0;
  uint64_t cold_tuning_bytes = 0;
  size_t steps = 0;
  size_t incomplete = 0;
  size_t restarted = 0;
  size_t cold_incomplete = 0;
  size_t repaired = 0;
  size_t cold_repaired = 0;
  size_t departed = 0;
  size_t skipped_steps = 0;

  TourSums& operator+=(const TourSums& o) {
    latency_bytes += o.latency_bytes;
    tuning_bytes += o.tuning_bytes;
    cold_latency_bytes += o.cold_latency_bytes;
    cold_tuning_bytes += o.cold_tuning_bytes;
    steps += o.steps;
    incomplete += o.incomplete;
    restarted += o.restarted;
    cold_incomplete += o.cold_incomplete;
    repaired += o.repaired;
    cold_repaired += o.cold_repaired;
    departed += o.departed;
    skipped_steps += o.skipped_steps;
    return *this;
  }
};

/// Runs the step query of client \p c at step \p s on \p client.
std::vector<datasets::SpatialObject> RunStepQuery(
    air::AirClient& client, const TrajectoryWorkload& wl, size_t c,
    size_t s) {
  if (wl.kind == QueryKind::kWindow) {
    return client.WindowQuery(wl.WindowAt(c, s));
  }
  return client.KnnQuery(wl.clients[c][s], wl.k, wl.strategy);
}

/// The cold baseline for one step: a fresh session over the same channel
/// tuning in at \p tune_in, a fresh client per generation it straddles —
/// exactly what sim::GenerationalRun pays for a one-shot query.
void RunColdStep(const std::vector<const air::AirIndexHandle*>& gens,
                 const TrajectoryWorkload& wl, size_t c, size_t s,
                 const broadcast::ClientSession& warm_session,
                 uint64_t tune_in, const TrajectoryOptions& options,
                 air::ClientArena& arena, TourSums* sums,
                 QueryResult* result_out) {
  common::Rng cold_rng(
      MixSeed(MixSeed(options.seed ^ kColdSalt, c), s));
  broadcast::ClientSession session =
      warm_session.ForkColdSession(tune_in, cold_rng.Fork());
  const detail::ClientAnswer fresh = detail::RunFreshClient(
      gens, session, arena,
      [&](air::AirClient& client) { return RunStepQuery(client, wl, c, s); });
  const broadcast::Metrics m = session.metrics();
  sums->cold_latency_bytes += m.access_latency_bytes;
  sums->cold_tuning_bytes += m.tuning_bytes;
  sums->cold_repaired += m.repaired;
  if (!fresh.completed) ++sums->cold_incomplete;
  if (result_out != nullptr) {
    detail::CaptureResult(wl.kind, wl.clients[c][s], fresh.answer,
                          fresh.completed, session.generation(),
                          fresh.restarts, m.access_latency_bytes,
                          m.tuning_bytes, m.repaired, result_out);
  }
}

/// One client's tour: a single session, a persistent warm client, one
/// re-evaluation per step (plus the optional cold baseline per step). Run()
/// yields at the first positive think time; the scheduler resumes the tour
/// with ResumeAndRun() when its calendar reaches the yielded wake packet.
class Tour {
 public:
  Tour(const std::vector<const air::AirIndexHandle*>& gens,
       const broadcast::GenerationSchedule& schedule,
       const TrajectoryWorkload& wl, const TrajectoryOptions& options,
       size_t c, TourSums* sums, std::vector<TrajectoryStep>* steps_out)
      : gens_(gens),
        wl_(wl),
        options_(options),
        c_(c),
        sums_(sums),
        steps_out_(steps_out),
        depart_(wl.churn.empty() ? UINT64_MAX
                                 : wl.churn[c].depart_packet) {
    common::Rng rng(MixSeed(options.seed, c));
    uint64_t tune_in;
    if (wl.churn.empty()) {
      const uint64_t horizon = schedule.TuneInHorizon();
      tune_in = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(horizon) - 1));
    } else {
      // Churned populations tune in when their span says they arrive; the
      // uniform draw is simply replaced.
      tune_in = wl.churn[c].arrive_packet;
    }
    session_.emplace(schedule, tune_in,
                     broadcast::ErrorModel{wl.theta, wl.error_mode},
                     rng.Fork());
  }

  /// Advances the tour from its current step, up to the first positive
  /// think time: returns true with *next_wake set to the packet the client
  /// must be woken at, or false when the tour is over (finished, or the
  /// client departed).
  bool Run(air::ClientArena& cold_arena, uint64_t* next_wake) {
    const size_t steps = wl_.clients[c_].size();
    while (s_ < steps) {
      const uint64_t pace = s_ > 0 ? wl_.pace_packets : 0;
      const uint64_t wake = session_->now_packets() + pace;
      if (wake >= depart_) {
        // The client powers off at this step boundary (or, for a span with
        // depart <= arrive, never joined): the remaining steps are skipped
        // with exact accounting, nothing else runs.
        ++sums_->departed;
        sums_->skipped_steps += steps - s_;
        return false;
      }
      if (pace > 0) {
        *next_wake = wake;
        return true;
      }
      RunStep(session_->metrics(), cold_arena);
      ++s_;
    }
    return false;
  }

  /// The calendar reached \p wake (the value Run yielded). Resumes the
  /// session at exactly that packet, runs the due step, and continues like
  /// Run (yielding again at the next think time).
  bool ResumeAndRun(uint64_t wake, air::ClientArena& cold_arena,
                    uint64_t* next_wake) {
    broadcast::Metrics before = session_->metrics();
    session_->ResumeAt(wake);
    before.access_latency_bytes +=
        wl_.pace_packets * session_->program().packet_capacity();
    RunStep(before, cold_arena);
    ++s_;
    return Run(cold_arena, next_wake);
  }

 private:
  /// One re-evaluation. The session is positioned at the step's start
  /// (freshly tuned in, or just woken).
  void RunStep(const broadcast::Metrics& before,
               air::ClientArena& cold_arena) {
    const size_t s = s_;
    const uint64_t step_start = session_->now_packets();
    // Republished while the client dozed between re-evaluations, or
    // mid-step: the warm client is rebuilt on the generation now on air,
    // and the step keeps paying latency from its own start.
    const detail::ClientAnswer warm = detail::RunWarmClient(
        gens_, *session_, &warm_, [&](air::AirClient& client) {
          return RunStepQuery(client, wl_, c_, s);
        });
    const broadcast::Metrics after = session_->metrics();
    const uint64_t step_latency =
        after.access_latency_bytes - before.access_latency_bytes;
    const uint64_t step_tuning = after.tuning_bytes - before.tuning_bytes;
    const uint64_t step_repaired = after.repaired - before.repaired;
    sums_->latency_bytes += step_latency;
    sums_->tuning_bytes += step_tuning;
    sums_->repaired += step_repaired;
    ++sums_->steps;
    if (!warm.completed) ++sums_->incomplete;
    if (warm.restarts > 0) ++sums_->restarted;
    QueryResult* warm_out = nullptr;
    QueryResult* cold_out = nullptr;
    if (steps_out_ != nullptr) {
      (*steps_out_)[s].ran = true;
      warm_out = &(*steps_out_)[s].warm;
      cold_out = &(*steps_out_)[s].cold;
    }
    if (warm_out != nullptr) {
      detail::CaptureResult(wl_.kind, wl_.clients[c_][s], warm.answer,
                            warm.completed, session_->generation(),
                            warm.restarts, step_latency, step_tuning,
                            step_repaired, warm_out);
    }
    if (options_.cold_baseline) {
      RunColdStep(gens_, wl_, c_, s, *session_, step_start, options_,
                  cold_arena, sums_, cold_out);
    }
  }

  const std::vector<const air::AirIndexHandle*>& gens_;
  const TrajectoryWorkload& wl_;
  const TrajectoryOptions& options_;
  const size_t c_;
  TourSums* const sums_;
  std::vector<TrajectoryStep>* const steps_out_;
  const uint64_t depart_;
  std::optional<broadcast::ClientSession> session_;
  detail::WarmClient warm_;
  size_t s_ = 0;  ///< Next step to run.
};

/// One worker's shard of clients: channel-drives-clients. One calendar
/// queue orders every pending wake in this shard by (packet, client); one
/// slot pool maps the churning population onto dense recycled storage.
/// Per-client hot state is SoA: the wake itself lives in the calendar, the
/// client→slot binding and the Tour slots below are parallel arrays.
void RunSchedulerShard(const std::vector<const air::AirIndexHandle*>& gens,
                       const broadcast::GenerationSchedule& schedule,
                       const TrajectoryWorkload& wl,
                       const TrajectoryOptions& options, size_t begin,
                       size_t end, TourSums* sums) {
  // One arena per pool thread for the cold baselines; each warm client owns
  // its storage for its whole tour (it must survive every cold build).
  thread_local air::ClientArena cold_arena;
  constexpr uint32_t kNoSlot = UINT32_MAX;
  // Calendar day width: the typical inter-wake gap is the think time; an
  // unpaced population only ever schedules arrivals, spread over the
  // tune-in horizon.
  const uint64_t width =
      wl.pace_packets > 0
          ? wl.pace_packets
          : std::max<uint64_t>(1, schedule.TuneInHorizon() / 256);
  CalendarQueue calendar(width);
  SlotPool pool;
  // Per-slot tours, recycled by index. unique_ptr keeps each Tour at a
  // stable address: the warm AirClient holds a pointer into its session, so
  // a Tour must never relocate while live (a plain vector<Tour> would move
  // everything on growth and dangle every warm client).
  std::vector<std::unique_ptr<Tour>> tours;
  std::vector<uint32_t> slot_of(end - begin, kNoSlot);  // per client

  // Seed the calendar with every client's arrival wake — computed exactly
  // as the Tour constructor will (same rng fork), so the Tour is only
  // built when the channel reaches the client's tune-in instant.
  for (size_t c = begin; c < end; ++c) {
    if (wl.clients[c].empty()) continue;
    uint64_t arrive;
    if (wl.churn.empty()) {
      common::Rng rng(MixSeed(options.seed, c));
      arrive = static_cast<uint64_t>(rng.UniformInt(
          0, static_cast<int64_t>(schedule.TuneInHorizon()) - 1));
    } else {
      arrive = wl.churn[c].arrive_packet;
    }
    calendar.Push(arrive, static_cast<uint32_t>(c));
  }

  while (!calendar.empty()) {
    const CalendarQueue::Event e = calendar.Pop();
    const size_t c = e.client;
    uint32_t& slot = slot_of[c - begin];
    uint64_t next_wake = 0;
    bool sleeping;
    if (slot == kNoSlot) {
      // Arrival: bind a recycled slot and run the first step burst.
      slot = pool.Acquire();
      if (slot >= tours.size()) tours.resize(slot + 1);
      tours[slot] = std::make_unique<Tour>(
          gens, schedule, wl, options, c, sums,
          options.results != nullptr ? &(*options.results)[c] : nullptr);
      sleeping = tours[slot]->Run(cold_arena, &next_wake);
    } else {
      sleeping = tours[slot]->ResumeAndRun(e.wake_packet, cold_arena,
                                           &next_wake);
    }
    if (sleeping) {
      calendar.Push(next_wake, e.client);
    } else {
      // Tour over (finished or departed): the slot — session storage and
      // all — goes back to the pool for the next arrival.
      tours[slot].reset();
      pool.Release(slot);
      slot = kNoSlot;
    }
  }
}

TrajectoryMetrics RunTrajectoriesImpl(
    const std::vector<const air::AirIndexHandle*>& gens,
    const std::vector<uint64_t>& cycles, const TrajectoryWorkload& wl,
    const TrajectoryOptions& options) {
  assert(!gens.empty());
  assert(cycles.size() == gens.size());
  assert(wl.churn.empty() || wl.churn.size() == wl.clients.size());
  const size_t num_clients = wl.clients.size();
  TrajectoryMetrics avg;
  if (options.results != nullptr) {
    options.results->assign(num_clients, {});
    for (size_t c = 0; c < num_clients; ++c) {
      (*options.results)[c].assign(wl.clients[c].size(), TrajectoryStep{});
    }
  }
  const air::OnAirSchedule on_air(gens, cycles, options.coding,
                                  options.disks);
  const broadcast::GenerationSchedule& schedule = on_air.schedule();
  if (schedule.num_generations() == 0 || num_clients == 0 ||
      wl.num_steps() == 0) {
    return avg;
  }
  const TourSums total = detail::RunSharded<TourSums>(
      num_clients, options.workers,
      [&](size_t begin, size_t end, TourSums* sums) {
        RunSchedulerShard(gens, schedule, wl, options, begin, end, sums);
      },
      detail::Units::kOnePerWorker);

  avg.clients = num_clients;
  avg.steps = total.steps;
  avg.incomplete = total.incomplete;
  avg.restarted = total.restarted;
  avg.cold_incomplete = total.cold_incomplete;
  avg.repaired = total.repaired;
  avg.cold_repaired = total.cold_repaired;
  avg.departed = total.departed;
  avg.skipped_steps = total.skipped_steps;
  if (total.steps > 0) {
    const auto steps = static_cast<double>(total.steps);
    avg.latency_bytes = static_cast<double>(total.latency_bytes) / steps;
    avg.tuning_bytes = static_cast<double>(total.tuning_bytes) / steps;
    avg.cold_latency_bytes =
        static_cast<double>(total.cold_latency_bytes) / steps;
    avg.cold_tuning_bytes =
        static_cast<double>(total.cold_tuning_bytes) / steps;
  }
  return avg;
}

}  // namespace

TrajectoryWorkload MakeTrajectoryWorkload(
    QueryKind kind, size_t num_clients, size_t steps,
    const datasets::TrajectoryParams& params, const common::Rect& universe,
    uint64_t seed) {
  TrajectoryWorkload wl;
  wl.kind = kind;
  wl.universe = universe;
  wl.clients.reserve(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    wl.clients.push_back(
        datasets::MakeTrajectory(steps, universe, params, MixSeed(seed, c)));
  }
  return wl;
}

TrajectoryMetrics RunTrajectories(const air::AirIndexHandle& index,
                                  const TrajectoryWorkload& workload,
                                  const TrajectoryOptions& options) {
  // A static broadcast is a one-generation schedule (byte-identical to the
  // single-program session; the generation stamp stays 0 throughout).
  return RunTrajectoriesImpl({&index}, {1}, workload, options);
}

TrajectoryMetrics RunTrajectories(const GenerationalIndex& index,
                                  const TrajectoryWorkload& workload,
                                  const TrajectoryOptions& options) {
  return RunTrajectoriesImpl(index.generations, index.cycles, workload,
                             options);
}

}  // namespace dsi::sim
