/// \file city.cpp
/// \brief Workload city-dyn: a churned population of moving window clients
/// on a dynamic, multi-disk, lossy DSI broadcast, through the event-driven
/// scheduler engine (warm path only).
///
/// The broadcast: 1024 uniform objects, DSI (m = 2) at packet capacity 128,
/// three generations built by DsiIndex::Republish (20 updates each, 4
/// cycles each), laid out on 2 Broadcast Disks at skew 1.2 whose region
/// popularity is the one the tours are drawn to. The channel loses bucket
/// instances at theta = 0.2 (kPerBucketLoss). The tours: hotspot-waypoint
/// trajectories around the popularity's hottest region, 4 steps, window
/// side 0.05, half a flat cycle of think time between steps, churn 0.3.
///
/// Closed loop: sim::RunTrajectories over the whole population, repeated
/// until the run's time share is spent; steps/s is the median over runs.
/// A sample of the same tours, driven step by step by the benchmark with
/// the engine's per-tour seeding, gives per-step times.
///
/// Checks: ran + skipped steps = scheduled steps, no incomplete step,
/// repeated runs identical, every sampled step's answer and byte metrics
/// equal the engine's, and at the pinned seed the totals below.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "air/disk_layout.hpp"
#include "air/dsi_handle.hpp"
#include "broadcast/generation.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/seed_mix.hpp"
#include "sim/trajectory.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dsi;

constexpr size_t kObjects = 1024;
constexpr size_t kCapacity = 128;
constexpr size_t kGenerations = 3;
constexpr size_t kUpdatesPerGen = 20;
constexpr uint64_t kGenCycles = 4;
constexpr size_t kClients = 6000;
constexpr size_t kSteps = 4;
constexpr double kWindowSide = 0.05;
constexpr double kChurn = 0.3;
constexpr double kTheta = 0.2;
constexpr size_t kWorkers = 2;
constexpr size_t kSampleClients = 500;  // tours checked and traced
constexpr size_t kSampleChunks = 6;     // rounds the step-time sample spans
constexpr int kSetups = 5;
constexpr double kThroughputShare = 0.8;
/// The city itself — its objects, their updates and the region popularity
/// (hence the hotspot the tours orbit and the disk layout) — is fixed;
/// --seed draws the population: tours, churn, tune-ins and loss coins. With
/// only 1024 objects, how many of them lie downtown changes the cost of a
/// step by ~30% from one draw to the next, far more than the population
/// does, so a seed-drawn city would swamp every change being measured.
constexpr uint64_t kCitySeed = 7;
constexpr uint64_t kPopularitySeed = 7;

/// Engine totals at kPinnedSeed: steps run, steps skipped, steps restarted,
/// latency and tuning bytes summed over all steps.
constexpr uint64_t kPinned[] = {20712, 3288, 4410, 98100572544, 207670272};

struct City {
  std::vector<datasets::SpatialObject> objects;
  std::unique_ptr<hilbert::SpaceMapper> mapper;
  std::vector<std::unique_ptr<core::DsiIndex>> gens;
  std::vector<std::unique_ptr<air::DsiHandle>> handles;
  sim::GenerationalIndex index;
  broadcast::DiskConfig disks;
  /// The on-air programs and schedule the engine derives internally,
  /// rebuilt here for the benchmark's own step-by-step driving.
  std::vector<broadcast::BroadcastProgram> on_air;
  broadcast::GenerationSchedule schedule;
  sim::TrajectoryWorkload wl;
  double gen_s = 0, build_s = 0, republish_s = 0, relayout_s = 0;
  double total_s = 0;
};

std::unique_ptr<City> Build(uint64_t seed, SpanRecorder* rec) {
  auto c = std::make_unique<City>();
  const common::Rect u = datasets::UnitUniverse();
  SpanRecorder::Scope scope(*rec, "setup");
  const uint64_t t0 = NowNs();
  c->gen_s += Timed(rec, "datasets.MakeUniform", [&] {
    c->objects = datasets::MakeUniform(kObjects, u, sim::MixSeed(kCitySeed, 10));
  });
  c->mapper =
      std::make_unique<hilbert::SpaceMapper>(u, hilbert::ChooseOrder(kObjects));
  core::DsiConfig cfg;
  cfg.num_segments = 2;
  c->build_s = Timed(rec, "core.DsiIndex", [&] {
    c->gens.push_back(std::make_unique<core::DsiIndex>(c->objects, *c->mapper,
                                                       kCapacity, cfg));
  });
  std::vector<datasets::SpatialObject> live = c->objects;
  for (size_t g = 1; g < kGenerations; ++g) {
    std::vector<datasets::UpdateOp> ops;
    c->gen_s += Timed(rec, "datasets.MakeUpdateStream", [&] {
      ops = datasets::MakeUpdateStream(live, kUpdatesPerGen, u,
                                       sim::MixSeed(kCitySeed, 10 + g));
      live = datasets::ApplyUpdates(std::move(live), ops);
    });
    c->republish_s += Timed(rec, "core.DsiIndex::Republish", [&] {
      c->gens.push_back(std::make_unique<core::DsiIndex>(
          core::DsiIndex::Republish(*c->gens.back(), ops)));
    });
  }
  for (const auto& g : c->gens) {
    c->handles.push_back(std::make_unique<air::DsiHandle>(*g));
    c->index.generations.push_back(c->handles.back().get());
    c->index.cycles.push_back(kGenCycles);
  }

  c->disks = broadcast::DiskConfig{2, 1.2, 8, kPopularitySeed};
  c->relayout_s = Timed(rec, "air.MakeSkewedProgram", [&] {
    c->on_air.reserve(kGenerations);  // the schedule keeps raw pointers
    for (const auto& h : c->handles) {
      c->on_air.push_back(air::MakeSkewedProgram(*h, c->disks));
    }
  });
  for (const auto& p : c->on_air) c->schedule.Append(&p, kGenCycles);

  c->gen_s += Timed(rec, "sim.MakeTrajectoryWorkload", [&] {
    const datasets::RegionPopularity popularity(c->disks.grid, c->disks.skew,
                                                c->disks.pop_seed);
    datasets::TrajectoryParams params;
    params.model = datasets::TrajectoryModel::kHotspotWaypoint;
    params.hotspot = popularity.HottestCenter(u);
    c->wl = sim::MakeTrajectoryWorkload(sim::QueryKind::kWindow, kClients,
                                        kSteps, params, u,
                                        sim::MixSeed(seed, 21));
    c->wl.window_side = kWindowSide * u.Width();
    c->wl.pace_packets = c->handles[0]->program().cycle_packets() / 2;
    c->wl.theta = kTheta;
    c->wl.error_mode = broadcast::ErrorMode::kPerBucketLoss;
    c->wl.churn = datasets::MakeChurnStream(
        kClients, c->schedule.TuneInHorizon(), kChurn, sim::MixSeed(seed, 22));
  });
  c->total_s = SecondsSince(t0);
  return c;
}

sim::TrajectoryOptions EngineOptions(const City& city, uint64_t run_seed,
                                     size_t workers) {
  sim::TrajectoryOptions opt;
  opt.seed = run_seed;
  opt.workers = workers;
  opt.cold_baseline = false;
  opt.engine = sim::TrajectoryEngine::kScheduler;
  opt.disks = city.disks;
  return opt;
}

/// One executed step of a benchmark-driven tour.
struct StepRecord {
  size_t step = 0;
  uint64_t ns = 0;
  broadcast::Metrics before;  // latency already credited with the pace
  broadcast::Metrics after;
  std::vector<uint32_t> ids;
  size_t event_begin = 0, event_end = 0;
  uint64_t generations_advanced = 0;  // republications the step re-synced to
};

/// Client \p c's tour exactly as the engine runs it (same seed fork, the
/// churn arrival as tune-in, same session rng, warm client rebuilt on a
/// generation change), one timed step at a time.
std::vector<StepRecord> DriveTour(const City& city, size_t c,
                                  uint64_t run_seed,
                                  std::vector<broadcast::TraceEvent>* trace,
                                  SpanRecorder* rec) {
  const sim::TrajectoryWorkload& wl = city.wl;
  std::vector<StepRecord> out;
  common::Rng rng(sim::MixSeed(run_seed, c));
  broadcast::ClientSession session(
      city.schedule, wl.churn[c].arrive_packet,
      broadcast::ErrorModel{wl.theta, wl.error_mode}, rng.Fork());
  if (trace != nullptr) session.set_trace(trace);
  std::unique_ptr<air::AirClient> warm;
  uint64_t warm_gen = 0;
  for (size_t s = 0; s < wl.clients[c].size(); ++s) {
    const uint64_t pace = s > 0 ? wl.pace_packets : 0;
    if (session.now_packets() + pace >= wl.churn[c].depart_packet) break;
    StepRecord r;
    r.step = s;
    const uint64_t gen_before = session.generation();
    r.event_begin = trace != nullptr ? trace->size() : 0;
    const uint64_t t0 = NowNs();
    SpanRecorder::Scope step(*rec, "traj.step", c * kSteps + s);
    r.before = session.metrics();
    if (pace > 0) {
      SpanRecorder::Scope span(*rec, "session.Pace", c * kSteps + s);
      session.Pace(pace);
      r.before.access_latency_bytes +=
          pace * session.program().packet_capacity();
    }
    {
      SpanRecorder::Scope span(*rec, "session.InitialProbe", c * kSteps + s);
      session.InitialProbe();
    }
    std::vector<datasets::SpatialObject> answer;
    for (;;) {
      if (warm == nullptr || session.generation() != warm_gen) {
        warm_gen = session.generation();
        warm = city.index.generations[warm_gen]->MakeContinuousClient(&session);
      }
      warm->BeginQuery();
      {
        SpanRecorder::Scope span(*rec, "air.WindowQuery", c * kSteps + s);
        answer = warm->WindowQuery(wl.WindowAt(c, s));
      }
      if (!warm->stats().stale) break;
    }
    r.after = session.metrics();
    r.ns = NowNs() - t0;
    r.generations_advanced = session.generation() - gen_before;
    r.event_end = trace != nullptr ? trace->size() : 0;
    for (const auto& o : answer) r.ids.push_back(o.id);
    std::sort(r.ids.begin(), r.ids.end());
    out.push_back(std::move(r));
  }
  return out;
}

/// Replays a traced tour's listens through a bare session (same tune-in,
/// error model and rng), step by step; returns per-step replay ns and
/// counts steps whose session metrics differ from the tour's.
std::vector<uint64_t> ReplayTour(const City& city, size_t c, uint64_t run_seed,
                                 const std::vector<broadcast::TraceEvent>& events,
                                 const std::vector<StepRecord>& steps,
                                 size_t* reads, size_t* mismatches,
                                 SpanRecorder* rec) {
  const sim::TrajectoryWorkload& wl = city.wl;
  std::vector<uint64_t> ns;
  common::Rng rng(sim::MixSeed(run_seed, c));
  broadcast::ClientSession bare(
      city.schedule, wl.churn[c].arrive_packet,
      broadcast::ErrorModel{wl.theta, wl.error_mode}, rng.Fork());
  for (const StepRecord& r : steps) {
    SpanRecorder::Scope span(*rec, "session.replay", c * kSteps + r.step);
    const uint64_t t0 = NowNs();
    if (r.step > 0) bare.Pace(wl.pace_packets);
    bare.InitialProbe();
    *reads += ReplayListens(bare, events, r.event_begin, r.event_end);
    ns.push_back(NowNs() - t0);
    if (!SameMetrics(bare.metrics(), r.after)) ++*mismatches;
  }
  return ns;
}

/// The first kSampleClients tours as their own population (a tour depends
/// only on seed, client index and workload, never on who else is on air).
sim::TrajectoryWorkload SampleWorkload(const sim::TrajectoryWorkload& wl) {
  sim::TrajectoryWorkload sub = wl;
  sub.clients.resize(std::min(kSampleClients, wl.clients.size()));
  sub.churn.resize(sub.clients.size());
  return sub;
}

}  // namespace

void RunCity(const Args& args, Report* report, SpanRecorder* rec) {
  for (int i = 0; i < kCalibrationsBefore; ++i) report->host().Sample();
  std::vector<double> setup_s, gen_s, build_s, republish_s, relayout_s;
  std::unique_ptr<City> city;
  for (int s = 0; s < kSetups; ++s) {
    city.reset();
    city = Build(args.seed, rec);
    setup_s.push_back(city->total_s);
    gen_s.push_back(city->gen_s);
    build_s.push_back(city->build_s);
    republish_s.push_back(city->republish_s);
    relayout_s.push_back(city->relayout_s);
  }
  const sim::TrajectoryWorkload& wl = city->wl;
  const uint64_t run_seed = sim::MixSeed(args.seed, 23);
  const size_t scheduled = wl.num_steps();

  // Engine reference for the checked tours (untimed).
  const sim::TrajectoryWorkload sub = SampleWorkload(wl);
  const sim::TrajectoryOptions opt = EngineOptions(*city, run_seed, kWorkers);
  std::vector<std::vector<sim::TrajectoryStep>> ref;
  {
    sim::TrajectoryOptions ref_opt = opt;
    ref_opt.results = &ref;
    sim::RunTrajectories(city->index, sub, ref_opt);
  }
  auto check_tour = [&](size_t c, const std::vector<StepRecord>& tour) {
    size_t ran = 0;
    for (const sim::TrajectoryStep& st : ref[c]) ran += st.ran ? 1 : 0;
    if (ran != tour.size()) {
      report->Fail("city-dyn: tour " + std::to_string(c) +
                   " ran a different number of steps than the engine");
      return;
    }
    for (const StepRecord& r : tour) {
      const sim::QueryResult& e = ref[c][r.step].warm;
      if (r.ids != e.ids ||
          r.after.access_latency_bytes - r.before.access_latency_bytes !=
              e.latency_bytes ||
          r.after.tuning_bytes - r.before.tuning_bytes != e.tuning_bytes) {
        report->Fail("city-dyn: tour " + std::to_string(c) + " step " +
                     std::to_string(r.step) + " disagrees with the engine");
      }
    }
  };

  // Closed loop in rounds: the whole population through the engine, then
  // one chunk of the population's tours driven step by step for per-step
  // times, so both figures sample the same stretch of machine time. Rounds
  // go on until the budget is spent and every tour has been driven. The
  // first engine run also measures the per-client peak-RSS growth.
  std::vector<double> steps_per_s;
  sim::TrajectoryMetrics first;
  double rss_per_client_kb = 0;
  SpanRecorder off(false);
  std::vector<double> step_ns;
  double sample_ns = 0;
  const size_t chunk = (kClients + kSampleChunks - 1) / kSampleChunks;
  size_t next_tour = 0;
  const double budget_s = args.seconds * kThroughputShare;
  const uint64_t loop_start = NowNs();
  for (size_t run = 0;
       SecondsSince(loop_start) < budget_s || next_tour < kClients; ++run) {
    const bool reset = run == 0 && ResetPeakRss();
    const size_t rss0 = PeakRssBytes();
    const uint64_t t0 = NowNs();
    sim::TrajectoryMetrics m;
    {
      SpanRecorder::Scope span(*rec, "sim.RunTrajectories");
      m = sim::RunTrajectories(city->index, wl, opt);
    }
    const double dt = SecondsSince(t0);
    if (run == 0 && reset) {
      rss_per_client_kb = static_cast<double>(PeakRssBytes() - rss0) /
                          static_cast<double>(kClients) / 1024.0;
    }
    report->Attempt(m.steps);
    steps_per_s.push_back(static_cast<double>(m.steps) / dt);
    if (m.steps + m.skipped_steps != scheduled) {
      report->Fail("city-dyn: ran + skipped steps != scheduled steps");
    }
    if (m.incomplete != 0) {
      report->Fail("city-dyn: " + std::to_string(m.incomplete) +
                   " incomplete steps");
    }
    if (run == 0) {
      first = m;
    } else if (m.steps != first.steps || m.latency_bytes != first.latency_bytes ||
               m.tuning_bytes != first.tuning_bytes ||
               m.restarted != first.restarted) {
      report->Fail("city-dyn: repeated RunTrajectories run disagrees");
    }

    report->host().Sample();
    const size_t end = std::min(kClients, next_tour + chunk);
    for (size_t c = next_tour; c < end; ++c) {
      const std::vector<StepRecord> tour =
          DriveTour(*city, c, run_seed, nullptr, &off);
      if (c < sub.clients.size()) check_tour(c, tour);
      for (const StepRecord& r : tour) {
        step_ns.push_back(static_cast<double>(r.ns));
        sample_ns += static_cast<double>(r.ns);
      }
      report->Attempt(tour.size());
    }
    next_tour = end;
  }
  const double steps = static_cast<double>(first.steps);
  const uint64_t totals[] = {
      first.steps, first.skipped_steps, first.restarted,
      static_cast<uint64_t>(std::llround(first.latency_bytes * steps)),
      static_cast<uint64_t>(std::llround(first.tuning_bytes * steps))};
  Note("city-dyn pinned {%llu, %llu, %llu, %llu, %llu}",
       static_cast<unsigned long long>(totals[0]),
       static_cast<unsigned long long>(totals[1]),
       static_cast<unsigned long long>(totals[2]),
       static_cast<unsigned long long>(totals[3]),
       static_cast<unsigned long long>(totals[4]));
  if (args.seed == kPinnedSeed && !std::equal(std::begin(totals),
                                              std::end(totals),
                                              std::begin(kPinned))) {
    report->Fail("city-dyn: step totals differ from the pinned values");
  }

  report->SetTime("setup_s", Median(setup_s));
  report->SetRate("ops_per_s", Median(steps_per_s));
  report->SetTime("op_ms_p50", Percentile(step_ns, 50) * 1e-6);
  report->SetTime("op_ms_p95", Percentile(step_ns, 95) * 1e-6);
  Note("city-dyn: setup median of %d; %zu clients, %zu steps run, %zu "
       "skipped, %zu restarted; %.0f steps/s (median of %zu runs); sample of "
       "%zu steps: p50 %.1f us, p%g %.1f us",
       kSetups, kClients, first.steps, first.skipped_steps, first.restarted,
       Median(steps_per_s), steps_per_s.size(), step_ns.size(),
       Percentile(step_ns, 50) * 1e-3, TailPercentile(step_ns.size()),
       Percentile(step_ns, TailPercentile(step_ns.size())) * 1e-3);

  report->Set("datasets.gen_s", Median(gen_s));
  report->Set("dsi.build_s", Median(build_s));
  report->Set("dsi.republish_s", Median(republish_s));
  report->Set("broadcast.relayout_s", Median(relayout_s));
  report->Set("dsi.window_qps", Median(steps_per_s));
  report->Set("city.rss_per_client_kb", rss_per_client_kb);
  report->Set("sim.restarted_frac", static_cast<double>(first.restarted) / steps);
  report->Set("sim.skipped_steps", static_cast<double>(first.skipped_steps));
  const double single = static_cast<double>(step_ns.size()) / (sample_ns * 1e-9);
  report->Set("sim.parallel_efficiency",
              Median(steps_per_s) / (static_cast<double>(kWorkers) * single));
  if (!args.trace) return;

  // Scheduler cost per step: the sample through the engine on one worker
  // minus the benchmark's own step-by-step loop, median over rounds.
  {
    const sim::TrajectoryOptions one = EngineOptions(*city, run_seed, 1);
    std::vector<double> diff;
    for (int round = 0; round < 3; ++round) {
      uint64_t t0 = NowNs();
      size_t n = 0;
      for (size_t c = 0; c < sub.clients.size(); ++c) {
        n += DriveTour(*city, c, run_seed, nullptr, &off).size();
      }
      const double bench_ns = static_cast<double>(NowNs() - t0);
      t0 = NowNs();
      {
        SpanRecorder::Scope span(*rec, "sim.RunTrajectories");
        sim::RunTrajectories(city->index, sub, one);
      }
      const double engine_ns = static_cast<double>(NowNs() - t0);
      diff.push_back((engine_ns - bench_ns) / static_cast<double>(n));
    }
    report->Set("sim.sched_ns_per_step", Median(diff));
  }

  // Traced sample: step, replay, re-plan.
  std::vector<double> traced_ns;
  double session_ns = 0, plan_ns = 0, search_ns = 0, listens = 0;
  double object_reads = 0, answers = 0, ranges = 0, lost = 0, resyncs = 0;
  // object_reads / answers: intact data reads, and those in the answer.
  double traced_total = 0;
  size_t replay_reads = 0, mismatches = 0;
  std::vector<broadcast::TraceEvent> events;
  std::vector<hilbert::HcRange> buf;
  SpanRecorder::Scope sample_span(*rec, "cell.traced_sample");
  for (size_t c = 0; c < sub.clients.size(); ++c) {
    events.clear();
    const std::vector<StepRecord> tour = DriveTour(*city, c, run_seed, &events, rec);
    check_tour(c, tour);
    report->Attempt(tour.size());
    const std::vector<uint64_t> replay =
        ReplayTour(*city, c, run_seed, events, tour, &replay_reads,
                   &mismatches, rec);
    for (size_t i = 0; i < tour.size(); ++i) {
      const StepRecord& r = tour[i];
      QueryCost cost;
      cost.query_ns = r.ns;
      cost.session_ns = replay[i];
      size_t n = 0;
      {
        SpanRecorder::Scope span(*rec, "hilbert.plan", c * kSteps + r.step);
        cost.plan_ns = PlanWindow(*city->mapper, wl.WindowAt(c, r.step), &buf, &n);
      }
      const TraceCounts tc = CountEvents(events, r.event_begin, r.event_end);
      traced_ns.push_back(static_cast<double>(r.ns));
      traced_total += static_cast<double>(r.ns);
      session_ns += static_cast<double>(cost.session_ns);
      plan_ns += static_cast<double>(cost.plan_ns);
      search_ns += static_cast<double>(cost.search_ns());
      listens += static_cast<double>(tc.listens);
      lost += static_cast<double>(tc.lost);
      resyncs += static_cast<double>(r.generations_advanced);
      ranges += static_cast<double>(n);
      const auto [data_reads, useful] = UsefulDsiReads(
          events, r.event_begin, r.event_end, city->schedule,
          [&](size_t g) -> const core::DsiIndex& { return *city->gens[g]; },
          r.ids);
      object_reads += static_cast<double>(data_reads);
      answers += static_cast<double>(useful);
    }
  }
  if (mismatches > 0) {
    report->Fail("city-dyn: " + std::to_string(mismatches) +
                 " replayed steps did not reproduce their byte metrics",
                 mismatches);
  }
  const double tn = static_cast<double>(traced_ns.size());
  report->Set("dsi.window.query_us_p50", Percentile(traced_ns, 50) * 1e-3);
  report->Set("dsi.window.query_us_p99",
              Percentile(traced_ns, TailPercentile(traced_ns.size())) * 1e-3);
  report->Set("dsi.window.search_self_us", search_ns / tn * 1e-3);
  report->Set("dsi.window.session_self_us", session_ns / tn * 1e-3);
  report->Set("dsi.window.reads_per_query", listens / tn);
  report->Set("dsi.window.useful_read_frac",
              object_reads > 0 ? answers / object_reads : 0.0);
  report->Set("hilbert.window_decomp_ns", plan_ns / tn);
  report->Set("hilbert.ranges_per_window", ranges / tn);
  report->Set("session.replay_ns_per_read",
              replay_reads > 0 ? session_ns / static_cast<double>(replay_reads)
                               : 0.0);
  report->Set("session.resyncs_per_step", resyncs / tn);
  report->Set("session.lost_reads_per_step", lost / tn);
  report->Set("trace.overhead_frac", traced_total / sample_ns - 1.0);
  Note("tracing overhead: traced sample steps took %.2f%% longer than the "
       "same steps untraced",
       (traced_total / sample_ns - 1.0) * 100.0);
}

}  // namespace perfbench
