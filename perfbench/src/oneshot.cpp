/// \file oneshot.cpp
/// \brief Workload oneshot-1e5: the paper's static experiment at 10^5
/// uniform objects, packet capacity 64 — DSI (m = 2), R-tree, HCI and the
/// exponential index, each answering fig9 windows (WinSideRatio 0.1) and
/// fig11 10NN queries at theta = 0 as one-shot tune-ins.
///
/// Closed loop: in rounds over the eight cells (family x kind), each cell
/// runs one batch of queries through sim::RunWorkload on a fixed worker
/// count, rotating over kPool batches, until the run's time share is spent;
/// a cell's throughput is the median over its calls (a rare pathological
/// query — HCI kNN next to a universe corner can read every object — then
/// costs one batch, not the cell's figure; the traced run's p99 and search
/// times still show it). A single-thread sample of the same queries, driven
/// by the benchmark with the engine's per-query seeding, gives per-query
/// times.
///
/// Checks: every query completes; a sample of results equals brute force
/// (window containment, kNN distance multiset); each sampled query's byte
/// metrics equal the engine's; repeated calls return identical averages;
/// and at the pinned seed the byte totals equal the values below.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "hci/hci.hpp"
#include "hilbert/space_mapper.hpp"
#include "rtree/rtree_air.hpp"
#include "sim/runner.hpp"
#include "sim/seed_mix.hpp"
#include "sim/workload.hpp"
#include "transport/transport.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dsi;

constexpr size_t kObjects = 100000;
constexpr size_t kCapacity = 64;
constexpr size_t kWorkers = 2;
constexpr size_t kK = 10;
constexpr size_t kCheckQueries = 256;   // engine results checked per cell
constexpr size_t kBatch = 64;           // queries per throughput call
constexpr size_t kPool = 16;            // distinct batches the loop rotates
constexpr size_t kLatencySample = 200;  // untraced per-query sample per cell
constexpr size_t kLatencyChunk = 14;    // of it, per throughput round
constexpr size_t kTracedSample = 1000;  // traced sample: p99 keeps 10 beyond
constexpr size_t kOracleSample = 32;    // brute-force-checked results per cell
constexpr int kSetups = 3;
/// Share of --seconds spent in the RunWorkload throughput loop.
constexpr double kThroughputShare = 0.6;

/// Byte totals (latency, tuning) of each cell's first kCheckQueries at
/// kPinnedSeed. The paper's metrics are results, not performance: a change
/// here is a behaviour change, never a speed-up.
struct Pinned {
  const char* cell;
  uint64_t latency_bytes;
  uint64_t tuning_bytes;
};
constexpr Pinned kPinned[] = {
    {"dsi.window", 18478776128, 300862208},
    {"dsi.knn", 14837972544, 20687744},
    {"rtree.window", 21727279104, 286223168},
    {"rtree.knn", 34835639872, 42285504},
    {"hci.window", 19876276224, 267361088},
    {"hci.knn", 41129846144, 17418944},
    {"expindex.window", 1356104442176, 352056000},
    {"expindex.knn", 327285524160, 24226048},
};

/// The dataset and the four air indexes built over it.
struct Battery {
  std::vector<datasets::SpatialObject> objects;
  std::unique_ptr<hilbert::SpaceMapper> mapper;
  std::unique_ptr<core::DsiIndex> dsi;
  std::unique_ptr<rtree::RtreeIndex> rtree;
  std::unique_ptr<hci::HciIndex> hci;
  std::unique_ptr<air::ExpHandle> exp;
  std::unique_ptr<air::DsiHandle> dsi_air;
  std::unique_ptr<air::RtreeHandle> rtree_air;
  std::unique_ptr<air::HciHandle> hci_air;
  double gen_s = 0, dsi_s = 0, rtree_s = 0, hci_s = 0, exp_s = 0, total_s = 0;
};

std::unique_ptr<Battery> Build(uint64_t seed, SpanRecorder* rec) {
  auto b = std::make_unique<Battery>();
  const common::Rect u = datasets::UnitUniverse();
  SpanRecorder::Scope scope(*rec, "setup");
  const uint64_t t0 = NowNs();
  b->gen_s = Timed(rec, "datasets.MakeUniform", [&] {
    b->objects = datasets::MakeUniform(kObjects, u, sim::MixSeed(seed, 1));
  });
  b->mapper = std::make_unique<hilbert::SpaceMapper>(
      u, hilbert::ChooseOrder(kObjects));
  core::DsiConfig cfg;
  cfg.num_segments = 2;
  b->dsi_s = Timed(rec, "core.DsiIndex", [&] {
    b->dsi = std::make_unique<core::DsiIndex>(b->objects, *b->mapper,
                                              kCapacity, cfg);
  });
  b->rtree_s = Timed(rec, "rtree.RtreeIndex", [&] {
    b->rtree = std::make_unique<rtree::RtreeIndex>(b->objects, kCapacity);
  });
  b->hci_s = Timed(rec, "hci.HciIndex", [&] {
    b->hci =
        std::make_unique<hci::HciIndex>(b->objects, *b->mapper, kCapacity);
  });
  b->exp_s = Timed(rec, "air.ExpHandle", [&] {
    b->exp =
        std::make_unique<air::ExpHandle>(b->objects, *b->mapper, kCapacity);
  });
  b->dsi_air = std::make_unique<air::DsiHandle>(*b->dsi);
  b->rtree_air = std::make_unique<air::RtreeHandle>(*b->rtree);
  b->hci_air = std::make_unique<air::HciHandle>(*b->hci);
  b->total_s = SecondsSince(t0);
  return b;
}

struct Cell {
  std::string name;
  const air::AirIndexHandle* handle = nullptr;
  /// The curve the family plans with; null for the R-tree (no planning).
  const hilbert::SpaceMapper* mapper = nullptr;
  sim::Workload all;  // every query the cell may run
  /// Queries [first, first + count) of the cell as a workload of their own
  /// (query i of the slice is seeded as query i by the engine).
  sim::Workload Slice(size_t first, size_t count) const {
    sim::Workload w = all;
    const auto b = static_cast<ptrdiff_t>(first);
    const auto e = static_cast<ptrdiff_t>(first + count);
    if (w.kind == sim::QueryKind::kWindow) {
      w.windows.assign(all.windows.begin() + b, all.windows.begin() + e);
    } else {
      w.points.assign(all.points.begin() + b, all.points.begin() + e);
    }
    return w;
  }
};

struct OneQuery {
  broadcast::Metrics metrics;
  air::ClientStats stats;
  std::vector<datasets::SpatialObject> answer;
  uint64_t ns = 0;
};

sim::RunOptions EngineOptions(uint64_t run_seed, size_t workers) {
  sim::RunOptions opt;
  opt.seed = run_seed;
  opt.workers = workers;
  return opt;
}

/// The engine's tune-in for query i: first draw of the index-forked rng.
uint64_t TuneIn(common::Rng& rng, uint64_t cycle) {
  return static_cast<uint64_t>(
      rng.UniformInt(0, static_cast<int64_t>(cycle) - 1));
}

/// Query \p i of the cell exactly as sim::RunWorkload runs it (same seed
/// fork, tune-in draw and session rng), optionally traced.
OneQuery RunOne(const Cell& cell, size_t i, uint64_t run_seed,
                transport::SimTransport& channel, air::ClientArena& arena,
                std::vector<broadcast::TraceEvent>* trace,
                SpanRecorder* rec) {
  OneQuery out;
  const sim::Workload& wl = cell.all;
  const uint64_t t0 = NowNs();
  const int32_t span = rec->Begin("air.query", i);
  common::Rng rng(sim::MixSeed(run_seed, i));
  const uint64_t tune_in = TuneIn(rng, cell.handle->program().cycle_packets());
  broadcast::ClientSession session(
      channel, tune_in, broadcast::ErrorModel{wl.theta, wl.error_mode},
      rng.Fork());
  if (trace != nullptr) session.set_trace(trace);
  {
    SpanRecorder::Scope probe(*rec, "session.InitialProbe", i);
    session.InitialProbe();
  }
  air::AirClient* client = cell.handle->MakeClientIn(arena, &session);
  if (wl.kind == sim::QueryKind::kWindow) {
    SpanRecorder::Scope search(*rec, "air.WindowQuery", i);
    out.answer = client->WindowQuery(wl.windows[i]);
  } else {
    SpanRecorder::Scope search(*rec, "air.KnnQuery", i);
    out.answer = client->KnnQuery(wl.points[i], wl.k, wl.strategy);
  }
  out.metrics = session.metrics();
  out.stats = client->stats();
  rec->End(span);
  out.ns = NowNs() - t0;
  return out;
}

/// Replays query \p i's recorded listens through a bare session with the
/// same tune-in, error model and rng; returns the replay time and whether
/// the bare session reproduced \p want exactly.
uint64_t Replay(const Cell& cell, size_t i, uint64_t run_seed,
                transport::SimTransport& channel,
                const std::vector<broadcast::TraceEvent>& events,
                const broadcast::Metrics& want, size_t* reads, bool* same,
                SpanRecorder* rec) {
  SpanRecorder::Scope scope(*rec, "session.replay", i);
  const uint64_t t0 = NowNs();
  common::Rng rng(sim::MixSeed(run_seed, i));
  const uint64_t tune_in = TuneIn(rng, cell.handle->program().cycle_packets());
  broadcast::ClientSession bare(
      channel, tune_in,
      broadcast::ErrorModel{cell.all.theta, cell.all.error_mode}, rng.Fork());
  bare.InitialProbe();
  *reads = ReplayListens(bare, events, 0, events.size());
  const uint64_t dt = NowNs() - t0;
  *same = SameMetrics(bare.metrics(), want);
  return dt;
}

bool OracleWindow(const std::vector<datasets::SpatialObject>& objects,
                  const common::Rect& w, const sim::QueryResult& r) {
  std::vector<uint32_t> want;
  for (const auto& o : objects) {
    if (w.Contains(o.location)) want.push_back(o.id);
  }
  std::sort(want.begin(), want.end());
  return want == r.ids;
}

bool OracleKnn(const std::vector<datasets::SpatialObject>& objects,
               const common::Point& q, size_t k, const sim::QueryResult& r) {
  std::vector<double> d;
  d.reserve(objects.size());
  for (const auto& o : objects) d.push_back(common::Distance(q, o.location));
  const size_t kk = std::min(k, d.size());
  std::partial_sort(d.begin(), d.begin() + static_cast<ptrdiff_t>(kk),
                    d.end());
  d.resize(kk);
  return d == r.knn_distances;
}

/// Everything measured for one cell.
struct CellStats {
  std::vector<sim::QueryResult> results;  // the checked head of the cell
  std::vector<double> qps_samples;        // one per throughput call
  double qps = 0;
  std::vector<double> sample_ns;  // untraced single-thread per-query times
  std::vector<double> traced_ns;
  double session_ns = 0, plan_ns = 0, search_ns = 0;
  double reads = 0, answers = 0, object_reads = 0;
  size_t replay_reads = 0;
  double plan_count = 0, ranges = 0;
  double traced_head_ns = 0;  // traced time of the untraced sample's queries
};

/// Runs the cell's first kCheckQueries queries once through the engine,
/// capturing every result, and checks them: completion, brute force on a
/// sample, and the pinned byte totals at kPinnedSeed.
void CheckCell(const Cell& cell, const Battery& b, const Args& args,
               uint64_t run_seed, CellStats* st, Report* report,
               SpanRecorder* rec) {
  const sim::Workload head = cell.Slice(0, kCheckQueries);
  sim::RunOptions opt = EngineOptions(run_seed, kWorkers);
  opt.results = &st->results;
  {
    SpanRecorder::Scope scope(*rec, "sim.RunWorkload");
    sim::RunWorkload(*cell.handle, head, opt);
  }
  report->Attempt(kCheckQueries);
  const bool is_window = head.kind == sim::QueryKind::kWindow;
  uint64_t lat_sum = 0;
  uint64_t tun_sum = 0;
  for (size_t i = 0; i < st->results.size(); ++i) {
    const sim::QueryResult& r = st->results[i];
    lat_sum += r.latency_bytes;
    tun_sum += r.tuning_bytes;
    if (!r.completed) report->Fail(cell.name + ": query incomplete");
    if (i < kOracleSample &&
        !(is_window ? OracleWindow(b.objects, head.windows[i], r)
                    : OracleKnn(b.objects, head.points[i], kK, r))) {
      report->Fail(cell.name + ": result differs from brute force at query " +
                   std::to_string(i));
    }
  }
  Note("%-16s pinned {\"%s\", %llu, %llu},", cell.name.c_str(),
       cell.name.c_str(), static_cast<unsigned long long>(lat_sum),
       static_cast<unsigned long long>(tun_sum));
  if (args.seed == kPinnedSeed) {
    for (const Pinned& p : kPinned) {
      if (cell.name == p.cell &&
          (p.latency_bytes != lat_sum || p.tuning_bytes != tun_sum)) {
        report->Fail(cell.name + ": byte metrics differ from the pinned values");
      }
    }
  }
}

/// Untraced single-thread times of queries [begin, end) of every cell; each
/// sampled query's byte metrics must equal the engine's.
void LatencyChunk(const std::vector<Cell>& cells, uint64_t run_seed,
                  size_t begin, size_t end, std::vector<CellStats>* stats,
                  Report* report) {
  air::ClientArena arena;
  SpanRecorder off(false);
  for (size_t c = 0; c < cells.size(); ++c) {
    CellStats& st = (*stats)[c];
    transport::SimTransport channel(cells[c].handle->program());
    for (size_t i = begin; i < end; ++i) {
      const OneQuery q =
          RunOne(cells[c], i, run_seed, channel, arena, nullptr, &off);
      st.sample_ns.push_back(static_cast<double>(q.ns));
      if (q.metrics.access_latency_bytes != st.results[i].latency_bytes ||
          q.metrics.tuning_bytes != st.results[i].tuning_bytes) {
        report->Fail(cells[c].name + ": sampled query " + std::to_string(i) +
                     " disagrees with the engine's byte metrics");
      }
    }
  }
  report->Attempt((end - begin) * cells.size());
}

/// The closed loop, in rounds over all cells: one kBatch-query RunWorkload
/// call per cell (batch r mod kPool), then the next kLatencyChunk queries
/// of every cell single-threaded. Interleaving spreads any stretch of
/// machine noise over every cell and both figures instead of one. Rounds go
/// on until the budget is spent and the latency sample is complete; each
/// cell reports the median over its calls. A batch seen before must return
/// the same averages.
void Measure(const std::vector<Cell>& cells, uint64_t run_seed,
             double budget_s, std::vector<CellStats>* stats, Report* report,
             SpanRecorder* rec) {
  std::vector<std::vector<sim::Workload>> batches(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    for (size_t p = 0; p < kPool; ++p) {
      batches[c].push_back(cells[c].Slice(p * kBatch, kBatch));
    }
  }
  std::vector<std::vector<sim::AvgMetrics>> seen(
      cells.size(), std::vector<sim::AvgMetrics>(kPool));
  const sim::RunOptions opt = EngineOptions(run_seed, kWorkers);
  size_t sampled = 0;
  const uint64_t start = NowNs();
  for (size_t round = 0;
       SecondsSince(start) < budget_s || sampled < kLatencySample; ++round) {
    const size_t p = round % kPool;
    for (size_t c = 0; c < cells.size(); ++c) {
      const uint64_t t0 = NowNs();
      sim::AvgMetrics m;
      {
        SpanRecorder::Scope scope(*rec, "sim.RunWorkload");
        m = sim::RunWorkload(*cells[c].handle, batches[c][p], opt);
      }
      const double dt = SecondsSince(t0);
      report->Attempt(kBatch);
      if (m.incomplete != 0) report->Fail(cells[c].name + ": query incomplete");
      if (round < kPool) {
        seen[c][p] = m;
      } else if (m.latency_bytes != seen[c][p].latency_bytes ||
                 m.tuning_bytes != seen[c][p].tuning_bytes) {
        report->Fail(cells[c].name + ": repeated RunWorkload call disagrees");
      }
      (*stats)[c].qps_samples.push_back(static_cast<double>(m.queries) / dt);
    }
    report->host().Sample();
    const size_t next = std::min(kLatencySample, sampled + kLatencyChunk);
    LatencyChunk(cells, run_seed, sampled, next, stats, report);
    sampled = next;
  }
  for (CellStats& st : *stats) st.qps = Median(st.qps_samples);
}

/// Traced sample: each query run traced, replayed through a bare session,
/// and re-planned; search is what remains of the query time.
void TracedSample(const Cell& cell, uint64_t run_seed, CellStats* st,
                  Report* report, SpanRecorder* rec) {
  transport::SimTransport channel(cell.handle->program());
  air::ClientArena arena;
  const bool is_window = cell.all.kind == sim::QueryKind::kWindow;
  SpanRecorder::Scope cell_span(*rec, "cell.traced_sample");
  std::vector<broadcast::TraceEvent> events;
  std::vector<hilbert::HcRange> ranges;
  for (size_t i = 0; i < kTracedSample; ++i) {
    events.clear();
    const OneQuery q = RunOne(cell, i, run_seed, channel, arena, &events, rec);
    QueryCost cost;
    cost.query_ns = q.ns;
    size_t reads = 0;
    bool same = false;
    cost.session_ns = Replay(cell, i, run_seed, channel, events, q.metrics,
                             &reads, &same, rec);
    if (!same) {
      report->Fail(cell.name + ": replay of query " + std::to_string(i) +
                   " did not reproduce its byte metrics");
    }
    if (i < st->results.size() &&
        (q.metrics.access_latency_bytes != st->results[i].latency_bytes ||
         q.metrics.tuning_bytes != st->results[i].tuning_bytes)) {
      report->Fail(cell.name + ": traced query " + std::to_string(i) +
                   " disagrees with the engine's byte metrics");
    }
    if (cell.mapper != nullptr) {
      SpanRecorder::Scope plan(*rec, "hilbert.plan", i);
      if (is_window) {
        size_t n = 0;
        cost.plan_ns =
            PlanWindow(*cell.mapper, cell.all.windows[i], &ranges, &n);
        st->ranges += static_cast<double>(n);
      } else {
        double radius = 0;
        for (const auto& o : q.answer) {
          radius = std::max(radius,
                            common::Distance(cell.all.points[i], o.location));
        }
        cost.plan_ns =
            PlanCircle(*cell.mapper, cell.all.points[i], radius, &ranges);
      }
      st->plan_count += 1;
    }
    st->traced_ns.push_back(static_cast<double>(cost.query_ns));
    if (i < kLatencySample) st->traced_head_ns += static_cast<double>(q.ns);
    st->session_ns += static_cast<double>(cost.session_ns);
    st->plan_ns += static_cast<double>(cost.plan_ns);
    st->search_ns += static_cast<double>(cost.search_ns());
    st->replay_reads += reads;
    st->reads +=
        static_cast<double>(q.stats.index_reads + q.stats.object_reads);
    st->object_reads += static_cast<double>(q.stats.object_reads);
    st->answers += static_cast<double>(q.answer.size());
  }
  report->Attempt(kTracedSample);
}

/// Engine cost per query: the cell's first kLatencySample queries through
/// sim::RunWorkload on one worker minus the same queries driven by the
/// benchmark's own loop; the median difference over alternating rounds.
double EngineOverheadNs(const Cell& cell, uint64_t run_seed,
                        SpanRecorder* rec) {
  constexpr int kRounds = 5;
  const sim::Workload head = cell.Slice(0, kLatencySample);
  transport::SimTransport channel(cell.handle->program());
  air::ClientArena arena;
  SpanRecorder off(false);
  std::vector<double> diff;
  for (int r = 0; r < kRounds; ++r) {
    uint64_t t0 = NowNs();
    for (size_t i = 0; i < head.size(); ++i) {
      RunOne(cell, i, run_seed, channel, arena, nullptr, &off);
    }
    const double bench_ns = static_cast<double>(NowNs() - t0);
    t0 = NowNs();
    {
      SpanRecorder::Scope scope(*rec, "sim.RunWorkload");
      sim::RunWorkload(*cell.handle, head, EngineOptions(run_seed, 1));
    }
    const double engine_ns = static_cast<double>(NowNs() - t0);
    diff.push_back((engine_ns - bench_ns) / static_cast<double>(head.size()));
  }
  return Median(diff);
}

}  // namespace

void RunOneshot(const Args& args, Report* report, SpanRecorder* rec) {
  const common::Rect u = datasets::UnitUniverse();

  for (int i = 0; i < kCalibrationsBefore; ++i) report->host().Sample();
  std::vector<double> setup_s, gen_s, dsi_s, rtree_s, hci_s, exp_s;
  std::unique_ptr<Battery> b;
  for (int s = 0; s < kSetups; ++s) {
    b.reset();
    b = Build(args.seed, rec);
    setup_s.push_back(b->total_s);
    gen_s.push_back(b->gen_s);
    dsi_s.push_back(b->dsi_s);
    rtree_s.push_back(b->rtree_s);
    hci_s.push_back(b->hci_s);
    exp_s.push_back(b->exp_s);
  }

  const size_t n = std::max({kPool * kBatch, kCheckQueries, kLatencySample,
                             kTracedSample});
  const auto windows =
      sim::MakeWindowWorkload(n, 0.1, u, sim::MixSeed(args.seed, 2));
  const auto points = sim::MakeKnnWorkload(n, u, sim::MixSeed(args.seed, 3));
  const uint64_t run_seed = sim::MixSeed(args.seed, 4);

  std::vector<Cell> cells;
  const std::pair<const char*, const air::AirIndexHandle*> families[] = {
      {"dsi", b->dsi_air.get()},
      {"rtree", b->rtree_air.get()},
      {"hci", b->hci_air.get()},
      {"expindex", b->exp.get()}};
  for (const auto& [fam, handle] : families) {
    for (const bool window : {true, false}) {
      Cell c;
      c.name = std::string(fam) + (window ? ".window" : ".knn");
      c.handle = handle;
      c.mapper = std::string(fam) == "rtree" ? nullptr : b->mapper.get();
      c.all = window ? sim::Workload::Window(windows)
                     : sim::Workload::Knn(points, kK);
      cells.push_back(std::move(c));
    }
  }

  std::vector<CellStats> stats(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    CheckCell(cells[c], *b, args, run_seed, &stats[c], report, rec);
  }
  Measure(cells, run_seed, args.seconds * kThroughputShare, &stats, report,
          rec);
  if (args.trace) {
    for (size_t c = 0; c < cells.size(); ++c) {
      TracedSample(cells[c], run_seed, &stats[c], report, rec);
    }
  }

  // End to end.
  const double tail = TailPercentile(kLatencySample);
  std::vector<double> qps, p50, ptail;
  Note("setup: median of %d set-ups; qps: median over each cell's calls of "
       "%zu queries; latency: %zu single-thread queries per cell, tail = p%g",
       kSetups, kBatch, kLatencySample, tail);
  Note("%-16s %10s %6s %10s %10s", "cell", "qps", "calls", "p50_ms",
       "tail_ms");
  for (size_t i = 0; i < cells.size(); ++i) {
    qps.push_back(stats[i].qps);
    p50.push_back(Percentile(stats[i].sample_ns, 50) * 1e-6);
    ptail.push_back(Percentile(stats[i].sample_ns, tail) * 1e-6);
    Note("%-16s %10.1f %6zu %10.4f %10.4f", cells[i].name.c_str(), qps.back(),
         stats[i].qps_samples.size(), p50.back(), ptail.back());
  }
  report->SetTime("setup_s", Median(setup_s));
  report->SetRate("ops_per_s", GeoMean(qps));
  report->SetTime("op_ms_p50", GeoMean(p50));
  report->SetTime("op_ms_p95", GeoMean(ptail));

  // Per layer.
  report->Set("datasets.gen_s", Median(gen_s));
  report->Set("dsi.build_s", Median(dsi_s));
  report->Set("rtree.build_s", Median(rtree_s));
  report->Set("hci.build_s", Median(hci_s));
  report->Set("expindex.build_s", Median(exp_s));
  double win_plan = 0, win_n = 0, win_ranges = 0, circ_plan = 0, circ_n = 0;
  double replay_ns = 0, replay_reads = 0, eff = 0;
  double traced_head = 0, untraced_head = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellStats& s = stats[i];
    const std::string& c = cells[i].name;
    const double tn = static_cast<double>(s.traced_ns.size());
    report->Set(c + "_qps", s.qps);
    if (cells[i].all.kind == sim::QueryKind::kWindow) {
      win_plan += s.plan_ns;
      win_n += s.plan_count;
      win_ranges += s.ranges;
    } else {
      circ_plan += s.plan_ns;
      circ_n += s.plan_count;
    }
    const double single_qps = 1e9 / Mean(s.sample_ns);
    eff += s.qps / (static_cast<double>(kWorkers) * single_qps);
    replay_ns += s.session_ns;
    replay_reads += static_cast<double>(s.replay_reads);
    traced_head += s.traced_head_ns;
    for (double x : s.sample_ns) untraced_head += x;
    if (tn == 0) continue;
    report->Set(c + ".query_us_p50", Percentile(s.traced_ns, 50) * 1e-3);
    report->Set(c + ".query_us_p99",
                Percentile(s.traced_ns, TailPercentile(s.traced_ns.size())) *
                    1e-3);
    report->Set(c + ".search_self_us", s.search_ns / tn * 1e-3);
    report->Set(c + ".session_self_us", s.session_ns / tn * 1e-3);
    report->Set(c + ".reads_per_query", s.reads / tn);
    report->Set(c + ".useful_read_frac",
                s.object_reads > 0 ? s.answers / s.object_reads : 0.0);
  }
  const double nc = static_cast<double>(cells.size());
  if (win_n > 0) {
    report->Set("hilbert.window_decomp_ns", win_plan / win_n);
    report->Set("hilbert.ranges_per_window", win_ranges / win_n);
  }
  if (circ_n > 0) report->Set("hilbert.circle_decomp_ns", circ_plan / circ_n);
  if (replay_reads > 0) {
    report->Set("session.replay_ns_per_read", replay_ns / replay_reads);
  }
  report->Set("sim.parallel_efficiency", eff / nc);
  if (args.trace) {
    // Engine overhead is family-independent; the cheapest cell resolves it.
    size_t fastest = 0;
    for (size_t i = 1; i < cells.size(); ++i) {
      if (stats[i].qps > stats[fastest].qps) fastest = i;
    }
    report->Set("sim.engine_ns_per_query",
                EngineOverheadNs(cells[fastest], run_seed, rec));
    report->Set("trace.overhead_frac", traced_head / untraced_head - 1.0);
    Note("tracing overhead: traced sample queries took %.2f%% longer than "
         "the same queries untraced",
         (traced_head / untraced_head - 1.0) * 100.0);
  }
}

}  // namespace perfbench
