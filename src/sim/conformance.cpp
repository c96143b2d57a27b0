#include "sim/conformance.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>

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
#include "sim/trajectory.hpp"
#include "sim/workload.hpp"

namespace dsi::sim {

namespace {

const char* ModeName(broadcast::ErrorMode mode) {
  switch (mode) {
    case broadcast::ErrorMode::kPerReadLoss: return "read";
    case broadcast::ErrorMode::kSingleEvent: return "event";
    case broadcast::ErrorMode::kPerBucketLoss: return "bucket";
    case broadcast::ErrorMode::kBurstLoss: return "burst";
  }
  return "read";
}

broadcast::CodingConfig CaseCoding(const ConformanceCase& c) {
  return broadcast::CodingConfig{c.code_group, c.code_parity};
}

broadcast::DiskConfig CaseDisks(const ConformanceCase& c) {
  broadcast::DiskConfig d;
  d.num_disks = c.num_disks;
  d.skew = c.disk_skew;
  d.pop_seed = c.seed * 31 + 7;  // shared with the skewed query streams
  return d;
}

/// The region-popularity distribution of the case — matched to CaseDisks,
/// so skewed queries hit exactly the regions the multi-disk cycle favors.
/// With disk_skew = 0 (every non-disk case) Sample degenerates to the
/// plain uniform draws, keeping those cases' query streams byte-identical.
datasets::RegionPopularity CasePopularity(const ConformanceCase& c) {
  return datasets::RegionPopularity(broadcast::DiskConfig{}.grid, c.disk_skew,
                                    c.seed * 31 + 7);
}

/// The query mix of one case: window workload plus three kNN workloads.
struct CaseQueries {
  std::vector<common::Rect> windows;
  std::vector<common::Point> points;      // small-k workloads
  std::vector<common::Point> big_points;  // k >= n workload
  size_t big_k = 0;
};

/// Duplicate-heavy dataset: coincident points share exact coordinates, so
/// their Hilbert keys are identical — equal-key runs span frames/chunks and
/// kNN answers carry tied distance multisets.
std::vector<datasets::SpatialObject> MakeDuplicateHeavy(
    size_t n, const common::Rect& u, uint64_t seed) {
  common::Rng rng(seed);
  const size_t sites = std::max<size_t>(1, n / 5);
  std::vector<common::Point> locs;
  locs.reserve(sites);
  for (size_t s = 0; s < sites; ++s) {
    locs.push_back(common::Point{rng.Uniform(u.min_x, u.max_x),
                                 rng.Uniform(u.min_y, u.max_y)});
  }
  std::vector<datasets::SpatialObject> objs;
  objs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto s = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(sites) - 1));
    objs.push_back(datasets::SpatialObject{static_cast<uint32_t>(i), locs[s]});
  }
  return objs;
}

CaseQueries MakeQueries(const ConformanceCase& c,
                        const std::vector<datasets::SpatialObject>& objects) {
  const common::Rect u = datasets::UnitUniverse();
  common::Rng rng(c.seed * 0x9E3779B97F4A7C15ull + 0x51D);
  const datasets::RegionPopularity popularity = CasePopularity(c);
  CaseQueries q;

  for (size_t i = 0; i < c.window_queries; ++i) {
    const common::Point center = popularity.Sample(rng, u);
    q.windows.push_back(common::MakeClippedWindow(
        center, rng.Uniform(0.02, 0.6) * u.Width(), u));
  }
  // Degenerate shapes, in fixed order after the random windows:
  // zero-area window sitting exactly on an object,
  const common::Point on =
      objects[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(objects.size()) - 1))]
          .location;
  q.windows.push_back(common::Rect{on.x, on.y, on.x, on.y});
  // window fully outside the universe,
  q.windows.push_back(common::Rect{u.max_x + 0.5, u.max_y + 0.5,
                                   u.max_x + 1.0, u.max_y + 1.0});
  // window overhanging the lower-left corner,
  q.windows.push_back(common::Rect{u.min_x - 0.3, u.min_y - 0.3,
                                   u.min_x + 0.2, u.min_y + 0.2});
  // window strictly containing the universe.
  q.windows.push_back(common::Rect{u.min_x - 1.0, u.min_y - 1.0,
                                   u.max_x + 1.0, u.max_y + 1.0});

  for (size_t i = 0; i < c.knn_points; ++i) {
    q.points.push_back(popularity.Sample(rng, u));
  }
  // Degenerate points: slightly outside the universe, far outside, exactly
  // on a universe corner, and exactly on an object.
  q.points.push_back(
      common::Point{u.max_x + rng.Uniform(0.05, 0.3), u.min_y - 0.1});
  q.points.push_back(
      common::Point{u.min_x - rng.Uniform(1.5, 4.0), u.max_y + 2.0});
  q.points.push_back(common::Point{u.max_x, u.max_y});
  q.points.push_back(
      objects[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(objects.size()) - 1))]
          .location);

  // k >= dataset size must return every object. One inside point plus the
  // far-outside degenerate: the bug-4 class (coverage radius too small)
  // only manifests when k >= n AND q lies outside the universe.
  q.big_points.push_back(q.points.front());
  q.big_points.push_back(q.points[c.knn_points + 1]);  // far-outside point
  q.big_k = objects.size() + 3;
  return q;
}

std::vector<uint32_t> OracleWindowIds(
    const std::vector<datasets::SpatialObject>& objects,
    const common::Rect& window) {
  std::vector<uint32_t> oracle;
  for (const auto& o : objects) {
    if (window.Contains(o.location)) oracle.push_back(o.id);
  }
  std::sort(oracle.begin(), oracle.end());
  return oracle;
}

std::vector<double> OracleKnnDistances(
    const std::vector<datasets::SpatialObject>& objects,
    const common::Point& q, size_t k) {
  std::vector<double> oracle;
  oracle.reserve(objects.size());
  for (const auto& o : objects) {
    oracle.push_back(common::Distance(q, o.location));
  }
  std::sort(oracle.begin(), oracle.end());
  oracle.resize(std::min(k, oracle.size()));
  return oracle;
}

std::string DescribeIdDiff(const std::vector<uint32_t>& oracle,
                           const std::vector<uint32_t>& got) {
  std::vector<uint32_t> missing;
  std::set_difference(oracle.begin(), oracle.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::vector<uint32_t> extra;
  std::set_difference(got.begin(), got.end(), oracle.begin(), oracle.end(),
                      std::back_inserter(extra));
  std::ostringstream os;
  os << "oracle=" << oracle.size() << " got=" << got.size();
  os << " missing={";
  for (size_t i = 0; i < missing.size() && i < 8; ++i) {
    os << (i != 0 ? "," : "") << missing[i];
  }
  if (missing.size() > 8) os << ",...";
  os << "} extra={";
  for (size_t i = 0; i < extra.size() && i < 8; ++i) {
    os << (i != 0 ? "," : "") << extra[i];
  }
  if (extra.size() > 8) os << ",...";
  os << "}";
  return os.str();
}

std::string DescribeDistDiff(const std::vector<double>& oracle,
                             const std::vector<double>& got) {
  std::ostringstream os;
  os << "oracle=" << oracle.size() << " got=" << got.size();
  const size_t common_n = std::min(oracle.size(), got.size());
  for (size_t i = 0; i < common_n; ++i) {
    if (oracle[i] != got[i]) {
      os << " first mismatch at [" << i << "]: oracle=" << oracle[i]
         << " got=" << got[i];
      break;
    }
  }
  return os.str();
}

/// Runs one workload against one family (all generations), comparing each
/// completed query to the oracle of the generation it answered for, and
/// auditing the aggregate incomplete accounting against the per-query
/// completed flags.
void CheckWorkload(const std::vector<const air::AirIndexHandle*>& gens,
                   const Workload& wl, const ConformanceCase& c,
                   const std::string& family,
                   const std::string& workload_name,
                   const std::vector<std::vector<datasets::SpatialObject>>&
                       gen_objects,
                   ConformanceReport* report) {
  std::vector<QueryResult> results;
  RunOptions opt;
  opt.seed = c.seed;
  opt.workers = c.workers;
  opt.heap_clients = c.heap_clients;
  opt.results = &results;
  opt.coding = CaseCoding(c);
  opt.disks = CaseDisks(c);
  AvgMetrics metrics;
  if (gens.size() == 1) {
    metrics = RunWorkload(*gens[0], wl, opt);
  } else {
    GenerationalIndex gi;
    gi.generations = gens;
    gi.cycles.assign(gens.size(), std::max<uint64_t>(1, c.gen_cycles));
    metrics = GenerationalRun(gi, wl, opt);
  }
  report->restarted += metrics.restarted;

  size_t counted_incomplete = 0;
  size_t counted_repaired = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const QueryResult& r = results[i];
    counted_repaired += r.repaired;
    // Repairs exist only on a coded channel: an uncoded run reporting one
    // means the engine invented parity out of thin air.
    if (!opt.coding.enabled() && r.repaired != 0) {
      report->divergences.push_back(
          Divergence{family, workload_name, i,
                     "repaired=" + std::to_string(r.repaired) +
                         " on an uncoded channel"});
    }
    // A client can never have listened longer than the whole query took:
    // tuning <= latency must hold for EVERY query (aborted ones included),
    // at every theta — not just on the workload averages.
    if (r.tuning_bytes > r.latency_bytes) {
      std::ostringstream os;
      os << "per-query byte invariant violated: tuning_bytes="
         << r.tuning_bytes << " > latency_bytes=" << r.latency_bytes;
      report->divergences.push_back(
          Divergence{family, workload_name, i, os.str()});
    }
    if (!r.completed) {
      ++counted_incomplete;
      ++report->incomplete;
      std::ostringstream os;
      os << "aborted with " << r.ids.size() << " result ids";
      report->incomplete_queries.push_back(
          Divergence{family, workload_name, i, os.str()});
      continue;
    }
    ++report->queries_checked;
    // The oracle object set is the one live at the query's last
    // (re)tune-in: its recorded generation.
    if (r.generation >= gen_objects.size()) {
      report->divergences.push_back(
          Divergence{family, workload_name, i,
                     "result stamped with out-of-schedule generation " +
                         std::to_string(r.generation)});
      continue;
    }
    const std::vector<datasets::SpatialObject>& objects =
        gen_objects[r.generation];
    if (wl.kind == QueryKind::kWindow) {
      const std::vector<uint32_t> oracle =
          OracleWindowIds(objects, wl.windows[i]);
      if (oracle != r.ids) {
        report->divergences.push_back(Divergence{
            family, workload_name, i, DescribeIdDiff(oracle, r.ids)});
      }
    } else {
      const std::vector<double> oracle =
          OracleKnnDistances(objects, wl.points[i], wl.k);
      if (oracle != r.knn_distances) {
        report->divergences.push_back(Divergence{
            family, workload_name, i,
            DescribeDistDiff(oracle, r.knn_distances)});
      }
    }
  }
  // Exact incomplete accounting: the engine's aggregate must agree with the
  // per-query flags at EVERY theta, total loss included — silent
  // undercounting is how aborted queries masquerade as answered.
  if (metrics.incomplete != counted_incomplete ||
      metrics.queries != results.size() ||
      metrics.repaired != counted_repaired) {
    std::ostringstream os;
    os << "aggregate accounting mismatch: AvgMetrics{queries="
       << metrics.queries << ", incomplete=" << metrics.incomplete
       << ", repaired=" << metrics.repaired << "} vs results{n="
       << results.size() << ", incomplete=" << counted_incomplete
       << ", repaired=" << counted_repaired << "}";
    // Sentinel index one past the workload: this is a whole-run accounting
    // failure, not a defect of any individual query's result set.
    report->divergences.push_back(
        Divergence{family, workload_name, results.size(), os.str()});
  }
}

bool SameQueryResult(const QueryResult& a, const QueryResult& b) {
  return a.ids == b.ids && a.knn_distances == b.knn_distances &&
         a.completed == b.completed && a.generation == b.generation &&
         a.restarts == b.restarts && a.latency_bytes == b.latency_bytes &&
         a.tuning_bytes == b.tuning_bytes && a.repaired == b.repaired;
}

/// Bit-exact loop-vs-scheduler differential: the two simulation cores ran
/// the identical workload; any deviation — a metric, a flag, a single byte
/// of any step result — is a divergence. Exact double comparison is
/// deliberate: both engines accumulate the same integer sums in the same
/// shard order, so the averages must be the same doubles.
void CheckEngineParity(const TrajectoryMetrics& loop,
                       const TrajectoryMetrics& sched,
                       const std::vector<std::vector<TrajectoryStep>>& loop_r,
                       const std::vector<std::vector<TrajectoryStep>>& sched_r,
                       const std::string& family,
                       const std::string& workload_name,
                       ConformanceReport* report) {
  if (loop.latency_bytes != sched.latency_bytes ||
      loop.tuning_bytes != sched.tuning_bytes ||
      loop.cold_latency_bytes != sched.cold_latency_bytes ||
      loop.cold_tuning_bytes != sched.cold_tuning_bytes ||
      loop.clients != sched.clients || loop.steps != sched.steps ||
      loop.incomplete != sched.incomplete ||
      loop.restarted != sched.restarted ||
      loop.cold_incomplete != sched.cold_incomplete ||
      loop.repaired != sched.repaired ||
      loop.cold_repaired != sched.cold_repaired ||
      loop.departed != sched.departed ||
      loop.skipped_steps != sched.skipped_steps) {
    std::ostringstream os;
    os << "engine parity: scheduler metrics deviate from the loop oracle:"
       << " steps " << loop.steps << "/" << sched.steps << ", latency "
       << loop.latency_bytes << "/" << sched.latency_bytes << ", tuning "
       << loop.tuning_bytes << "/" << sched.tuning_bytes << ", departed "
       << loop.departed << "/" << sched.departed << ", skipped "
       << loop.skipped_steps << "/" << sched.skipped_steps;
    report->divergences.push_back(
        Divergence{family, workload_name, 0, os.str()});
  }
  if (loop_r.size() != sched_r.size()) {
    report->divergences.push_back(
        Divergence{family, workload_name, 0,
                   "engine parity: result shapes differ"});
    return;
  }
  for (size_t cl = 0; cl < loop_r.size(); ++cl) {
    if (loop_r[cl].size() != sched_r[cl].size()) {
      report->divergences.push_back(
          Divergence{family, workload_name, cl,
                     "engine parity: per-client step counts differ"});
      continue;
    }
    for (size_t s = 0; s < loop_r[cl].size(); ++s) {
      const TrajectoryStep& a = loop_r[cl][s];
      const TrajectoryStep& b = sched_r[cl][s];
      if (a.ran != b.ran || !SameQueryResult(a.warm, b.warm) ||
          !SameQueryResult(a.cold, b.cold)) {
        std::ostringstream os;
        os << "engine parity: client " << cl << " step " << s
           << " differs between loop and scheduler (ran " << a.ran << "/"
           << b.ran << ")";
        report->divergences.push_back(
            Divergence{family, workload_name, cl, os.str()});
      }
    }
  }
}

/// The continuous moving-client differential axis: persistent warm clients
/// re-evaluate along seed-determined trajectories; a fresh cold client
/// re-runs every step at the same instant over the same channel. Warm and
/// cold must answer identically whenever they answered for the same
/// generation and both completed; both must match their generation's
/// oracle; every step must satisfy tuning <= latency; and the aggregate
/// incomplete accounting must be exact on both paths. The axis also runs
/// the event-driven scheduler engine against the loop oracle on every seed
/// (bit-exact parity), and — on churned cases — audits the exact
/// departed/skipped accounting of clients that left mid-run.
void CheckTrajectories(const std::vector<const air::AirIndexHandle*>& gens,
                       QueryKind kind, const ConformanceCase& c,
                       const std::string& family,
                       const std::string& workload_name,
                       const std::vector<std::vector<datasets::SpatialObject>>&
                           gen_objects,
                       ConformanceReport* report) {
  if (c.trajectory_clients == 0 || c.trajectory_steps == 0) return;
  const common::Rect u = datasets::UnitUniverse();
  common::Rng rng(c.seed * 0x9E3779B97F4A7C15ull + 0x7EA);
  datasets::TrajectoryParams params;
  params.model = c.seed % 2 == 0 ? datasets::TrajectoryModel::kRandomWaypoint
                                 : datasets::TrajectoryModel::kGaussianStep;
  params.speed = rng.Uniform(0.01, 0.15);
  params.sigma = rng.Uniform(0.005, 0.08);
  if (c.disk_skew > 0.0) {
    // Skewed-broadcast cases orbit the hottest region, so the tours keep
    // querying the buckets the multi-disk cycle repeats.
    params.model = datasets::TrajectoryModel::kHotspotWaypoint;
    params.hotspot = CasePopularity(c).HottestCenter(u);
    params.hotspot_sigma = 0.15;
  }
  TrajectoryWorkload wl =
      MakeTrajectoryWorkload(kind, c.trajectory_clients, c.trajectory_steps,
                             params, u, c.seed * 7 + 5);
  wl.window_side = rng.Uniform(0.05, 0.4) * u.Width();
  wl.k = c.k;
  wl.theta = c.theta;
  wl.error_mode = c.error_mode;
  // Think time between re-evaluations: up to two cycles, so paced tours on
  // dynamic cases regularly doze across republication instants.
  wl.pace_packets = static_cast<uint64_t>(rng.UniformInt(
      0, static_cast<int64_t>(2 * gens[0]->program().cycle_packets())));
  if (c.churn_rate > 0.0) {
    // Presence spans over the generational horizon: arrivals replace the
    // uniform tune-in draw, departures cut tours short mid-run.
    const uint64_t horizon =
        gens[0]->program().cycle_packets() *
        std::max<uint64_t>(1, gens.size() *
                                  std::max<uint64_t>(1, c.gen_cycles));
    wl.churn = datasets::MakeChurnStream(wl.clients.size(), horizon,
                                         c.churn_rate, c.seed * 13 + 9);
  }

  // Every seed runs BOTH simulation cores over the identical workload: the
  // loop oracle and the event-driven scheduler must agree bit for bit on
  // the aggregate metrics and on every per-step result.
  std::vector<std::vector<TrajectoryStep>> results;
  std::vector<std::vector<TrajectoryStep>> sched_results;
  TrajectoryOptions opt;
  opt.seed = c.seed;
  opt.workers = c.workers;
  opt.heap_clients = c.heap_clients;
  opt.cold_baseline = true;
  opt.results = &results;
  opt.coding = CaseCoding(c);
  opt.disks = CaseDisks(c);
  opt.engine = TrajectoryEngine::kLoop;
  TrajectoryOptions sched_opt = opt;
  sched_opt.results = &sched_results;
  sched_opt.engine = TrajectoryEngine::kScheduler;
  TrajectoryMetrics m;
  TrajectoryMetrics sched_m;
  if (gens.size() == 1) {
    m = RunTrajectories(*gens[0], wl, opt);
    sched_m = RunTrajectories(*gens[0], wl, sched_opt);
  } else {
    GenerationalIndex gi;
    gi.generations = gens;
    gi.cycles.assign(gens.size(), std::max<uint64_t>(1, c.gen_cycles));
    m = RunTrajectories(gi, wl, opt);
    sched_m = RunTrajectories(gi, wl, sched_opt);
  }
  report->restarted += m.restarted;
  CheckEngineParity(m, sched_m, results, sched_results, family,
                    workload_name, report);

  size_t counted_incomplete = 0;
  size_t counted_cold_incomplete = 0;
  size_t counted_steps = 0;
  size_t counted_skipped = 0;
  size_t counted_repaired = 0;
  size_t counted_cold_repaired = 0;
  for (size_t cl = 0; cl < results.size(); ++cl) {
    for (size_t s = 0; s < results[cl].size(); ++s) {
      const TrajectoryStep& step = results[cl][s];
      const size_t index = cl * c.trajectory_steps + s;
      if (!step.ran) {
        // A step a churned client departed before: it must carry no cost
        // at all — the oracle audits below only apply to steps that
        // touched the channel.
        ++counted_skipped;
        if (step.warm.latency_bytes != 0 || step.warm.tuning_bytes != 0 ||
            step.cold.latency_bytes != 0 || !step.warm.ids.empty()) {
          report->divergences.push_back(
              Divergence{family, workload_name, index,
                         "skipped step carries nonzero cost or results"});
        }
        continue;
      }
      ++counted_steps;
      counted_repaired += step.warm.repaired;
      counted_cold_repaired += step.cold.repaired;
      if (!opt.coding.enabled() &&
          (step.warm.repaired != 0 || step.cold.repaired != 0)) {
        report->divergences.push_back(
            Divergence{family, workload_name, index,
                       "repaired step counters on an uncoded channel"});
      }
      // Both paths go through the full per-result audit: byte invariant,
      // generation stamp, oracle of the stamped generation.
      struct Side {
        const QueryResult* r;
        const char* label;
      };
      for (const Side side : {Side{&step.warm, "warm"},
                              Side{&step.cold, "cold"}}) {
        const QueryResult& r = *side.r;
        if (r.tuning_bytes > r.latency_bytes) {
          std::ostringstream os;
          os << side.label << " step byte invariant violated: tuning_bytes="
             << r.tuning_bytes << " > latency_bytes=" << r.latency_bytes;
          report->divergences.push_back(
              Divergence{family, workload_name, index, os.str()});
        }
        if (!r.completed) {
          if (side.r == &step.warm) ++counted_incomplete;
          else ++counted_cold_incomplete;
          std::ostringstream os;
          os << side.label << " step aborted with " << r.ids.size()
             << " result ids";
          report->incomplete_queries.push_back(
              Divergence{family, workload_name, index, os.str()});
          continue;
        }
        ++report->queries_checked;
        if (r.generation >= gen_objects.size()) {
          report->divergences.push_back(Divergence{
              family, workload_name, index,
              std::string(side.label) +
                  " step stamped with out-of-schedule generation " +
                  std::to_string(r.generation)});
          continue;
        }
        const auto& objects = gen_objects[r.generation];
        if (kind == QueryKind::kWindow) {
          const std::vector<uint32_t> oracle =
              OracleWindowIds(objects, wl.WindowAt(cl, s));
          if (oracle != r.ids) {
            report->divergences.push_back(
                Divergence{family, workload_name, index,
                           std::string(side.label) + " " +
                               DescribeIdDiff(oracle, r.ids)});
          }
        } else {
          const std::vector<double> oracle =
              OracleKnnDistances(objects, wl.clients[cl][s], wl.k);
          if (oracle != r.knn_distances) {
            report->divergences.push_back(
                Divergence{family, workload_name, index,
                           std::string(side.label) + " " +
                               DescribeDistDiff(oracle, r.knn_distances)});
          }
        }
      }
      // Warm/cold parity proper: same query, same instant, same channel —
      // a persistent client's learned knowledge must never change the
      // answer. (When the two straddled a republication differently each
      // is already checked against its own generation's oracle above.)
      if (step.warm.completed && step.cold.completed &&
          step.warm.generation == step.cold.generation) {
        if (kind == QueryKind::kWindow && step.warm.ids != step.cold.ids) {
          report->divergences.push_back(
              Divergence{family, workload_name, index,
                         "warm/cold parity: " +
                             DescribeIdDiff(step.cold.ids, step.warm.ids)});
        }
        if (kind == QueryKind::kKnn &&
            step.warm.knn_distances != step.cold.knn_distances) {
          report->divergences.push_back(Divergence{
              family, workload_name, index,
              "warm/cold parity: " +
                  DescribeDistDiff(step.cold.knn_distances,
                                   step.warm.knn_distances)});
        }
      }
    }
  }
  // Exact churn accounting rides along: ran + skipped covers the workload
  // with nothing lost, a churn-free case never skips or departs, and the
  // departed count can never exceed the population.
  if (m.incomplete != counted_incomplete ||
      m.cold_incomplete != counted_cold_incomplete ||
      m.steps != counted_steps || m.repaired != counted_repaired ||
      m.cold_repaired != counted_cold_repaired ||
      m.skipped_steps != counted_skipped ||
      m.steps + m.skipped_steps != wl.num_steps() ||
      m.departed > wl.clients.size() ||
      (wl.churn.empty() && (m.departed != 0 || m.skipped_steps != 0))) {
    std::ostringstream os;
    os << "trajectory accounting mismatch: TrajectoryMetrics{steps="
       << m.steps << ", incomplete=" << m.incomplete
       << ", cold_incomplete=" << m.cold_incomplete
       << ", repaired=" << m.repaired
       << ", cold_repaired=" << m.cold_repaired
       << ", departed=" << m.departed
       << ", skipped=" << m.skipped_steps << "} vs results{steps="
       << counted_steps << ", incomplete=" << counted_incomplete
       << ", cold_incomplete=" << counted_cold_incomplete
       << ", repaired=" << counted_repaired
       << ", cold_repaired=" << counted_cold_repaired
       << ", skipped=" << counted_skipped
       << ", workload=" << wl.num_steps() << "}";
    report->divergences.push_back(
        Divergence{family, workload_name, counted_steps, os.str()});
  }
}

void RunFamily(const std::vector<const air::AirIndexHandle*>& gens,
               const ConformanceCase& c, const std::string& family,
               const CaseQueries& q,
               const std::vector<std::vector<datasets::SpatialObject>>&
                   gen_objects,
               ConformanceReport* report) {
  CheckWorkload(gens, Workload::Window(q.windows, c.theta, c.error_mode), c,
                family, "window", gen_objects, report);
  CheckWorkload(gens,
                Workload::Knn(q.points, c.k, air::KnnStrategy::kConservative,
                              c.theta, c.error_mode),
                c, family, "knn", gen_objects, report);
  CheckWorkload(gens,
                Workload::Knn(q.points, c.k, air::KnnStrategy::kAggressive,
                              c.theta, c.error_mode),
                c, family, "knn-aggressive", gen_objects, report);
  CheckWorkload(gens,
                Workload::Knn(q.big_points, q.big_k,
                              air::KnnStrategy::kConservative, c.theta,
                              c.error_mode),
                c, family, "knn-big", gen_objects, report);
  CheckTrajectories(gens, QueryKind::kWindow, c, family, "traj-window",
                    gen_objects, report);
  CheckTrajectories(gens, QueryKind::kKnn, c, family, "traj-knn",
                    gen_objects, report);
}

bool WantFamily(const std::vector<std::string>& families,
                const std::string& name) {
  if (families.empty()) return true;
  return std::find(families.begin(), families.end(), name) != families.end();
}

}  // namespace

ConformanceCase MakeConformanceCase(uint64_t seed) {
  ConformanceCase c;
  c.seed = seed;
  common::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC0F);

  // Tiny datasets and coarse grids are where degenerate paths live
  // (single-frame broadcasts, empty index tables, massive HC duplication).
  c.n = static_cast<size_t>(rng.Bernoulli(0.15) ? rng.UniformInt(2, 12)
                                                : rng.UniformInt(30, 500));
  c.order = static_cast<int>(rng.UniformInt(2, 8));
  const size_t capacities[] = {64, 128, 256, 512};
  c.capacity = capacities[static_cast<size_t>(rng.UniformInt(0, 3))];
  c.clustered = rng.Bernoulli(0.35);
  c.duplicates = rng.Bernoulli(0.2);  // coincident-point case family

  // Structured coverage: consecutive seeds sweep m, error mode, allocation
  // mode, worker count, dynamic generations and the extreme-loss band
  // deterministically; the rest is random.
  c.m = static_cast<uint32_t>(1 + seed % 3);
  switch ((seed / 3) % 4) {
    case 0: c.error_mode = broadcast::ErrorMode::kPerReadLoss; break;
    case 1: c.error_mode = broadcast::ErrorMode::kSingleEvent; break;
    case 2: c.error_mode = broadcast::ErrorMode::kPerBucketLoss; break;
    case 3: c.error_mode = broadcast::ErrorMode::kBurstLoss; break;
  }
  // Coded channel on alternating seed blocks (seed arithmetic, not rng
  // draws, so every other axis derivation is untouched): group sizes 2-4,
  // parity 1-2 — covers XOR-style single parity, 2-erasure codes and the
  // short wrap-around group whenever the cycle length is not a multiple.
  if ((seed / 6) % 2 == 1) {
    c.code_group = 2 + static_cast<uint32_t>(seed % 3);
    c.code_parity = 1 + static_cast<uint32_t>((seed / 9) % 2);
  }
  // Multi-disk (Broadcast-Disks) cycles on a slice of the seed blocks,
  // independent of the coding blocks: where both draw, the parity protects
  // the multi-disk cycle's physical airings. 2 and 3 frequency tiers both
  // appear, under moderate and strong Zipf skew; the case's
  // query/trajectory streams then draw from the matching skewed
  // distribution (CasePopularity), so hot buckets are actually queried.
  if ((seed / 14) % 2 == 1) {
    c.num_disks = 2 + static_cast<uint32_t>((seed / 15) % 2);
    c.disk_skew = seed % 2 == 0 ? 0.8 : 1.4;
  }
  // Theta: half the seeds are clean; lossy seeds mostly stay in the
  // must-complete band (<= 0.7), with a deterministic extreme-loss band in
  // (0.7, 1.0] where only completed-query correctness and exact incomplete
  // accounting are asserted (watchdog aborts are legitimate there).
  const bool extreme = seed % 2 == 1 && (seed / 16) % 8 == 3;
  if (seed % 2 == 0) {
    c.theta = 0.0;
  } else if (extreme) {
    c.theta = rng.Bernoulli(0.2) ? 1.0 : rng.Uniform(0.7, 1.0);
    // Aborted queries burn their full watchdog budget; cap the dataset so
    // extreme cases stay affordable.
    c.n = std::min<size_t>(c.n, 100);
  } else {
    c.theta = rng.Uniform(0.05, 0.7);
  }
  c.workers = 1 + (seed / 2) % 2;
  c.heap_clients = (seed / 4) % 2 == 1;

  // Dynamic broadcasts: every fourth block of five seeds runs 3-4
  // generations with a non-trivial update stream between them.
  if ((seed / 5) % 4 == 1) {
    c.generations = 3 + static_cast<uint32_t>(seed % 2);
    c.updates_per_gen = static_cast<uint32_t>(rng.UniformInt(
        1, std::max<int64_t>(2, static_cast<int64_t>(c.n / 8))));
    c.gen_cycles = 1 + static_cast<uint32_t>((seed / 7) % 3);
  }

  const double of_draw = rng.Uniform(0.0, 1.0);
  c.object_factor =
      of_draw < 0.55 ? 1
                     : (of_draw < 0.85
                            ? static_cast<uint32_t>(rng.UniformInt(2, 8))
                            : 0);  // 0 = packet-driven derivation
  c.chunk_size = static_cast<uint32_t>(rng.UniformInt(1, 4));
  c.k = static_cast<size_t>(rng.UniformInt(1, 12));

  // Continuous moving-client axis: small tours on every seed (seed
  // arithmetic, not rng draws, so the existing case derivation above is
  // untouched). Extreme-loss cases keep the axis minimal — every aborted
  // step burns a full watchdog budget.
  c.trajectory_clients = 1 + static_cast<uint32_t>((seed / 11) % 2);
  c.trajectory_steps = 3 + static_cast<uint32_t>((seed / 13) % 3);
  if (extreme) {
    c.trajectory_clients = 1;
    c.trajectory_steps = 2;
  }
  // Churned populations on a quarter of the seeds (seed arithmetic again):
  // moderate and total churn both appear; the remaining seeds keep the
  // churn-free population, which must stay bit-identical to builds without
  // the churn axis at all.
  switch ((seed / 17) % 4) {
    case 1: c.churn_rate = 0.5; break;
    case 3: c.churn_rate = 1.0; break;
    default: break;
  }
  return c;
}

ConformanceReport RunConformanceCase(const ConformanceCase& c,
                                     const std::vector<std::string>& families) {
  const common::Rect u = datasets::UnitUniverse();
  auto base =
      c.duplicates
          ? MakeDuplicateHeavy(c.n, u, c.seed * 3 + 1)
          : (c.clustered
                 ? datasets::MakeClustered(
                       c.n, 2 + c.seed % 9,
                       0.01 + 0.004 * static_cast<double>(c.seed % 10), 0.2, u,
                       c.seed * 3 + 1)
                 : datasets::MakeUniform(c.n, u, c.seed * 3 + 1));
  const hilbert::SpaceMapper mapper(u, c.order);
  const CaseQueries q = MakeQueries(c, base);

  // The per-generation object sets and the update streams between them;
  // generation 0 is the base dataset.
  const uint32_t num_gens = std::max<uint32_t>(1, c.generations);
  std::vector<std::vector<datasets::SpatialObject>> gen_objects;
  gen_objects.push_back(std::move(base));
  std::vector<std::vector<datasets::UpdateOp>> gen_ops;
  for (uint32_t g = 1; g < num_gens; ++g) {
    gen_ops.push_back(datasets::MakeUpdateStream(
        gen_objects.back(), c.updates_per_gen, u, c.seed * 0x51ED + g));
    gen_objects.push_back(
        datasets::ApplyUpdates(gen_objects.back(), gen_ops.back()));
  }

  ConformanceReport report;
  if (WantFamily(families, "dsi")) {
    core::DsiConfig cfg;
    cfg.num_segments = c.m;
    cfg.object_factor = c.object_factor;
    // Generation 0 is a full build; every republication goes through the
    // incremental path, so the fuzzer oracle-checks it for free.
    std::vector<std::unique_ptr<core::DsiIndex>> indexes;
    indexes.push_back(std::make_unique<core::DsiIndex>(gen_objects[0], mapper,
                                                       c.capacity, cfg));
    for (uint32_t g = 1; g < num_gens; ++g) {
      indexes.push_back(std::make_unique<core::DsiIndex>(
          core::DsiIndex::Republish(*indexes.back(), gen_ops[g - 1])));
    }
    std::vector<air::DsiHandle> handles;
    handles.reserve(indexes.size());
    for (const auto& index : indexes) handles.emplace_back(*index);
    std::vector<const air::AirIndexHandle*> gens;
    for (const auto& h : handles) gens.push_back(&h);
    RunFamily(gens, c, "dsi", q, gen_objects, &report);
  }
  if (WantFamily(families, "rtree")) {
    std::vector<std::unique_ptr<rtree::RtreeIndex>> indexes;
    for (uint32_t g = 0; g < num_gens; ++g) {
      indexes.push_back(
          std::make_unique<rtree::RtreeIndex>(gen_objects[g], c.capacity));
    }
    std::vector<air::RtreeHandle> handles;
    handles.reserve(indexes.size());
    for (const auto& index : indexes) handles.emplace_back(*index);
    std::vector<const air::AirIndexHandle*> gens;
    for (const auto& h : handles) gens.push_back(&h);
    RunFamily(gens, c, "rtree", q, gen_objects, &report);
  }
  if (WantFamily(families, "hci")) {
    std::vector<std::unique_ptr<hci::HciIndex>> indexes;
    for (uint32_t g = 0; g < num_gens; ++g) {
      indexes.push_back(std::make_unique<hci::HciIndex>(gen_objects[g], mapper,
                                                        c.capacity));
    }
    std::vector<air::HciHandle> handles;
    handles.reserve(indexes.size());
    for (const auto& index : indexes) handles.emplace_back(*index);
    std::vector<const air::AirIndexHandle*> gens;
    for (const auto& h : handles) gens.push_back(&h);
    RunFamily(gens, c, "hci", q, gen_objects, &report);
  }
  if (WantFamily(families, "expindex")) {
    expindex::ExpConfig cfg;
    cfg.chunk_size = c.chunk_size;
    std::vector<std::unique_ptr<air::ExpHandle>> handles;
    for (uint32_t g = 0; g < num_gens; ++g) {
      handles.push_back(std::make_unique<air::ExpHandle>(gen_objects[g],
                                                         mapper, c.capacity,
                                                         cfg));
    }
    std::vector<const air::AirIndexHandle*> gens;
    for (const auto& h : handles) gens.push_back(h.get());
    RunFamily(gens, c, "expindex", q, gen_objects, &report);
  }
  return report;
}

std::string FormatReproducer(const ConformanceCase& c,
                             const std::string& family) {
  std::ostringstream os;
  // Round-trip precision for theta: every loss coin compares a draw against
  // it, so a truncated reproducer would replay a *different* channel.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "conformance_fuzz --repro --seed=" << c.seed << " --n=" << c.n
     << " --order=" << c.order << " --capacity=" << c.capacity
     << " --clustered=" << (c.clustered ? 1 : 0) << " --m=" << c.m
     << " --object-factor=" << c.object_factor
     << " --chunk-size=" << c.chunk_size << " --theta=" << c.theta
     << " --error-mode=" << ModeName(c.error_mode)
     << " --workers=" << c.workers << " --heap=" << (c.heap_clients ? 1 : 0)
     << " --windows=" << c.window_queries << " --knn-points=" << c.knn_points
     << " --k=" << c.k << " --duplicates=" << (c.duplicates ? 1 : 0)
     << " --generations=" << c.generations
     << " --updates=" << c.updates_per_gen
     << " --gen-cycles=" << c.gen_cycles
     << " --code-group=" << c.code_group
     << " --code-parity=" << c.code_parity
     << " --traj-clients=" << c.trajectory_clients
     << " --traj-steps=" << c.trajectory_steps
     << " --churn-rate=" << c.churn_rate
     << " --num-disks=" << c.num_disks << " --disk-skew=" << c.disk_skew;
  if (!family.empty()) os << " --families=" << family;
  return os.str();
}

}  // namespace dsi::sim
