#include "sim/conformance.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <initializer_list>
#include <iomanip>
#include <limits>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "air/family.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/trajectory.hpp"
#include "sim/workload.hpp"

namespace dsi::sim {

namespace {

constexpr std::pair<broadcast::ErrorMode, std::string_view> kErrorModes[] = {
    {broadcast::ErrorMode::kPerReadLoss, "read"},
    {broadcast::ErrorMode::kSingleEvent, "event"},
    {broadcast::ErrorMode::kPerBucketLoss, "bucket"},
    {broadcast::ErrorMode::kBurstLoss, "burst"},
};

/// The strict value parser of every flag: the whole of \p text must be one
/// value of T — a decimal integer in range, 0 or 1 for a switch, a finite
/// number, or an error-mode name. Leaves \p out as it was otherwise.
template <class T>
bool ParseValue(std::string_view text, T* out) {
  if constexpr (std::is_same_v<T, broadcast::ErrorMode>) {
    for (const auto& [mode, name] : kErrorModes) {
      if (name == text) {
        *out = mode;
        return true;
      }
    }
    return false;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (text != "0" && text != "1") return false;
    *out = text == "1";
    return true;
  } else {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) return false;
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) return false;
    }
    *out = value;
    return true;
  }
}

/// The flag table: every ConformanceCase field under its command-line flag,
/// in reproducer order. SetCaseFlag (and with it the fuzzer's parser and
/// sweep pins) and FormatReproducer all walk it, so each field is encoded
/// in one place.
template <class Case, class Visit>
void ForEachCaseFlag(Case& c, Visit&& visit) {
  visit("--seed", c.seed);
  visit("--n", c.n);
  visit("--order", c.order);
  visit("--capacity", c.capacity);
  visit("--clustered", c.clustered);
  visit("--m", c.m);
  visit("--object-factor", c.object_factor);
  visit("--chunk-size", c.chunk_size);
  visit("--theta", c.theta);
  visit("--error-mode", c.error_mode);
  visit("--workers", c.workers);
  visit("--windows", c.window_queries);
  visit("--knn-points", c.knn_points);
  visit("--k", c.k);
  visit("--duplicates", c.duplicates);
  visit("--generations", c.generations);
  visit("--updates", c.updates_per_gen);
  visit("--gen-cycles", c.gen_cycles);
  visit("--code-group", c.code_group);
  visit("--code-parity", c.code_parity);
  visit("--traj-clients", c.trajectory_clients);
  visit("--traj-steps", c.trajectory_steps);
  visit("--churn-rate", c.churn_rate);
  visit("--num-disks", c.num_disks);
  visit("--disk-skew", c.disk_skew);
  visit("--degenerate", c.degenerate);
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
  // Drawn whether or not the degenerate set runs, so the random kNN points
  // after it are the same either way.
  const common::Point on =
      objects[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(objects.size()) - 1))]
          .location;
  if (c.degenerate) {
    // Degenerate shapes, in fixed order after the random windows:
    // zero-area window sitting exactly on an object,
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
  }

  for (size_t i = 0; i < c.knn_points; ++i) {
    q.points.push_back(popularity.Sample(rng, u));
  }
  if (!c.degenerate) return q;
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

/// One query as the oracle sees it: a window, or a point and its k.
struct OracleQuery {
  QueryKind kind = QueryKind::kWindow;
  common::Rect window;
  common::Point point;
  size_t k = 0;
};

OracleQuery QueryAt(const Workload& wl, size_t i) {
  if (wl.kind == QueryKind::kWindow) return {wl.kind, wl.windows[i], {}, 0};
  return {wl.kind, {}, wl.points[i], wl.k};
}

OracleQuery QueryAt(const TrajectoryWorkload& wl, size_t client, size_t step) {
  if (wl.kind == QueryKind::kWindow) {
    return {wl.kind, wl.WindowAt(client, step), {}, 0};
  }
  return {wl.kind, {}, wl.clients[client][step], wl.k};
}

/// Per-result counts the engine's aggregates must equal.
struct Tally {
  size_t incomplete = 0;
  size_t repaired = 0;
};

/// The audit every result goes through — each one-shot query and both
/// sides of every trajectory step — with the context its divergences name.
struct ResultAudit {
  bool coded;  ///< Whether the channel carries parity.
  const std::string& family;
  std::string workload;
  const std::vector<std::vector<datasets::SpatialObject>>& gen_objects;
  ConformanceReport* report;

  void Diverge(size_t index, std::string detail) const {
    report->divergences.push_back(
        Divergence{family, workload, index, std::move(detail)});
  }

  /// One divergence at \p index naming every engine aggregate that differs
  /// from its count over the results: (name, engine, counted).
  void CheckCounts(
      size_t index,
      std::initializer_list<std::tuple<const char*, uint64_t, uint64_t>>
          counts) const {
    std::ostringstream os;
    for (const auto& [name, engine, counted] : counts) {
      if (engine != counted) os << ' ' << name << '=' << engine << '/' << counted;
    }
    if (os.tellp() > 0) {
      Diverge(index, "accounting mismatch (engine/results):" + os.str());
    }
  }

  /// Checks result \p r of query \p q (number \p index of the workload):
  /// no repairs on an uncoded channel, tuning <= latency, aborts listed and
  /// counted in \p tally (never compared), the generation stamp inside the
  /// schedule, and the oracle of the stamped generation. \p label ("warm ",
  /// "cold " or empty) opens every message.
  void Check(const QueryResult& r, const OracleQuery& q, size_t index,
             const std::string& label, Tally* tally) const {
    tally->repaired += r.repaired;
    // Repairs exist only on a coded channel: an uncoded run reporting one
    // means the engine invented parity out of thin air.
    if (!coded && r.repaired != 0) {
      Diverge(index, label + "repaired=" + std::to_string(r.repaired) +
                         " on an uncoded channel");
    }
    // A client can never have listened longer than the whole query took:
    // tuning <= latency must hold for EVERY result (aborted ones included),
    // at every theta — not just on the averages.
    if (r.tuning_bytes > r.latency_bytes) {
      Diverge(index, label + "byte invariant violated: tuning_bytes=" +
                         std::to_string(r.tuning_bytes) +
                         " > latency_bytes=" +
                         std::to_string(r.latency_bytes));
    }
    if (!r.completed) {
      ++tally->incomplete;
      report->incomplete_queries.push_back(
          Divergence{family, workload, index,
                     label + "aborted with " + std::to_string(r.ids.size()) +
                         " result ids"});
      return;
    }
    ++report->queries_checked;
    // The oracle object set is the one live at the result's last
    // (re)tune-in: its recorded generation.
    if (r.generation >= gen_objects.size()) {
      Diverge(index, label + "stamped with out-of-schedule generation " +
                         std::to_string(r.generation));
      return;
    }
    const std::vector<datasets::SpatialObject>& objects =
        gen_objects[r.generation];
    if (q.kind == QueryKind::kWindow) {
      const std::vector<uint32_t> oracle = OracleWindowIds(objects, q.window);
      if (oracle != r.ids) {
        Diverge(index, label + DescribeIdDiff(oracle, r.ids));
      }
    } else {
      const std::vector<double> oracle =
          OracleKnnDistances(objects, q.point, q.k);
      if (oracle != r.knn_distances) {
        Diverge(index, label + DescribeDistDiff(oracle, r.knn_distances));
      }
    }
  }
};

/// Runs one workload against one family over the case's schedule, audits
/// every result, and checks the aggregate accounting against the counts.
void CheckWorkload(const GenerationalIndex& gi, const Workload& wl,
                   const ConformanceCase& c, const ResultAudit& audit) {
  std::vector<QueryResult> results;
  RunOptions opt;
  opt.seed = c.seed;
  opt.workers = c.workers;
  opt.results = &results;
  opt.coding = CaseCoding(c);
  opt.disks = CaseDisks(c);
  const AvgMetrics metrics = GenerationalRun(gi, wl, opt);
  audit.report->restarted += metrics.restarted;

  Tally tally;
  for (size_t i = 0; i < results.size(); ++i) {
    audit.Check(results[i], QueryAt(wl, i), i, "", &tally);
  }
  // Exact incomplete accounting: the engine's aggregate must agree with the
  // per-query flags at EVERY theta, total loss included — silent
  // undercounting is how aborted queries masquerade as answered. The
  // sentinel index one past the workload marks a whole-run failure.
  audit.CheckCounts(results.size(),
                    {{"queries", metrics.queries, results.size()},
                     {"incomplete", metrics.incomplete, tally.incomplete},
                     {"repaired", metrics.repaired, tally.repaired}});
}

/// The continuous moving-client differential axis: persistent warm clients
/// re-evaluate along seed-determined trajectories; a fresh cold client
/// re-runs every step at the same instant over the same channel. Both sides
/// of every step go through the result audit; warm and cold must answer
/// identically whenever they answered for the same generation and both
/// completed; and the aggregate accounting must be exact on both paths.
/// With >= 2 clients, every client's steps must also equal its alone run
/// (RunEachClientAlone) bit for bit; on churned cases the axis audits the
/// exact departed/skipped accounting of clients that left mid-run.
void CheckTrajectories(const GenerationalIndex& gi, QueryKind kind,
                       const ConformanceCase& c, const ResultAudit& audit) {
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
  const uint64_t cycle = gi.generations[0]->program().cycle_packets();
  // Think time between re-evaluations: up to two cycles, so paced tours on
  // dynamic cases regularly doze across republication instants.
  wl.pace_packets =
      static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(2 * cycle)));
  if (c.churn_rate > 0.0) {
    // Presence spans over the generational horizon: arrivals replace the
    // uniform tune-in draw, departures cut tours short mid-run.
    const uint64_t horizon =
        cycle * std::max<uint64_t>(1, gi.generations.size() *
                                          std::max<uint64_t>(1, c.gen_cycles));
    wl.churn = datasets::MakeChurnStream(wl.clients.size(), horizon,
                                         c.churn_rate, c.seed * 13 + 9);
  }

  std::vector<std::vector<TrajectoryStep>> results;
  TrajectoryOptions opt;
  opt.seed = c.seed;
  opt.workers = c.workers;
  opt.cold_baseline = true;
  opt.results = &results;
  opt.coding = CaseCoding(c);
  opt.disks = CaseDisks(c);
  const TrajectoryMetrics m = RunTrajectories(gi, wl, opt);
  audit.report->restarted += m.restarted;
  const std::vector<std::vector<TrajectoryStep>> alone =
      wl.clients.size() >= 2
          ? RunEachClientAlone(gi, wl, opt)
          : std::vector<std::vector<TrajectoryStep>>{};

  Tally warm;
  Tally cold;
  size_t counted_steps = 0;
  size_t counted_skipped = 0;
  for (size_t cl = 0; cl < results.size(); ++cl) {
    for (size_t s = 0; s < results[cl].size(); ++s) {
      const TrajectoryStep& step = results[cl][s];
      const size_t index = cl * c.trajectory_steps + s;
      // A client's steps must not depend on the company it keeps: any
      // deviation from its alone run, in a flag or a single byte, is a
      // divergence.
      if (!alone.empty() && step != alone[cl][s]) {
        audit.Diverge(index, "alone parity: step differs between the "
                             "population run and the client's alone run");
      }
      if (!step.ran) {
        // A step a churned client departed before: it must carry no cost
        // at all — the result audit only applies to steps that touched
        // the channel.
        ++counted_skipped;
        if (step.warm.latency_bytes != 0 || step.warm.tuning_bytes != 0 ||
            step.cold.latency_bytes != 0 || !step.warm.ids.empty()) {
          audit.Diverge(index, "skipped step carries nonzero cost or results");
        }
        continue;
      }
      ++counted_steps;
      const OracleQuery q = QueryAt(wl, cl, s);
      audit.Check(step.warm, q, index, "warm ", &warm);
      audit.Check(step.cold, q, index, "cold ", &cold);
      // Warm/cold parity proper: same query, same instant, same channel —
      // a persistent client's learned knowledge must never change the
      // answer. (When the two straddled a republication differently each
      // is already checked against its own generation's oracle above.)
      if (step.warm.completed && step.cold.completed &&
          step.warm.generation == step.cold.generation) {
        if (kind == QueryKind::kWindow && step.warm.ids != step.cold.ids) {
          audit.Diverge(index, "warm/cold parity: " +
                                   DescribeIdDiff(step.cold.ids, step.warm.ids));
        }
        if (kind == QueryKind::kKnn &&
            step.warm.knn_distances != step.cold.knn_distances) {
          audit.Diverge(index,
                        "warm/cold parity: " +
                            DescribeDistDiff(step.cold.knn_distances,
                                             step.warm.knn_distances));
        }
      }
    }
  }
  // Exact churn accounting rides along: ran + skipped covers the workload
  // with nothing lost, a churn-free case never skips or departs, and the
  // departed count can never exceed the population.
  audit.CheckCounts(counted_steps,
                    {{"steps", m.steps, counted_steps},
                     {"incomplete", m.incomplete, warm.incomplete},
                     {"cold_incomplete", m.cold_incomplete, cold.incomplete},
                     {"repaired", m.repaired, warm.repaired},
                     {"cold_repaired", m.cold_repaired, cold.repaired},
                     {"skipped", m.skipped_steps, counted_skipped},
                     {"steps+skipped", m.steps + m.skipped_steps,
                      wl.num_steps()}});
  if (m.departed > wl.clients.size() ||
      (wl.churn.empty() && (m.departed != 0 || m.skipped_steps != 0))) {
    audit.Diverge(counted_steps,
                  "churn accounting: departed=" + std::to_string(m.departed) +
                      " skipped=" + std::to_string(m.skipped_steps) + " of " +
                      std::to_string(wl.clients.size()) + " clients" +
                      (wl.churn.empty() ? " without churn" : ""));
  }
}

void RunFamily(const std::vector<const air::AirIndexHandle*>& gens,
               const ConformanceCase& c, const std::string& family,
               const CaseQueries& q,
               const std::vector<std::vector<datasets::SpatialObject>>&
                   gen_objects,
               ConformanceReport* report) {
  // One schedule for every run of the case; a static case is one
  // generation airing one cycle, exactly what RunWorkload and the static
  // RunTrajectories run.
  const GenerationalIndex gi{
      gens, gens.size() == 1 ? std::vector<uint64_t>{1}
                             : std::vector<uint64_t>(
                                   gens.size(),
                                   std::max<uint32_t>(1, c.gen_cycles))};
  const bool coded = CaseCoding(c).enabled();
  const auto audit = [&](const char* workload) {
    return ResultAudit{coded, family, workload, gen_objects, report};
  };
  CheckWorkload(gi, Workload::Window(q.windows, c.theta, c.error_mode), c,
                audit("window"));
  CheckWorkload(gi,
                Workload::Knn(q.points, c.k, air::KnnStrategy::kConservative,
                              c.theta, c.error_mode),
                c, audit("knn"));
  CheckWorkload(gi,
                Workload::Knn(q.points, c.k, air::KnnStrategy::kAggressive,
                              c.theta, c.error_mode),
                c, audit("knn-aggressive"));
  CheckWorkload(gi,
                Workload::Knn(q.big_points, q.big_k,
                              air::KnnStrategy::kConservative, c.theta,
                              c.error_mode),
                c, audit("knn-big"));
  CheckTrajectories(gi, QueryKind::kWindow, c, audit("traj-window"));
  CheckTrajectories(gi, QueryKind::kKnn, c, audit("traj-knn"));
}

}  // namespace

std::vector<std::vector<TrajectoryStep>> RunEachClientAlone(
    const GenerationalIndex& index, const TrajectoryWorkload& workload,
    TrajectoryOptions options) {
  std::vector<std::vector<TrajectoryStep>> alone(workload.clients.size());
  std::vector<std::vector<TrajectoryStep>> steps;
  options.workers = 1;
  options.results = &steps;
  TrajectoryWorkload solo = workload;
  for (auto& path : solo.clients) path.clear();
  for (size_t c = 0; c < workload.clients.size(); ++c) {
    if (workload.clients[c].empty()) continue;
    solo.clients[c] = workload.clients[c];
    RunTrajectories(index, solo, options);
    alone[c] = std::move(steps[c]);
    solo.clients[c].clear();
  }
  return alone;
}

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

  // Structured coverage: consecutive seeds sweep m, error mode, worker
  // count, dynamic generations and the extreme-loss band deterministically;
  // the rest is random.
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
  const hilbert::SpaceMapper mapper(u, c.order);
  // The per-generation object sets and the update streams between them.
  const air::Generations gens = air::MakeGenerations(
      c.seed, std::max<uint32_t>(1, c.generations), c.updates_per_gen,
      [&c, &u](uint64_t seed) {
        if (c.duplicates) return MakeDuplicateHeavy(c.n, u, seed);
        if (c.clustered) {
          return datasets::MakeClustered(
              c.n, 2 + c.seed % 9,
              0.01 + 0.004 * static_cast<double>(c.seed % 10), 0.2, u, seed);
        }
        return datasets::MakeUniform(c.n, u, seed);
      });
  const CaseQueries q = MakeQueries(c, gens.objects[0]);
  const core::DsiConfig dsi{.object_factor = c.object_factor,
                            .num_segments = c.m};
  const expindex::ExpConfig exp{.chunk_size = c.chunk_size};

  ConformanceReport report;
  for (const air::Family family : air::kFamilies) {
    const std::string name(air::FamilyName(family));
    if (!families.empty() &&
        std::find(families.begin(), families.end(), name) == families.end()) {
      continue;
    }
    // Every DSI republication goes through the incremental path, so the
    // fuzzer oracle-checks it for free.
    const air::FamilyBroadcast broadcast(family, gens, mapper, c.capacity,
                                         dsi, exp);
    RunFamily(broadcast.handles(), c, name, q, gens.objects, &report);
  }
  return report;
}

std::string FormatReproducer(const ConformanceCase& c,
                             const std::string& family) {
  std::ostringstream os;
  // Round-trip precision for doubles: every loss coin compares a draw
  // against theta, so a truncated reproducer would replay a *different*
  // channel.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "conformance_fuzz --repro";
  ForEachCaseFlag(c, [&os](std::string_view flag, const auto& value) {
    os << ' ' << flag << '=';
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 broadcast::ErrorMode>) {
      for (const auto& [mode, name] : kErrorModes) {
        if (mode == value) os << name;
      }
    } else {
      os << value;
    }
  });
  if (!family.empty()) os << " --families=" << family;
  return os.str();
}

ConformanceCase SweepPins::CaseFor(uint64_t seed) const {
  ConformanceCase c = MakeConformanceCase(seed);
  c.generations = std::max(c.generations, min_generations);
  if (c.generations > 1) {
    c.updates_per_gen = std::max(c.updates_per_gen, min_updates);
  }
  for (const auto& [flag, value] : flags) SetCaseFlag(flag, value, &c);
  return c;
}

CaseFlag SetCaseFlag(std::string_view flag, std::string_view value,
                     ConformanceCase* c) {
  if (flag == "--clients") flag = "--traj-clients";
  CaseFlag result = CaseFlag::kUnknown;
  ForEachCaseFlag(*c, [&](std::string_view name, auto& field) {
    if (name == flag) {
      result = ParseValue(value, &field) ? CaseFlag::kSet
                                         : CaseFlag::kBadValue;
    }
  });
  return result;
}

bool ParseFlagValue(std::string_view text, uint64_t* out) {
  return ParseValue(text, out);
}

bool ParseFlagValue(std::string_view text, uint32_t* out) {
  return ParseValue(text, out);
}

bool ParseFlagValue(std::string_view text, int* out) {
  return ParseValue(text, out);
}

bool ParseFlagValue(std::string_view text, double* out) {
  return ParseValue(text, out);
}

}  // namespace dsi::sim
