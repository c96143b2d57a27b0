#include "datasets/datasets.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace dsi::datasets {

namespace {

common::Point ClampToUniverse(common::Point p, const common::Rect& u) {
  p.x = std::clamp(p.x, u.min_x, u.max_x);
  p.y = std::clamp(p.y, u.min_y, u.max_y);
  return p;
}

// Reflect a coordinate that stepped outside back across the boundary (then
// clamp: a pathological sigma could overshoot the far side too).
double Reflect(double v, double lo, double hi) {
  if (v < lo) v = lo + (lo - v);
  if (v > hi) v = hi - (v - hi);
  return std::clamp(v, lo, hi);
}

// Index of the grid x grid region containing p; out-of-universe points
// clamp to the nearest region.
size_t RegionOf(const common::Point& p, const common::Rect& u, uint32_t grid) {
  auto cell = [&](double v, double lo, double extent) -> uint32_t {
    if (extent <= 0.0) return 0;
    const double f = (v - lo) / extent * grid;
    const auto c = static_cast<int64_t>(std::floor(f));
    return static_cast<uint32_t>(
        std::clamp<int64_t>(c, 0, static_cast<int64_t>(grid) - 1));
  };
  return static_cast<size_t>(cell(p.y, u.min_y, u.Height())) * grid +
         cell(p.x, u.min_x, u.Width());
}

}  // namespace

void KeepNearest(const common::Point& q, size_t k,
                 std::vector<SpatialObject>* objects) {
  std::sort(objects->begin(), objects->end(),
            [&](const SpatialObject& a, const SpatialObject& b) {
              return NearerFirst(common::SquaredDistance(q, a.location), a.id,
                                 common::SquaredDistance(q, b.location), b.id);
            });
  if (objects->size() > k) objects->resize(k);
}

common::Rect UnitUniverse() { return common::Rect{0.0, 0.0, 1.0, 1.0}; }

std::vector<SpatialObject> MakeUniform(size_t n, const common::Rect& universe,
                                       uint64_t seed) {
  common::Rng rng(seed);
  std::vector<SpatialObject> objs;
  objs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    objs.push_back(SpatialObject{
        static_cast<uint32_t>(i),
        common::Point{rng.Uniform(universe.min_x, universe.max_x),
                      rng.Uniform(universe.min_y, universe.max_y)}});
  }
  return objs;
}

std::vector<SpatialObject> MakeClustered(size_t n, size_t num_clusters,
                                         double spread,
                                         double background_fraction,
                                         const common::Rect& universe,
                                         uint64_t seed) {
  common::Rng rng(seed);
  std::vector<common::Point> centers;
  centers.reserve(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    centers.push_back(
        common::Point{rng.Uniform(universe.min_x, universe.max_x),
                      rng.Uniform(universe.min_y, universe.max_y)});
  }
  const double sx = spread * universe.Width();
  const double sy = spread * universe.Height();
  std::vector<SpatialObject> objs;
  objs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    common::Point p;
    if (rng.Bernoulli(background_fraction) || centers.empty()) {
      p = common::Point{rng.Uniform(universe.min_x, universe.max_x),
                        rng.Uniform(universe.min_y, universe.max_y)};
    } else {
      const auto c = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(centers.size()) - 1));
      p = ClampToUniverse(common::Point{rng.Gaussian(centers[c].x, sx),
                                        rng.Gaussian(centers[c].y, sy)},
                          universe);
    }
    objs.push_back(SpatialObject{static_cast<uint32_t>(i), p});
  }
  return objs;
}

std::vector<SpatialObject> MakeRealLike(uint64_t seed) {
  // 5848 points: ~55 town clusters strung along three circular arcs
  // (coastline-like skew) plus ~12% sparse inland background.
  constexpr size_t kN = 5848;
  constexpr size_t kClusters = 55;
  const common::Rect universe = UnitUniverse();
  common::Rng rng(seed);

  struct Arc {
    common::Point center;
    double radius;
    double from;   // radians
    double to;     // radians
    double share;  // fraction of clusters on this arc
  };
  const Arc arcs[] = {
      {{0.35, 0.55}, 0.30, 0.0, 2.0 * M_PI, 0.45},
      {{0.70, 0.30}, 0.22, 0.5, 4.5, 0.35},
      {{0.25, 0.20}, 0.15, 1.0, 5.5, 0.20},
  };

  std::vector<common::Point> centers;
  centers.reserve(kClusters);
  for (const Arc& arc : arcs) {
    const auto k = static_cast<size_t>(std::round(arc.share * kClusters));
    for (size_t i = 0; i < k && centers.size() < kClusters; ++i) {
      const double t = rng.Uniform(arc.from, arc.to);
      const double r = arc.radius * (1.0 + rng.Gaussian(0.0, 0.08));
      centers.push_back(ClampToUniverse(
          common::Point{arc.center.x + r * std::cos(t),
                        arc.center.y + r * std::sin(t)},
          universe));
    }
  }
  while (centers.size() < kClusters) {
    centers.push_back(common::Point{rng.Uniform(0.0, 1.0),
                                    rng.Uniform(0.0, 1.0)});
  }

  std::vector<SpatialObject> objs;
  objs.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    common::Point p;
    if (rng.Bernoulli(0.12)) {
      p = common::Point{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    } else {
      const auto c = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(centers.size()) - 1));
      // Town-sized spread: dense cores with occasional outskirts.
      const double s = rng.Bernoulli(0.2) ? 0.035 : 0.012;
      p = ClampToUniverse(common::Point{rng.Gaussian(centers[c].x, s),
                                        rng.Gaussian(centers[c].y, s)},
                          universe);
    }
    objs.push_back(SpatialObject{static_cast<uint32_t>(i), p});
  }
  return objs;
}

RegionPopularity::RegionPopularity(uint32_t grid, double skew, uint64_t seed)
    : grid_(std::max<uint32_t>(1, grid)), skew_(skew) {
  const size_t regions = static_cast<size_t>(grid_) * grid_;
  // The seed picks where "downtown" sits; ranks then grow with distance
  // from it, so popularity is spatially coherent — a hot region's
  // neighbors are warm, the way a real city center's surroundings are.
  // (A random rank permutation would leave every query window straddling
  // hot and cold regions, since a window spans several grid cells.)
  common::Rng rng(seed);
  const auto hx = static_cast<int64_t>(
      rng.UniformInt(0, static_cast<int64_t>(grid_) - 1));
  const auto hy = static_cast<int64_t>(
      rng.UniformInt(0, static_cast<int64_t>(grid_) - 1));
  std::vector<uint32_t> by_distance(regions);
  std::iota(by_distance.begin(), by_distance.end(), 0u);
  std::stable_sort(by_distance.begin(), by_distance.end(),
                   [&](uint32_t a, uint32_t b) {
                     const auto dist = [&](uint32_t r) {
                       const int64_t dx =
                           static_cast<int64_t>(r % grid_) - hx;
                       const int64_t dy =
                           static_cast<int64_t>(r / grid_) - hy;
                       return dx * dx + dy * dy;
                     };
                     return dist(a) < dist(b);
                   });
  rank_of_region_.resize(regions);
  for (size_t rank = 0; rank < regions; ++rank) {
    rank_of_region_[by_distance[rank]] = static_cast<uint32_t>(rank);
  }
  cdf_.resize(regions);
  double total = 0.0;
  for (size_t r = 0; r < regions; ++r) {
    total +=
        1.0 / std::pow(static_cast<double>(rank_of_region_[r]) + 1.0, skew_);
    cdf_[r] = total;
  }
}

double RegionPopularity::Weight(const common::Point& p,
                                const common::Rect& universe) const {
  const size_t region = RegionOf(p, universe, grid_);
  return 1.0 /
         std::pow(static_cast<double>(rank_of_region_[region]) + 1.0, skew_);
}

common::Point RegionPopularity::Sample(common::Rng& rng,
                                       const common::Rect& universe) const {
  if (skew_ == 0.0) {
    return common::Point{rng.Uniform(universe.min_x, universe.max_x),
                         rng.Uniform(universe.min_y, universe.max_y)};
  }
  const double draw = rng.Uniform(0.0, cdf_.back());
  const size_t region = std::min<size_t>(
      static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), draw) -
                          cdf_.begin()),
      cdf_.size() - 1);
  const uint32_t gx = static_cast<uint32_t>(region) % grid_;
  const uint32_t gy = static_cast<uint32_t>(region) / grid_;
  const double w = universe.Width() / grid_;
  const double h = universe.Height() / grid_;
  return common::Point{rng.Uniform(universe.min_x + gx * w,
                                   universe.min_x + (gx + 1) * w),
                       rng.Uniform(universe.min_y + gy * h,
                                   universe.min_y + (gy + 1) * h)};
}

common::Point RegionPopularity::HottestCenter(
    const common::Rect& universe) const {
  size_t hottest = 0;
  for (size_t r = 0; r < rank_of_region_.size(); ++r) {
    if (rank_of_region_[r] == 0) {
      hottest = r;
      break;
    }
  }
  const uint32_t gx = static_cast<uint32_t>(hottest) % grid_;
  const uint32_t gy = static_cast<uint32_t>(hottest) / grid_;
  return common::Point{
      universe.min_x + (gx + 0.5) * universe.Width() / grid_,
      universe.min_y + (gy + 0.5) * universe.Height() / grid_};
}

std::vector<common::Point> MakeTrajectory(size_t steps,
                                          const common::Rect& universe,
                                          const TrajectoryParams& params,
                                          uint64_t seed) {
  common::Rng rng(seed);
  std::vector<common::Point> path;
  path.reserve(steps);
  if (steps == 0) return path;
  common::Point pos{rng.Uniform(universe.min_x, universe.max_x),
                    rng.Uniform(universe.min_y, universe.max_y)};
  path.push_back(pos);
  if (params.model == TrajectoryModel::kRandomWaypoint ||
      params.model == TrajectoryModel::kHotspotWaypoint) {
    // Same walk for both waypoint models; only where destinations come
    // from differs (uniform vs. Gaussian around the hotspot).
    auto next_target = [&]() {
      if (params.model == TrajectoryModel::kHotspotWaypoint) {
        return common::Point{Reflect(rng.Gaussian(params.hotspot.x,
                                                  params.hotspot_sigma),
                                     universe.min_x, universe.max_x),
                             Reflect(rng.Gaussian(params.hotspot.y,
                                                  params.hotspot_sigma),
                                     universe.min_y, universe.max_y)};
      }
      return common::Point{rng.Uniform(universe.min_x, universe.max_x),
                           rng.Uniform(universe.min_y, universe.max_y)};
    };
    common::Point target = next_target();
    for (size_t s = 1; s < steps; ++s) {
      const double d = common::Distance(pos, target);
      if (d <= params.speed) {
        // Arrive this step, then head somewhere new next step.
        pos = target;
        target = next_target();
      } else {
        const double f = params.speed / d;
        pos = common::Point{pos.x + f * (target.x - pos.x),
                            pos.y + f * (target.y - pos.y)};
      }
      path.push_back(pos);
    }
  } else {
    for (size_t s = 1; s < steps; ++s) {
      pos = common::Point{
          Reflect(pos.x + rng.Gaussian(0.0, params.sigma), universe.min_x,
                  universe.max_x),
          Reflect(pos.y + rng.Gaussian(0.0, params.sigma), universe.min_y,
                  universe.max_y)};
      path.push_back(pos);
    }
  }
  return path;
}

std::vector<ChurnSpan> MakeChurnStream(size_t num_clients,
                                       uint64_t horizon_packets,
                                       double churn_rate, uint64_t seed) {
  common::Rng rng(seed);
  const uint64_t horizon = std::max<uint64_t>(1, horizon_packets);
  std::vector<ChurnSpan> spans;
  spans.reserve(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    ChurnSpan span;
    span.arrive_packet = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(horizon) - 1));
    // Every client draws its residence coin and time, so the stream for a
    // given (num_clients, horizon, seed) is identical at every churn_rate —
    // only the keep/leave decision flips.
    const bool leaves = rng.Uniform(0.0, 1.0) < churn_rate;
    const auto residence = static_cast<uint64_t>(
        rng.UniformInt(1, static_cast<int64_t>(horizon)));
    if (leaves) span.depart_packet = span.arrive_packet + residence;
    spans.push_back(span);
  }
  return spans;
}

std::vector<UpdateOp> MakeUpdateStream(const std::vector<SpatialObject>& objects,
                                       size_t count,
                                       const common::Rect& universe,
                                       uint64_t seed) {
  common::Rng rng(seed);
  // Track the live id set so deletes/moves always target a real object and
  // inserts never collide.
  std::vector<uint32_t> live;
  live.reserve(objects.size() + count);
  uint32_t next_id = 0;
  for (const SpatialObject& o : objects) {
    live.push_back(o.id);
    next_id = std::max(next_id, o.id + 1);
  }

  std::vector<UpdateOp> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const common::Point p{rng.Uniform(universe.min_x, universe.max_x),
                          rng.Uniform(universe.min_y, universe.max_y)};
    double draw = rng.Uniform(0.0, 1.0);
    if (live.empty() || (draw < 0.30 && live.size() <= 1)) draw = 1.0;
    UpdateOp op;
    if (draw < 0.30) {  // delete
      const auto j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      op.kind = UpdateKind::kDelete;
      op.id = live[j];
      live[j] = live.back();
      live.pop_back();
    } else if (draw < 0.65 && !live.empty()) {  // move
      const auto j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      op.kind = UpdateKind::kMove;
      op.id = live[j];
      op.location = p;
    } else {  // insert
      op.kind = UpdateKind::kInsert;
      op.id = next_id++;
      op.location = p;
      live.push_back(op.id);
    }
    ops.push_back(op);
  }
  return ops;
}

std::vector<SpatialObject> ApplyUpdates(std::vector<SpatialObject> objects,
                                        const std::vector<UpdateOp>& ops) {
  for (const UpdateOp& op : ops) {
    switch (op.kind) {
      case UpdateKind::kInsert:
        objects.push_back(SpatialObject{op.id, op.location});
        break;
      case UpdateKind::kDelete:
        for (size_t i = 0; i < objects.size(); ++i) {
          if (objects[i].id == op.id) {
            objects.erase(objects.begin() + static_cast<ptrdiff_t>(i));
            break;
          }
        }
        break;
      case UpdateKind::kMove:
        for (SpatialObject& o : objects) {
          if (o.id == op.id) {
            o.location = op.location;
            break;
          }
        }
        break;
    }
  }
  return objects;
}

}  // namespace dsi::datasets
