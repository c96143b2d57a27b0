#pragma once

/// \file datasets.hpp
/// \brief The evaluation datasets of the paper.
///
/// * UNIFORM — "10,000 points are uniformly generated in a square Euclidean
///   space".
/// * REAL — the paper used 5848 cities and villages of Greece from the
///   rtreeportal.org point collection, which is not redistributable /
///   available offline. MakeRealLike() substitutes a fixed-seed synthetic
///   dataset with the same cardinality and a comparable skew: a mixture of
///   dense Gaussian clusters (towns) strung along arcs (coastlines) over a
///   sparse uniform background. The experiments depend only on cardinality
///   and spatial skew, which this preserves (see DESIGN.md §5).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"

namespace dsi::datasets {

/// One broadcast data object: an id and a location. On air its payload
/// occupies common::kDataObjectBytes (1024 B) regardless of in-memory size.
struct SpatialObject {
  uint32_t id = 0;
  common::Point location;
};

/// The order of every family's kNN answer: ascending squared distance
/// \p d2 from the query point, ties by ascending object id.
inline bool NearerFirst(double d2_a, uint32_t id_a, double d2_b,
                        uint32_t id_b) {
  return d2_a != d2_b ? d2_a < d2_b : id_a < id_b;
}

/// Sorts \p objects into NearerFirst order from \p q and keeps the first
/// \p k.
void KeepNearest(const common::Point& q, size_t k,
                 std::vector<SpatialObject>* objects);

/// The square data universe used throughout the evaluation.
common::Rect UnitUniverse();

/// Uniformly distributed points over \p universe.
std::vector<SpatialObject> MakeUniform(size_t n, const common::Rect& universe,
                                       uint64_t seed);

/// Gaussian-cluster mixture: \p num_clusters clusters whose centers are
/// uniform in \p universe; each point belongs to a random cluster with the
/// given relative spread (fraction of universe side), clamped to the
/// universe. A \p background_fraction of points is uniform background.
std::vector<SpatialObject> MakeClustered(size_t n, size_t num_clusters,
                                         double spread,
                                         double background_fraction,
                                         const common::Rect& universe,
                                         uint64_t seed);

/// REAL substitute: 5848 points mimicking the skew of the Greek
/// cities/villages dataset (clusters along arcs + sparse background).
/// Deterministic for a given seed.
std::vector<SpatialObject> MakeRealLike(uint64_t seed = 7);

// ---------------------------------------------------------------------------
// Skewed access: Zipf region popularity and Gaussian hotspots
// ---------------------------------------------------------------------------

/// Zipf-ranked popularity over a grid x grid partition of a universe: the
/// seed places a hotspot cell ("downtown"), regions are ranked by distance
/// from it (spatially coherent — a hot region's neighbors are warm, so
/// windows and trajectories near the hotspot stay inside the hot tier),
/// and region rank r carries weight 1 / (r + 1)^skew. Drives both skewed query/trajectory streams (Sample)
/// and the multi-disk broadcast layout (Weight ranks the cycle's buckets),
/// so a matched (grid, skew, seed) triple makes clients query exactly the
/// regions the server airs most often. skew = 0 is the uniform degenerate:
/// every region weighs 1 and Sample reduces to two plain uniform draws.
class RegionPopularity {
 public:
  RegionPopularity(uint32_t grid, double skew, uint64_t seed);

  uint32_t grid() const { return grid_; }
  double skew() const { return skew_; }

  /// Weight of the region containing \p p (points outside \p universe
  /// clamp to the nearest region).
  double Weight(const common::Point& p, const common::Rect& universe) const;

  /// One point from the popularity distribution: a weight-proportional
  /// region, then uniform within it. With skew = 0 this draws literally
  /// uniform coordinates over \p universe (bit-identical to MakeUniform's
  /// per-point draws).
  common::Point Sample(common::Rng& rng, const common::Rect& universe) const;

  /// Center of the hottest (rank-0) region; anchors Gaussian hotspots.
  common::Point HottestCenter(const common::Rect& universe) const;

 private:
  uint32_t grid_;
  double skew_;
  std::vector<uint32_t> rank_of_region_;  // rank by distance from the
                                          // seeded hotspot cell (0 = hottest)
  std::vector<double> cdf_;               // cumulative region weights
};

// ---------------------------------------------------------------------------
// Moving clients: trajectories for continuous-query workloads
// ---------------------------------------------------------------------------

/// Mobility models for the paper's motivating scenario — a client that
/// stays tuned to the broadcast and re-issues its query as it moves.
enum class TrajectoryModel : uint8_t {
  /// Random waypoint: pick a uniform destination, travel toward it at
  /// `speed` per step, pick the next destination on arrival. The classic
  /// mobile-computing mobility model; produces long directional legs.
  kRandomWaypoint,
  /// Gaussian step: each step perturbs both coordinates by N(0, sigma),
  /// reflected at the universe boundary. Produces local jitter (a
  /// pedestrian, a drifting sensor).
  kGaussianStep,
  /// Hotspot waypoint: random waypoint whose destinations are Gaussian
  /// around `hotspot` (deviation `hotspot_sigma`, reflected into the
  /// universe) instead of uniform — commuters orbiting a downtown. The
  /// first position stays uniform; the tour is pulled into the hotspot.
  kHotspotWaypoint,
};

struct TrajectoryParams {
  TrajectoryModel model = TrajectoryModel::kRandomWaypoint;
  /// Random/hotspot waypoint: travel distance per step, in universe units.
  double speed = 0.05;
  /// Gaussian step: per-axis standard deviation, in universe units.
  double sigma = 0.02;
  /// Hotspot waypoint: attraction center and its per-axis deviation.
  common::Point hotspot{0.5, 0.5};
  double hotspot_sigma = 0.1;
};

/// \p steps positions of one moving client, seed-deterministic. The first
/// position is uniform over \p universe; every position lies inside it.
std::vector<common::Point> MakeTrajectory(size_t steps,
                                          const common::Rect& universe,
                                          const TrajectoryParams& params,
                                          uint64_t seed);

// ---------------------------------------------------------------------------
// Client churn: arrival/departure spans over the broadcast timeline
// ---------------------------------------------------------------------------

/// One client's presence on the channel, in absolute global packets: the
/// client tunes in at arrive_packet and powers off at the first step
/// boundary at or after depart_packet (clients never abandon a query
/// mid-flight — the radio stays on until the running re-evaluation
/// answers). depart_packet = UINT64_MAX means the client never leaves; a
/// span with depart_packet <= arrive_packet never joins at all (its whole
/// tour is skipped with exact accounting).
struct ChurnSpan {
  uint64_t arrive_packet = 0;
  uint64_t depart_packet = UINT64_MAX;
};

/// Seed-determined churn stream for \p num_clients clients, the population
/// counterpart of MakeUpdateStream's object churn: arrivals are uniform
/// over [0, horizon_packets) — the same tune-in distribution the engines
/// draw for a churn-free population — and each client independently
/// departs early with probability \p churn_rate, after a residence time
/// uniform in [1, horizon_packets]. churn_rate = 0 reproduces the
/// everyone-stays population (every depart = UINT64_MAX); churn_rate = 1
/// drains the whole population, so a long enough run always empties
/// mid-flight. Deterministic for a given (num_clients, horizon, rate,
/// seed); entry c is client c's span.
std::vector<ChurnSpan> MakeChurnStream(size_t num_clients,
                                       uint64_t horizon_packets,
                                       double churn_rate, uint64_t seed);

// ---------------------------------------------------------------------------
// Dynamic data: update streams between broadcast generations
// ---------------------------------------------------------------------------

/// One edit to the broadcast object set, applied between broadcast cycles
/// when the server republishes.
enum class UpdateKind : uint8_t {
  kInsert,  ///< A new object (fresh id) appears at `location`.
  kDelete,  ///< The object with `id` disappears.
  kMove,    ///< The object with `id` relocates to `location`.
};

struct UpdateOp {
  UpdateKind kind = UpdateKind::kInsert;
  uint32_t id = 0;          ///< Target id (delete/move) or the fresh id.
  common::Point location;   ///< Destination (insert/move); unused for delete.
};

/// Seed-determined stream of \p count updates against \p objects, valid
/// when applied in order: inserts draw uniform locations and fresh ids
/// (max existing id + 1 onward), deletes and moves pick uniformly among the
/// objects live at that point in the stream. The last live object is never
/// deleted (a delete drawn against a singleton set becomes an insert), so
/// the broadcast never goes dark mid-sequence.
std::vector<UpdateOp> MakeUpdateStream(const std::vector<SpatialObject>& objects,
                                       size_t count,
                                       const common::Rect& universe,
                                       uint64_t seed);

/// Applies \p ops in order and returns the resulting object set (order of
/// survivors preserved, inserts appended). Ops referencing unknown ids are
/// ignored — a stream from MakeUpdateStream never produces any.
std::vector<SpatialObject> ApplyUpdates(std::vector<SpatialObject> objects,
                                        const std::vector<UpdateOp>& ops);

}  // namespace dsi::datasets
