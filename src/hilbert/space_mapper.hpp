#pragma once

/// \file space_mapper.hpp
/// \brief Bridges the continuous data universe and the discrete Hilbert cell
/// grid: point -> curve index, curve index -> representative coordinates,
/// and query window -> curve ranges.
///
/// The paper assumes a 1-1 correspondence between coordinates and HC values
/// given the mapping function; clients "perform conversion between
/// coordinates and HC values in a constant time". SpaceMapper is that
/// mapping function, shared by the server (broadcast construction) and the
/// simulated clients (query processing).

#include <cstdint>
#include <utility>
#include <vector>

#include "common/geometry.hpp"
#include "hilbert/hilbert.hpp"

namespace dsi::hilbert {

/// Maps a rectangular continuous universe onto a Hilbert curve of a given
/// order. Cells are half-open [lo, hi) except at the top universe edge,
/// which is closed so every point of the universe maps to a valid cell.
class SpaceMapper {
 public:
  SpaceMapper(const common::Rect& universe, int order);

  const common::Rect& universe() const { return universe_; }
  const HilbertCurve& curve() const { return curve_; }

  /// Grid cell containing \p p (points outside the universe are clamped to
  /// the nearest boundary cell).
  std::pair<uint32_t, uint32_t> PointToCell(const common::Point& p) const;

  /// Hilbert curve index of the cell containing \p p.
  uint64_t PointToIndex(const common::Point& p) const;

  /// Continuous-space extent of the cell with the given curve index.
  common::Rect IndexToCellRect(uint64_t index) const;

  /// Decomposes a query window into the sorted maximal curve ranges whose
  /// cells overlap the window (the paper's "target segments" H), into the
  /// caller-provided \p out buffer. The cell granularity makes this a
  /// superset filter: retrieved objects must still be checked against the
  /// window.
  void WindowToRanges(const common::Rect& window,
                      std::vector<HcRange>* out) const;

  /// Allocating convenience overload.
  std::vector<HcRange> WindowToRanges(const common::Rect& window) const;

  /// Decomposes the disc of radius \p radius around \p center into the
  /// sorted maximal curve ranges of cells intersecting it (superset filter,
  /// like WindowToRanges), into \p out. Used by the HCI and exponential
  /// index kNN search spaces ("circles"), which re-decompose per
  /// refinement step — hence the reusable buffer.
  void CircleToRanges(const common::Point& center, double radius,
                      std::vector<HcRange>* out) const;

  /// Allocating convenience overload.
  std::vector<HcRange> CircleToRanges(const common::Point& center,
                                      double radius) const;

  /// True iff some range of CircleToRanges(\p center, \p radius)
  /// intersects the inclusive curve span [\p a, \p b] (b < num_cells),
  /// answered by a quadtree descent pruned to the span that stops at the
  /// first cell of the disc — the disc is never decomposed. Exact: it uses
  /// CircleToRanges' own classifier, under which a cell belongs to the
  /// decomposition iff its MinSquaredDistance is <= radius^2.
  bool DiscHitsCurveRange(const common::Point& center, double radius,
                          uint64_t a, uint64_t b) const;

  /// Smallest distance from \p q to the cell of the given curve index;
  /// a sound lower bound on the distance to any object advertised with
  /// that HC value.
  double MinDistanceToIndex(const common::Point& q, uint64_t index) const;

  /// Largest distance from \p q to the cell of the given curve index;
  /// a sound upper bound on the distance to any object advertised with
  /// that HC value.
  double MaxDistanceToIndex(const common::Point& q, uint64_t index) const;

 private:
  common::Rect universe_;
  HilbertCurve curve_;
  double cell_w_;
  double cell_h_;
};

/// Picks the smallest curve order whose grid offers at least
/// \p cells_per_object cells per object; the paper scales the curve order
/// with object density ("HC of higher order is needed for denser object
/// distribution").
int ChooseOrder(size_t num_objects, double cells_per_object = 4.0);

}  // namespace dsi::hilbert
