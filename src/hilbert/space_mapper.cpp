#include "hilbert/space_mapper.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dsi::hilbert {

SpaceMapper::SpaceMapper(const common::Rect& universe, int order)
    : universe_(universe), curve_(order) {
  assert(!universe.IsEmpty());
  cell_w_ = universe_.Width() / static_cast<double>(curve_.side());
  cell_h_ = universe_.Height() / static_cast<double>(curve_.side());
}

std::pair<uint32_t, uint32_t> SpaceMapper::PointToCell(
    const common::Point& p) const {
  const auto side = static_cast<int64_t>(curve_.side());
  auto to_cell = [side](double v, double lo, double step) {
    const auto c = static_cast<int64_t>(std::floor((v - lo) / step));
    return static_cast<uint32_t>(std::clamp<int64_t>(c, 0, side - 1));
  };
  return {to_cell(p.x, universe_.min_x, cell_w_),
          to_cell(p.y, universe_.min_y, cell_h_)};
}

uint64_t SpaceMapper::PointToIndex(const common::Point& p) const {
  const auto [cx, cy] = PointToCell(p);
  return curve_.CellToIndex(cx, cy);
}

common::Rect SpaceMapper::IndexToCellRect(uint64_t index) const {
  const auto [cx, cy] = curve_.IndexToCell(index);
  return common::Rect{universe_.min_x + cx * cell_w_,
                      universe_.min_y + cy * cell_h_,
                      universe_.min_x + (cx + 1) * cell_w_,
                      universe_.min_y + (cy + 1) * cell_h_};
}

void SpaceMapper::WindowToRanges(const common::Rect& window,
                                 std::vector<HcRange>* out) const {
  out->clear();
  common::Rect w = window;
  w.min_x = std::max(w.min_x, universe_.min_x);
  w.min_y = std::max(w.min_y, universe_.min_y);
  w.max_x = std::min(w.max_x, universe_.max_x);
  w.max_y = std::min(w.max_y, universe_.max_y);
  if (w.IsEmpty()) return;
  const auto [x_lo, y_lo] = PointToCell(common::Point{w.min_x, w.min_y});
  const auto [x_hi, y_hi] = PointToCell(common::Point{w.max_x, w.max_y});
  curve_.RangesInCellRect(x_lo, y_lo, x_hi, y_hi, out);
}

std::vector<HcRange> SpaceMapper::WindowToRanges(
    const common::Rect& window) const {
  std::vector<HcRange> out;
  WindowToRanges(window, &out);
  return out;
}

namespace {

/// Classifies quadtree blocks against the disc of squared radius \p r2
/// around \p center. A block's edges and its sub-cells' edges are the same
/// doubles (origin + index * cell size) and both distance bounds are
/// monotone in the edges, so a block is non-disjoint iff one of its cells
/// is — the exactness HilbertCurve::AnyMatchingIn relies on.
auto DiscClassifier(const common::Rect& universe, double cell_w,
                    double cell_h, const common::Point& center, double r2) {
  return [=](uint64_t bx, uint64_t by, uint64_t side) {
    const common::Rect block{
        universe.min_x + static_cast<double>(bx) * cell_w,
        universe.min_y + static_cast<double>(by) * cell_h,
        universe.min_x + static_cast<double>(bx + side) * cell_w,
        universe.min_y + static_cast<double>(by + side) * cell_h};
    if (block.MinSquaredDistance(center) > r2) {
      return HilbertCurve::BlockClass::kDisjoint;
    }
    if (block.MaxSquaredDistance(center) <= r2) {
      return HilbertCurve::BlockClass::kFull;
    }
    return HilbertCurve::BlockClass::kPartial;
  };
}

}  // namespace

void SpaceMapper::CircleToRanges(const common::Point& center, double radius,
                                 std::vector<HcRange>* out) const {
  out->clear();
  if (radius < 0.0) return;
  curve_.RangesMatching(
      DiscClassifier(universe_, cell_w_, cell_h_, center, radius * radius),
      out);
}

bool SpaceMapper::DiscHitsCurveRange(const common::Point& center,
                                     double radius, uint64_t a,
                                     uint64_t b) const {
  assert(a <= b && b < curve_.num_cells());
  if (radius < 0.0) return false;
  return curve_.AnyMatchingIn(
      DiscClassifier(universe_, cell_w_, cell_h_, center, radius * radius), a,
      b);
}

std::vector<HcRange> SpaceMapper::CircleToRanges(const common::Point& center,
                                                 double radius) const {
  std::vector<HcRange> out;
  CircleToRanges(center, radius, &out);
  return out;
}

double SpaceMapper::MinDistanceToIndex(const common::Point& q,
                                       uint64_t index) const {
  return std::sqrt(IndexToCellRect(index).MinSquaredDistance(q));
}

double SpaceMapper::MaxDistanceToIndex(const common::Point& q,
                                       uint64_t index) const {
  return std::sqrt(IndexToCellRect(index).MaxSquaredDistance(q));
}

int ChooseOrder(size_t num_objects, double cells_per_object) {
  const double want = std::max(1.0, cells_per_object) *
                      static_cast<double>(std::max<size_t>(num_objects, 1));
  int order = 1;
  while (order < 31) {
    const double cells = std::pow(4.0, order);
    if (cells >= want) break;
    ++order;
  }
  return order;
}

}  // namespace dsi::hilbert
