#pragma once

/// \file geometry.hpp
/// \brief Minimal 2-D geometry primitives shared by every index in the
/// repository: points, axis-aligned rectangles, and the distance helpers the
/// DSI / R-tree / HCI query algorithms rely on.
///
/// The broadcast data space follows the paper: a square Euclidean universe.
/// Coordinates are `double` (the paper allots two 8-byte floating point
/// numbers per coordinate).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

namespace dsi::common {

/// A 2-D point with double-precision coordinates.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

/// Squared Euclidean distance between two points. Query algorithms compare
/// squared distances wherever possible to avoid sqrt on the hot path.
inline double SquaredDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Euclidean distance between two points.
inline double Distance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

/// An axis-aligned rectangle, closed on all sides: [min_x, max_x] x
/// [min_y, max_y]. Used both as query window and as R-tree MBR.
struct Rect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  /// Rectangle that contains nothing; Expand() from it behaves correctly.
  static Rect Empty() {
    return Rect{std::numeric_limits<double>::max(),
                std::numeric_limits<double>::max(),
                std::numeric_limits<double>::lowest(),
                std::numeric_limits<double>::lowest()};
  }

  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  double Width() const { return IsEmpty() ? 0.0 : max_x - min_x; }
  double Height() const { return IsEmpty() ? 0.0 : max_y - min_y; }
  double Area() const { return Width() * Height(); }

  Point Center() const {
    return Point{(min_x + max_x) / 2.0, (min_y + max_y) / 2.0};
  }

  /// True iff \p p lies inside the (closed) rectangle.
  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  /// True iff \p other is fully inside this rectangle.
  bool Contains(const Rect& other) const {
    return other.min_x >= min_x && other.max_x <= max_x &&
           other.min_y >= min_y && other.max_y <= max_y;
  }

  /// True iff the two closed rectangles share at least one point.
  bool Intersects(const Rect& other) const {
    if (IsEmpty() || other.IsEmpty()) return false;
    return min_x <= other.max_x && other.min_x <= max_x &&
           min_y <= other.max_y && other.min_y <= max_y;
  }

  /// Grows this rectangle to include \p p.
  void ExpandToInclude(const Point& p) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }

  /// Grows this rectangle to include \p other.
  void ExpandToInclude(const Rect& other) {
    if (other.IsEmpty()) return;
    min_x = std::min(min_x, other.min_x);
    min_y = std::min(min_y, other.min_y);
    max_x = std::max(max_x, other.max_x);
    max_y = std::max(max_y, other.max_y);
  }

  /// Smallest squared distance from \p p to any point of the rectangle
  /// (0 when \p p is inside). This is the classic MINDIST used by R-tree
  /// branch-and-bound kNN search.
  double MinSquaredDistance(const Point& p) const {
    const double dx = std::max({min_x - p.x, 0.0, p.x - max_x});
    const double dy = std::max({min_y - p.y, 0.0, p.y - max_y});
    return dx * dx + dy * dy;
  }

  /// Largest squared distance from \p p to any point of the rectangle.
  double MaxSquaredDistance(const Point& p) const {
    const double dx = std::max(std::abs(p.x - min_x), std::abs(p.x - max_x));
    const double dy = std::max(std::abs(p.y - min_y), std::abs(p.y - max_y));
    return dx * dx + dy * dy;
  }

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x &&
           a.max_y == b.max_y;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << "[" << r.min_x << "," << r.max_x << "]x[" << r.min_y << ","
            << r.max_y << "]";
}

/// Returns the square query window centered at \p center whose side is
/// \p side, clipped to \p universe. Used by the window-query workload
/// generator (WinSideRatio * universe side = \p side).
Rect MakeClippedWindow(const Point& center, double side, const Rect& universe);

}  // namespace dsi::common
