#pragma once

/// \file hilbert.hpp
/// \brief 2-D Hilbert space-filling curve: cell <-> curve-index conversion
/// and decomposition of a rectangular region into maximal contiguous curve
/// ranges.
///
/// DSI (and the HCI baseline) broadcast objects in ascending Hilbert-value
/// order; the window-query algorithms first decompose the query window into
/// "target segments" — the maximal runs of consecutive Hilbert values whose
/// cells lie inside the window (Section 3.3 of the paper).
///
/// The conversions and the quadtree descent are on the per-query hot path
/// (window planning; the HCI and exponential-index kNN searches re-decompose
/// their circle per refinement, while DSI kNN asks AnyMatchingIn about the
/// curve spans it may skip), so they are implemented as a 4-state Hilbert
/// automaton: a state is the (swap, flip-both) transform pending on the
/// not-yet-consumed low coordinate bits, and lookup tables advance it one
/// bit — or one nibble, for the batched conversion tables in hilbert.cpp —
/// per step. The decomposition is a template over the block classifier so
/// the whole descent inlines, and it threads block coordinates plus
/// automaton state through the recursion instead of recovering them with
/// IndexToCell per node.

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace dsi::hilbert {

/// An inclusive range [lo, hi] of Hilbert curve indexes.
struct HcRange {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const HcRange& a, const HcRange& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

namespace detail {

/// The 4-state Hilbert automaton. State s = swap | (flip << 1) encodes the
/// transform T = Swap^swap * FlipBoth^flip applied to the remaining low
/// bits of the original (x, y); Swap and FlipBoth commute, so composition
/// XORs the flags. State 0 (identity) is the whole-grid orientation.
struct HilbertStep {
  uint8_t digit;  ///< Curve quadrant digit emitted for this bit pair.
  uint8_t next;   ///< Automaton state for the bits below.
};

/// One forward step: original MSB pair (bx, by) under state -> digit.
constexpr HilbertStep ForwardStep(uint8_t state, uint8_t bx, uint8_t by) {
  const uint8_t sw = state & 1;
  const uint8_t fl = (state >> 1) & 1;
  uint8_t wx = fl ? bx ^ 1 : bx;
  uint8_t wy = fl ? by ^ 1 : by;
  if (sw) {
    const uint8_t t = wx;
    wx = wy;
    wy = t;
  }
  const auto digit = static_cast<uint8_t>((3 * wx) ^ wy);
  // The step transform below this level: id if wy, else swap (plus
  // flip-both when wx) — the rotate/flip of the classic iterative loop.
  const uint8_t tsw = wy == 0 ? 1 : 0;
  const uint8_t tfl = (wy == 0 && wx == 1) ? 1 : 0;
  return {digit, static_cast<uint8_t>((sw ^ tsw) | ((fl ^ tfl) << 1))};
}

/// One inverse step: curve digit under state -> original MSB pair, packed
/// as dx | (dy << 1) in `digit` (reusing the field for the cell bits).
struct HilbertCell {
  uint8_t dx;
  uint8_t dy;
  uint8_t next;
};

constexpr HilbertCell InverseStep(uint8_t state, uint8_t digit) {
  const uint8_t wx = (digit == 2 || digit == 3) ? 1 : 0;
  const uint8_t wy = (digit == 1 || digit == 2) ? 1 : 0;
  const uint8_t sw = state & 1;
  const uint8_t fl = (state >> 1) & 1;
  // The pending transform is an involution: original bits = T(working).
  uint8_t bx = sw ? wy : wx;
  uint8_t by = sw ? wx : wy;
  if (fl) {
    bx ^= 1;
    by ^= 1;
  }
  const uint8_t tsw = wy == 0 ? 1 : 0;
  const uint8_t tfl = (wy == 0 && wx == 1) ? 1 : 0;
  return {bx, by, static_cast<uint8_t>((sw ^ tsw) | ((fl ^ tfl) << 1))};
}

/// state x digit -> child cell offsets + child state, for the quadtree
/// descent (children of a block in curve order).
inline constexpr auto kInverseStep = [] {
  std::array<std::array<HilbertCell, 4>, 4> t{};
  for (uint8_t s = 0; s < 4; ++s) {
    for (uint8_t d = 0; d < 4; ++d) t[s][d] = InverseStep(s, d);
  }
  return t;
}();

}  // namespace detail

/// Merges touching/overlapping sorted-or-unsorted ranges into the minimal
/// sorted set of maximal ranges (lo..hi inclusive; [0,3] and [4,9] merge),
/// in place, without allocating.
void NormalizeRangesInPlace(std::vector<HcRange>* ranges);

/// A Hilbert curve of a given order k covering a (2^k x 2^k) cell grid.
///
/// CellToIndex/IndexToCell run the automaton a nibble (4 bit-levels) per
/// table lookup; the *Reference variants are the classic one-bit-per-step
/// rotate/flip loop, kept as the golden oracle for equivalence tests.
class HilbertCurve {
 public:
  /// \param order Curve order k, 1 <= k <= 31 (indexes fit in 62 bits).
  explicit HilbertCurve(int order);

  int order() const { return order_; }

  /// Grid side length, 2^order.
  uint64_t side() const { return side_; }

  /// Total number of cells (= number of distinct curve indexes), 4^order.
  uint64_t num_cells() const { return side_ * side_; }

  /// Maps cell coordinates (x, y), each in [0, side), to the curve index.
  uint64_t CellToIndex(uint32_t x, uint32_t y) const;

  /// Inverse of CellToIndex.
  std::pair<uint32_t, uint32_t> IndexToCell(uint64_t index) const;

  /// Reference (one bit per step) implementations; bit-identical to the
  /// table-driven versions above, used by tests and table validation.
  uint64_t CellToIndexReference(uint32_t x, uint32_t y) const;
  std::pair<uint32_t, uint32_t> IndexToCellReference(uint64_t index) const;

  /// How a quadtree block (an aligned square of cells) relates to a query
  /// region.
  enum class BlockClass {
    kDisjoint,  ///< No cell of the block is in the region: prune.
    kPartial,   ///< Some cells may be: recurse.
    kFull,      ///< Every cell is: emit the block's whole curve range.
  };

  /// Classifier over quadtree blocks given by their min-corner cell
  /// (bx, by) and side length (a power of two).
  using BlockClassifier =
      std::function<BlockClass(uint64_t bx, uint64_t by, uint64_t side)>;

  /// Generic region decomposition: fills \p out with the minimal sorted set
  /// of maximal contiguous curve ranges covering the region described by
  /// \p classify. Quadtree descent: full blocks are emitted without further
  /// descent, disjoint blocks are pruned. Templated on the classifier so
  /// the descent inlines; \p out is caller-provided so repeated
  /// decompositions (kNN circle refinement) reuse one buffer.
  template <class Classifier>
  void RangesMatching(const Classifier& classify,
                      std::vector<HcRange>* out) const {
    out->clear();
    RangesRecurse<Classifier>(0, 0, 0, side_, 0, classify, out);
    NormalizeRangesInPlace(out);
  }

  /// Allocating convenience overload (std::function dispatch; prefer the
  /// template + buffer form on hot paths).
  std::vector<HcRange> RangesMatching(const BlockClassifier& classify) const;

  /// True iff some range of RangesMatching(\p classify) intersects the
  /// inclusive curve span [\p a, \p b], without building the ranges: the
  /// same quadtree descent, pruned to blocks that overlap the span, that
  /// returns at the first matching block. \p classify must be exact in the
  /// sense that every block it does not call kDisjoint holds at least one
  /// cell it does not call kDisjoint (true of the rectangle and disc
  /// classifiers, whose sub-cell edges are the block edges' own doubles);
  /// a non-disjoint block lying inside the span then answers at once.
  template <class Classifier>
  bool AnyMatchingIn(const Classifier& classify, uint64_t a,
                     uint64_t b) const {
    return AnyRecurse<Classifier>(0, 0, 0, side_, 0, classify, a, b);
  }

  /// Decomposes the inclusive cell rectangle [x_lo..x_hi] x [y_lo..y_hi]
  /// into maximal contiguous curve ranges, sorted ascending, into \p out.
  void RangesInCellRect(uint32_t x_lo, uint32_t y_lo, uint32_t x_hi,
                        uint32_t y_hi, std::vector<HcRange>* out) const;

  /// Allocating convenience overload.
  std::vector<HcRange> RangesInCellRect(uint32_t x_lo, uint32_t y_lo,
                                        uint32_t x_hi, uint32_t y_hi) const;

 private:
  /// Quadtree descent: the block at min-corner (bx, by) with side
  /// \p block_side holds curve indexes [hc_base, hc_base + side^2) and has
  /// automaton orientation \p state; prune it, emit it whole, or recurse
  /// into its four curve-ordered children.
  template <class Classifier>
  void RangesRecurse(uint64_t hc_base, uint64_t bx, uint64_t by,
                     uint64_t block_side, uint8_t state,
                     const Classifier& classify,
                     std::vector<HcRange>* out) const {
    switch (classify(bx, by, block_side)) {
      case BlockClass::kDisjoint:
        return;
      case BlockClass::kFull:
        out->push_back(
            HcRange{hc_base, hc_base + block_side * block_side - 1});
        return;
      case BlockClass::kPartial:
        break;
    }
    if (block_side == 1) {
      // A single cell classified partial counts as a match (the classifier
      // could not prune it); emit it so the decomposition stays
      // conservative.
      out->push_back(HcRange{hc_base, hc_base});
      return;
    }
    const uint64_t child_side = block_side / 2;
    const uint64_t child_cells = child_side * child_side;
    for (uint8_t q = 0; q < 4; ++q) {
      const detail::HilbertCell c = detail::kInverseStep[state][q];
      RangesRecurse<Classifier>(hc_base + q * child_cells,
                                bx + c.dx * child_side,
                                by + c.dy * child_side, child_side, c.next,
                                classify, out);
    }
  }

  /// AnyMatchingIn's descent over a block that overlaps [a, b] (same
  /// block parameters as RangesRecurse).
  template <class Classifier>
  bool AnyRecurse(uint64_t hc_base, uint64_t bx, uint64_t by,
                  uint64_t block_side, uint8_t state,
                  const Classifier& classify, uint64_t a, uint64_t b) const {
    const uint64_t cells = block_side * block_side;
    switch (classify(bx, by, block_side)) {
      case BlockClass::kDisjoint:
        return false;
      case BlockClass::kFull:
        return true;
      case BlockClass::kPartial:
        break;
    }
    if (block_side == 1 || (a <= hc_base && hc_base + cells - 1 <= b)) {
      return true;
    }
    const uint64_t child_side = block_side / 2;
    const uint64_t child_cells = cells / 4;
    for (uint8_t q = 0; q < 4; ++q) {
      const uint64_t child_base = hc_base + q * child_cells;
      if (child_base > b) break;
      if (child_base + child_cells - 1 < a) continue;
      const detail::HilbertCell c = detail::kInverseStep[state][q];
      if (AnyRecurse<Classifier>(child_base, bx + c.dx * child_side,
                                 by + c.dy * child_side, child_side, c.next,
                                 classify, a, b)) {
        return true;
      }
    }
    return false;
  }

  int order_;
  uint64_t side_;
};

}  // namespace dsi::hilbert
