#include "hilbert/hilbert.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dsi::hilbert {

namespace {

/// Nibble-batched automaton tables: four bit-levels advance per lookup.
///
/// Forward: state x (x-nibble << 4 | y-nibble) -> 8 curve digits packed
/// MSB-first plus the next state, as digits << 2 | state.
constexpr auto kForward4 = [] {
  std::array<std::array<uint16_t, 256>, 4> t{};
  for (uint16_t s = 0; s < 4; ++s) {
    for (uint16_t in = 0; in < 256; ++in) {
      uint8_t state = static_cast<uint8_t>(s);
      uint16_t digits = 0;
      for (int b = 3; b >= 0; --b) {
        const uint8_t bx = (in >> (4 + b)) & 1;
        const uint8_t by = (in >> b) & 1;
        const detail::HilbertStep step = detail::ForwardStep(state, bx, by);
        digits = static_cast<uint16_t>((digits << 2) | step.digit);
        state = step.next;
      }
      t[s][in] = static_cast<uint16_t>((digits << 2) | state);
    }
  }
  return t;
}();

/// Inverse: state x 8 curve digits (MSB-first) -> x-nibble, y-nibble and
/// next state, packed as x << 6 | y << 2 | state.
constexpr auto kInverse4 = [] {
  std::array<std::array<uint16_t, 256>, 4> t{};
  for (uint16_t s = 0; s < 4; ++s) {
    for (uint16_t in = 0; in < 256; ++in) {
      uint8_t state = static_cast<uint8_t>(s);
      uint16_t x = 0;
      uint16_t y = 0;
      for (int b = 3; b >= 0; --b) {
        const uint8_t digit = (in >> (2 * b)) & 3;
        const detail::HilbertCell c = detail::InverseStep(state, digit);
        x = static_cast<uint16_t>((x << 1) | c.dx);
        y = static_cast<uint16_t>((y << 1) | c.dy);
        state = c.next;
      }
      t[s][in] = static_cast<uint16_t>((x << 6) | (y << 2) | state);
    }
  }
  return t;
}();

}  // namespace

HilbertCurve::HilbertCurve(int order) : order_(order) {
  assert(order >= 1 && order <= 31);
  side_ = uint64_t{1} << order_;
}

uint64_t HilbertCurve::CellToIndex(uint32_t x, uint32_t y) const {
  assert(x < side_ && y < side_);
  uint64_t d = 0;
  uint8_t state = 0;
  int bit = order_;
  // Head: bring the remaining bit count to a multiple of 4 one bit at a
  // time (the automaton state depends on the true top bits; zero-padding
  // to a nibble boundary would change it).
  while (bit % 4 != 0) {
    --bit;
    const detail::HilbertStep step =
        detail::ForwardStep(state, (x >> bit) & 1, (y >> bit) & 1);
    d = (d << 2) | step.digit;
    state = step.next;
  }
  while (bit > 0) {
    bit -= 4;
    const uint32_t in = (((x >> bit) & 0xF) << 4) | ((y >> bit) & 0xF);
    const uint16_t packed = kForward4[state][in];
    d = (d << 8) | (packed >> 2);
    state = packed & 3;
  }
  return d;
}

std::pair<uint32_t, uint32_t> HilbertCurve::IndexToCell(uint64_t index) const {
  assert(index < num_cells());
  uint32_t x = 0;
  uint32_t y = 0;
  uint8_t state = 0;
  int bit = order_;
  while (bit % 4 != 0) {
    --bit;
    const detail::HilbertCell c =
        detail::kInverseStep[state][(index >> (2 * bit)) & 3];
    x = (x << 1) | c.dx;
    y = (y << 1) | c.dy;
    state = c.next;
  }
  while (bit > 0) {
    bit -= 4;
    const uint16_t packed =
        kInverse4[state][(index >> (2 * bit)) & 0xFF];
    x = (x << 4) | (packed >> 6);
    y = (y << 4) | ((packed >> 2) & 0xF);
    state = packed & 3;
  }
  return {x, y};
}

uint64_t HilbertCurve::CellToIndexReference(uint32_t x_in,
                                            uint32_t y_in) const {
  assert(x_in < side_ && y_in < side_);
  uint64_t x = x_in;
  uint64_t y = y_in;
  uint64_t d = 0;
  for (uint64_t s = side_ / 2; s > 0; s /= 2) {
    const uint64_t rx = (x & s) ? 1 : 0;
    const uint64_t ry = (y & s) ? 1 : 0;
    d += s * s * ((3 * rx) ^ ry);
    // Drop to subsquare-local coordinates, then rotate the quadrant so the
    // next level sees canonical orientation.
    x &= s - 1;
    y &= s - 1;
    if (ry == 0) {
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

std::pair<uint32_t, uint32_t> HilbertCurve::IndexToCellReference(
    uint64_t index) const {
  assert(index < num_cells());
  uint64_t t = index;
  uint64_t x = 0;
  uint64_t y = 0;
  for (uint64_t s = 1; s < side_; s *= 2) {
    const uint64_t rx = 1 & (t / 2);
    const uint64_t ry = 1 & (t ^ rx);
    if (ry == 0) {
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
    x += s * rx;
    y += s * ry;
    t /= 4;
  }
  return {static_cast<uint32_t>(x), static_cast<uint32_t>(y)};
}

std::vector<HcRange> HilbertCurve::RangesMatching(
    const BlockClassifier& classify) const {
  std::vector<HcRange> out;
  RangesMatching<BlockClassifier>(classify, &out);
  return out;
}

void HilbertCurve::RangesInCellRect(uint32_t x_lo, uint32_t y_lo,
                                    uint32_t x_hi, uint32_t y_hi,
                                    std::vector<HcRange>* out) const {
  assert(x_lo <= x_hi && y_lo <= y_hi);
  assert(x_hi < side_ && y_hi < side_);
  RangesMatching(
      [=](uint64_t bx, uint64_t by, uint64_t side) {
        const uint64_t bx_hi = bx + side - 1;
        const uint64_t by_hi = by + side - 1;
        if (bx > x_hi || bx_hi < x_lo || by > y_hi || by_hi < y_lo) {
          return BlockClass::kDisjoint;
        }
        if (bx >= x_lo && bx_hi <= x_hi && by >= y_lo && by_hi <= y_hi) {
          return BlockClass::kFull;
        }
        return BlockClass::kPartial;
      },
      out);
}

std::vector<HcRange> HilbertCurve::RangesInCellRect(uint32_t x_lo,
                                                    uint32_t y_lo,
                                                    uint32_t x_hi,
                                                    uint32_t y_hi) const {
  std::vector<HcRange> out;
  RangesInCellRect(x_lo, y_lo, x_hi, y_hi, &out);
  return out;
}

void NormalizeRangesInPlace(std::vector<HcRange>* ranges) {
  if (ranges->empty()) return;
  constexpr auto less = [](const HcRange& a, const HcRange& b) {
    return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
  };
  // The quadtree descent emits ranges already sorted; sorting is a cheap
  // no-op then, and keeps the function total for arbitrary callers.
  if (!std::is_sorted(ranges->begin(), ranges->end(), less)) {
    std::sort(ranges->begin(), ranges->end(), less);
  }
  size_t w = 0;  // write index of the last merged range
  for (size_t i = 1; i < ranges->size(); ++i) {
    HcRange& back = (*ranges)[w];
    // Merge overlapping or adjacent ranges ([0,3] + [4,9] -> [0,9]).
    if ((*ranges)[i].lo <= back.hi + 1) {
      back.hi = std::max(back.hi, (*ranges)[i].hi);
    } else {
      (*ranges)[++w] = (*ranges)[i];
    }
  }
  ranges->resize(w + 1);
}

}  // namespace dsi::hilbert
