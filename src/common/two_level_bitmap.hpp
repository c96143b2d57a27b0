#pragma once

/// \file two_level_bitmap.hpp
/// \brief A flat ordered set of small integers: a presence bitmap plus a
/// summary word per 64 bitmap words (one bit per non-empty word).
///
/// Set, reset and test are O(1). The successor and predecessor queries
/// skip empty stretches through the summary, so on a sparse set of n
/// positions they cost a few word operations per 4096 positions scanned
/// instead of one per 64. Iteration visits only the non-empty words.
/// Clients use it wherever they keep a set over a dense id space: DSI
/// segment knowledge (broadcast positions), the soonest-airing pending set
/// (physical slots) and the tree clients' retrieved data ids.

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsi::common {

class TwoLevelBitmap {
 public:
  /// "No such position" result of the successor/predecessor queries.
  static constexpr size_t kNone = SIZE_MAX;

  TwoLevelBitmap() = default;
  explicit TwoLevelBitmap(size_t n) { Reset(n); }

  /// Sizes the set to positions [0, n), all clear. Keeps the allocation
  /// when it is large enough.
  void Reset(size_t n) {
    size_ = n;
    words_ = (n + 63) / 64;
    bits_.assign(words_ + (words_ + 63) / 64, 0);
    count_ = 0;
  }

  size_t size() const { return size_; }
  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool test(size_t i) const {
    assert(i < size_);
    return (bits_[i / 64] >> (i % 64)) & 1;
  }

  /// Adds \p i; true if it was absent.
  bool set(size_t i) {
    assert(i < size_);
    uint64_t& word = bits_[i / 64];
    const uint64_t bit = uint64_t{1} << (i % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    bits_[words_ + i / 4096] |= uint64_t{1} << ((i / 64) % 64);
    ++count_;
    return true;
  }

  /// Removes \p i; true if it was present.
  bool reset(size_t i) {
    assert(i < size_);
    uint64_t& word = bits_[i / 64];
    const uint64_t bit = uint64_t{1} << (i % 64);
    if ((word & bit) == 0) return false;
    word &= ~bit;
    if (word == 0) {
      bits_[words_ + i / 4096] &= ~(uint64_t{1} << ((i / 64) % 64));
    }
    --count_;
    return true;
  }

  /// Smallest present position >= \p i, or kNone.
  size_t NextAtOrAfter(size_t i) const {
    if (i >= size_) return kNone;
    size_t w = i / 64;
    uint64_t word = bits_[w] & (~uint64_t{0} << (i % 64));
    if (word == 0) {
      w = FirstNonEmptyWordAbove(w);
      if (w == kNone) return kNone;
      word = bits_[w];
    }
    return w * 64 + std::countr_zero(word);
  }

  /// Largest present position <= \p i (clamped to size() - 1), or kNone.
  size_t PrevAtOrBelow(size_t i) const {
    if (size_ == 0) return kNone;
    if (i >= size_) i = size_ - 1;
    size_t w = i / 64;
    uint64_t word = bits_[w] & ((uint64_t{2} << (i % 64)) - 1);
    if (word == 0) {
      w = LastNonEmptyWordBelow(w);
      if (w == kNone) return kNone;
      word = bits_[w];
    }
    return w * 64 + (63 - std::countl_zero(word));
  }

  /// Invokes \p f(position) for every present position, ascending.
  template <class F>
  void ForEach(F&& f) const {
    for (size_t s = words_; s < bits_.size(); ++s) {
      for (uint64_t summary = bits_[s]; summary != 0;
           summary &= summary - 1) {
        const size_t w = (s - words_) * 64 + std::countr_zero(summary);
        for (uint64_t word = bits_[w]; word != 0; word &= word - 1) {
          f(w * 64 + std::countr_zero(word));
        }
      }
    }
  }

 private:
  /// Index of the first non-empty bitmap word above \p w, or kNone.
  size_t FirstNonEmptyWordAbove(size_t w) const {
    const size_t above = w + 1;
    if (above >= words_) return kNone;
    size_t s = above / 64;
    uint64_t word = bits_[words_ + s] & (~uint64_t{0} << (above % 64));
    while (word == 0) {
      if (words_ + ++s >= bits_.size()) return kNone;
      word = bits_[words_ + s];
    }
    return s * 64 + std::countr_zero(word);
  }

  /// Index of the last non-empty bitmap word below \p w, or kNone.
  size_t LastNonEmptyWordBelow(size_t w) const {
    if (w == 0) return kNone;
    const size_t below = w - 1;
    size_t s = below / 64;
    uint64_t word = bits_[words_ + s] & ((uint64_t{2} << (below % 64)) - 1);
    while (word == 0) {
      if (s == 0) return kNone;
      word = bits_[words_ + --s];
    }
    return s * 64 + (63 - std::countl_zero(word));
  }

  size_t size_ = 0;   // positions
  size_t words_ = 0;  // bitmap words
  size_t count_ = 0;  // present positions
  // The bitmap (one bit per position, words_ words) followed by its
  // summary (one bit per non-empty bitmap word), in one allocation.
  std::vector<uint64_t> bits_;
};

}  // namespace dsi::common
