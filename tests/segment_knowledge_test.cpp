/// Directed coverage for SegmentKnowledge, the bitmap-backed (offset ->
/// min-HC) store behind every DSI navigation decision: boundary offsets
/// (0, length-1), single-frame segments, and word-boundary scans that the
/// floor/ceil queries perform.

#include "dsi/client.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace dsi::core {
namespace {

TEST(SegmentKnowledgeTest, EmptyKnowsNothing) {
  SegmentKnowledge k;
  k.Init(10);
  EXPECT_EQ(k.Find(0), std::nullopt);
  EXPECT_EQ(k.Find(9), std::nullopt);
  EXPECT_EQ(k.FloorValue(9), std::nullopt);
  EXPECT_EQ(k.CeilAboveValue(0), std::nullopt);
}

TEST(SegmentKnowledgeTest, OffsetZeroBoundary) {
  SegmentKnowledge k;
  k.Init(10);
  k.Record(0, 100);
  EXPECT_EQ(k.Find(0), std::optional<uint64_t>(100));
  // Floor at offset 0 is offset 0 itself; there is nothing below.
  EXPECT_EQ(k.FloorValue(0), std::optional<uint64_t>(100));
  // Ceil strictly above offset 0 must not return offset 0.
  EXPECT_EQ(k.CeilAboveValue(0), std::nullopt);
  // From anywhere above, offset 0 is the floor.
  EXPECT_EQ(k.FloorValue(9), std::optional<uint64_t>(100));
}

TEST(SegmentKnowledgeTest, LastOffsetBoundary) {
  SegmentKnowledge k;
  k.Init(10);
  k.Record(9, 900);
  EXPECT_EQ(k.Find(9), std::optional<uint64_t>(900));
  EXPECT_EQ(k.FloorValue(9), std::optional<uint64_t>(900));
  // Nothing strictly above the last offset.
  EXPECT_EQ(k.CeilAboveValue(9), std::nullopt);
  // From offset 8, the last offset is the ceil.
  EXPECT_EQ(k.CeilAboveValue(8), std::optional<uint64_t>(900));
  EXPECT_EQ(k.FloorValue(8), std::nullopt);
}

TEST(SegmentKnowledgeTest, SingleFrameSegment) {
  SegmentKnowledge k;
  k.Init(1);
  EXPECT_EQ(k.Find(0), std::nullopt);
  k.Record(0, 7);
  EXPECT_EQ(k.Find(0), std::optional<uint64_t>(7));
  EXPECT_EQ(k.FloorValue(0), std::optional<uint64_t>(7));
  EXPECT_EQ(k.CeilAboveValue(0), std::nullopt);
}

// Offsets straddling 64-bit word boundaries: the floor/ceil word scans
// must step across words without skipping or double-counting bit 63/0.
TEST(SegmentKnowledgeTest, WordBoundaryScans) {
  SegmentKnowledge k;
  k.Init(200);
  k.Record(63, 630);
  k.Record(64, 640);
  k.Record(128, 1280);
  EXPECT_EQ(k.FloorValue(62), std::nullopt);
  EXPECT_EQ(k.FloorValue(63), std::optional<uint64_t>(630));
  EXPECT_EQ(k.FloorValue(64), std::optional<uint64_t>(640));
  EXPECT_EQ(k.FloorValue(127), std::optional<uint64_t>(640));
  EXPECT_EQ(k.FloorValue(199), std::optional<uint64_t>(1280));
  EXPECT_EQ(k.CeilAboveValue(0), std::optional<uint64_t>(630));
  EXPECT_EQ(k.CeilAboveValue(63), std::optional<uint64_t>(640));
  EXPECT_EQ(k.CeilAboveValue(64), std::optional<uint64_t>(1280));
  EXPECT_EQ(k.CeilAboveValue(128), std::nullopt);
}

// Exactly length-1 at a word edge (length 64 and 65).
TEST(SegmentKnowledgeTest, LengthAtWordEdge) {
  for (const uint32_t length : {64u, 65u}) {
    SegmentKnowledge k;
    k.Init(length);
    k.Record(length - 1, 111);
    EXPECT_EQ(k.Find(length - 1), std::optional<uint64_t>(111)) << length;
    EXPECT_EQ(k.FloorValue(length - 1), std::optional<uint64_t>(111));
    EXPECT_EQ(k.CeilAboveValue(length - 1), std::nullopt) << length;
    EXPECT_EQ(k.CeilAboveValue(0),
              length == 64 ? std::optional<uint64_t>(111)
                           : std::optional<uint64_t>(111));
  }
}

// ForEachKnown visits in ascending offset order, exactly the recorded set.
TEST(SegmentKnowledgeTest, ForEachKnownAscending) {
  SegmentKnowledge k;
  k.Init(130);
  const uint32_t offsets[] = {0, 1, 63, 64, 65, 127, 128, 129};
  for (const uint32_t off : offsets) k.Record(off, off * 10);
  std::vector<std::pair<uint32_t, uint64_t>> seen;
  k.ForEachKnown([&](uint32_t off, uint64_t hc) { seen.push_back({off, hc}); });
  ASSERT_EQ(seen.size(), 8u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, offsets[i]);
    EXPECT_EQ(seen[i].second, offsets[i] * 10);
    if (i > 0) EXPECT_GT(seen[i].first, seen[i - 1].first);
  }
}

// Randomized agreement with a map-based oracle across re-records.
TEST(SegmentKnowledgeTest, RandomizedMatchesMapOracle) {
  common::Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const auto length = static_cast<uint32_t>(rng.UniformInt(1, 300));
    SegmentKnowledge k;
    k.Init(length);
    std::map<uint32_t, uint64_t> oracle;
    for (int i = 0; i < 60; ++i) {
      const auto off = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(length) - 1));
      const auto hc = static_cast<uint64_t>(rng.UniformInt(0, 1 << 20));
      k.Record(off, hc);
      oracle[off] = hc;
    }
    for (uint32_t off = 0; off < length; ++off) {
      const auto it = oracle.find(off);
      EXPECT_EQ(k.Find(off), it == oracle.end()
                                 ? std::nullopt
                                 : std::optional<uint64_t>(it->second));
      // Floor: last entry with key <= off.
      auto ub = oracle.upper_bound(off);
      EXPECT_EQ(k.FloorValue(off),
                ub == oracle.begin()
                    ? std::nullopt
                    : std::optional<uint64_t>(std::prev(ub)->second))
          << "floor at " << off << " length " << length;
      // Ceil: first entry with key > off.
      EXPECT_EQ(k.CeilAboveValue(off),
                ub == oracle.end() ? std::nullopt
                                   : std::optional<uint64_t>(ub->second))
          << "ceil at " << off << " length " << length;
    }
  }
}

// The summary-word skips of FloorValue/CeilAboveValue against a linear
// oracle, at lengths around the 64-offset word and the 4096-offset summary
// word edges and at a long segment, for sparse and dense record patterns.
TEST(SegmentKnowledgeTest, SummarySkipsMatchLinearOracle) {
  common::Rng rng(2024);
  for (const uint32_t length :
       {1u, 63u, 64u, 65u, 4095u, 4096u, 4097u, 47693u}) {
    // Expected number of records: none, a handful, 1%, and half the
    // offsets; plus the two edge offsets alone.
    for (const double density : {0.0, 3.0 / length, 0.01, 0.5, -1.0}) {
      SegmentKnowledge k;
      k.Init(length);
      std::vector<std::optional<uint64_t>> value(length);
      auto record = [&](uint32_t off) {
        const auto hc = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
        const bool fresh = !value[off].has_value();
        EXPECT_EQ(k.Record(off, hc), fresh);
        value[off] = hc;
      };
      if (density < 0) {
        record(0);
        record(length - 1);
      } else {
        for (uint32_t off = 0; off < length; ++off) {
          if (rng.Uniform(0, 1) < density) record(off);
        }
      }
      // Linear oracle: floor[off] = last value at <= off, ceil_above[off]
      // = first value at > off.
      std::vector<std::optional<uint64_t>> floor(length), ceil_above(length);
      std::optional<uint64_t> run;
      for (uint32_t off = 0; off < length; ++off) {
        if (value[off]) run = value[off];
        floor[off] = run;
      }
      run.reset();
      for (uint32_t off = length; off-- > 0;) {
        ceil_above[off] = run;
        if (value[off]) run = value[off];
      }
      for (uint32_t off = 0; off < length; ++off) {
        ASSERT_EQ(k.Find(off), value[off]) << length << " @" << off;
        ASSERT_EQ(k.FloorValue(off), floor[off]) << length << " @" << off;
        ASSERT_EQ(k.CeilAboveValue(off), ceil_above[off])
            << length << " @" << off;
      }
    }
  }
}

}  // namespace
}  // namespace dsi::core
