#include "dsi/index.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/sizes.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::core {
namespace {

using datasets::SpatialObject;

std::vector<SpatialObject> SmallDataset() {
  return datasets::MakeUniform(200, datasets::UnitUniverse(), 11);
}

TEST(DsiIndexTest, SortsObjectsByHilbertValue) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const DsiIndex idx(SmallDataset(), mapper, 64, DsiConfig{});
  const auto& objs = idx.sorted_objects();
  ASSERT_EQ(objs.size(), 200u);
  for (size_t i = 1; i < objs.size(); ++i) {
    EXPECT_LE(idx.object_hc(i - 1), idx.object_hc(i));
    EXPECT_EQ(idx.object_hc(i), mapper.PointToIndex(objs[i].location));
  }
}

TEST(DsiIndexTest, ObjectFactorOneMakesRoughlyOneFramePerObject) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const DsiIndex idx(SmallDataset(), mapper, 64, DsiConfig{});
  // Frames only merge on HC ties, so nF is close to N.
  EXPECT_LE(idx.num_frames(), 200u);
  EXPECT_GE(idx.num_frames(), 150u);
}

TEST(DsiIndexTest, FramesNeverSplitEqualHcRuns) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 4);  // ties
  const DsiIndex idx(SmallDataset(), mapper, 64, DsiConfig{});
  for (uint32_t pos = 0; pos < idx.num_frames(); ++pos) {
    const auto fo = idx.ObjectsAt(pos);
    ASSERT_GT(fo.count, 0u);
    // The frame's first object starts a new HC value.
    if (fo.first_rank > 0) {
      EXPECT_LT(idx.object_hc(fo.first_rank - 1),
                idx.object_hc(fo.first_rank));
    }
  }
}

TEST(DsiIndexTest, FrameMinHcsStrictlyIncreaseByRank) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const DsiIndex idx(SmallDataset(), mapper, 64, DsiConfig{});
  for (uint32_t rank = 1; rank < idx.num_frames(); ++rank) {
    EXPECT_GT(idx.FrameMinHcAtPosition(idx.FrameRankToPosition(rank)),
              idx.FrameMinHcAtPosition(idx.FrameRankToPosition(rank - 1)));
  }
}

TEST(DsiIndexTest, EntriesCoverExponentialDistances) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const DsiIndex idx(SmallDataset(), mapper, 64, DsiConfig{});
  const uint32_t nf = idx.num_frames();
  // entries = ceil(log2(nF)).
  uint32_t e = 0;
  for (uint64_t reach = 1; reach < nf; reach *= 2) ++e;
  EXPECT_EQ(idx.entries_per_table(), e);

  const DsiTableView t = idx.TableAt(5);
  ASSERT_EQ(t.entries.size(), e);
  uint64_t reach = 1;
  for (const auto& entry : t.entries) {
    EXPECT_EQ(entry.position, (5 + reach) % nf);
    EXPECT_EQ(entry.hc_min, idx.FrameMinHcAtPosition(entry.position));
    reach *= 2;
  }
}

TEST(DsiIndexTest, EntryReachesAreNestedWithinOneCycle) {
  // The client's bisected hop relies on this: every table's entries reach
  // strictly farther ahead, cyclically, and none wraps a full cycle, so the
  // gaps the entries skip are nested.
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 16);
  for (const size_t n : {1, 2, 3, 17, 1000, 100000}) {
    const auto objects =
        datasets::MakeUniform(n, datasets::UnitUniverse(), 7);
    for (const uint32_t base : {2u, 3u, 4u}) {
      for (const uint32_t m : {1u, 2u, 3u}) {
        DsiConfig cfg;
        cfg.index_base = base;
        cfg.num_segments = m;
        const DsiIndex idx(objects, mapper, 64, cfg);
        const uint32_t nf = idx.num_frames();
        if (nf == 1) EXPECT_EQ(idx.entries_per_table(), 0u);
        DsiTableView t;
        for (uint32_t pos = 0; pos < nf; ++pos) {
          idx.TableAt(pos, &t);
          uint32_t prev = 0;
          uint64_t nominal = 1;  // r^i, the reach before wrapping
          for (const DsiTableEntry& e : t.entries) {
            const uint32_t reach = (e.position + nf - pos) % nf;
            ASSERT_GT(reach, prev) << n << " " << base << " " << m;
            ASSERT_LT(nominal, nf);
            ASSERT_EQ(reach, nominal);
            prev = reach;
            nominal *= base;
          }
        }
      }
    }
  }
}

TEST(DsiIndexTest, EntryPositionMatchesModuloTableFormula) {
  // Clients read entry i in place as {FrameMinHcAtPosition(t), t} with
  // t = EntryPosition(p, i). The reference is the old table formula:
  // t = (p + r^i) mod frames, and the min-HC of the frame at t found
  // through the position -> rank map.
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 16);
  for (const uint32_t n : {1u, 2u, 3u, 7u, 64u, 65u, 1000u}) {
    const auto objects =
        datasets::MakeUniform(n, datasets::UnitUniverse(), 23);
    for (const uint32_t r : {2u, 3u}) {
      for (const uint32_t m : {1u, 2u, 3u}) {
        DsiConfig cfg;
        cfg.index_base = r;
        cfg.num_segments = m;
        const DsiIndex idx(objects, mapper, 64, cfg);
        ASSERT_EQ(idx.num_frames(), n);  // distinct cells: one object each
        auto ref_hc = [&](uint32_t pos) {
          return idx.object_hc(idx.ObjectsAt(pos).first_rank);
        };
        DsiTableView t;
        for (uint32_t p = 0; p < n; ++p) {
          ASSERT_EQ(idx.FrameMinHcAtPosition(p), ref_hc(p));
          idx.TableAt(p, &t);
          ASSERT_EQ(t.entries.size(), idx.entries_per_table());
          uint64_t reach = 1;
          for (uint32_t i = 0; i < idx.entries_per_table(); ++i, reach *= r) {
            const auto target = static_cast<uint32_t>((p + reach) % n);
            const uint32_t got = idx.EntryPosition(p, i);
            ASSERT_EQ(got, target) << n << " " << r << " " << m << " " << p;
            ASSERT_EQ(idx.FrameMinHcAtPosition(got), ref_hc(target));
            ASSERT_EQ(t.entries[i].position, target);
            ASSERT_EQ(t.entries[i].hc_min, ref_hc(target));
          }
        }
      }
    }
  }
}

TEST(DsiIndexTest, TableSizeMatchesFieldSizes) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const DsiIndex idx(SmallDataset(), mapper, 64, DsiConfig{});
  // Compact default: an order-8 cell index packs into 2 bytes.
  EXPECT_EQ(idx.table_hc_bytes(), 2u);
  EXPECT_EQ(idx.table_bytes(),
            idx.table_hc_bytes() +
                idx.entries_per_table() *
                    (idx.table_hc_bytes() + common::kPointerBytes));

  DsiConfig reorg;
  reorg.num_segments = 2;
  reorg.table_hc_bytes = 16;  // the paper's literal field accounting
  const DsiIndex idx2(SmallDataset(), mapper, 64, reorg);
  EXPECT_EQ(idx2.table_bytes(),
            common::kHilbertValueBytes + 2 * common::kHilbertValueBytes +
                idx2.entries_per_table() * common::kHcIndexEntryBytes);
}

TEST(DsiIndexTest, ProgramLayoutAlternatesTableAndObjects) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const DsiIndex idx(SmallDataset(), mapper, 64, DsiConfig{});
  const auto& prog = idx.program();
  std::set<uint32_t> object_payloads;
  for (uint32_t pos = 0; pos < idx.num_frames(); ++pos) {
    const auto& tb = prog.bucket(idx.TableSlot(pos));
    EXPECT_EQ(tb.kind, broadcast::BucketKind::kDsiFrameTable);
    EXPECT_EQ(tb.payload, pos);
    const auto fo = idx.ObjectsAt(pos);
    for (uint32_t i = 0; i < fo.count; ++i) {
      const auto& ob = prog.bucket(fo.first_slot + i);
      EXPECT_EQ(ob.kind, broadcast::BucketKind::kDataObject);
      EXPECT_EQ(ob.payload, fo.first_rank + i);
      EXPECT_EQ(ob.size_bytes, common::kDataObjectBytes);
      object_payloads.insert(ob.payload);
    }
  }
  EXPECT_EQ(object_payloads.size(), 200u);  // every object broadcast once
}

TEST(DsiIndexTest, ReorganizationPermutesFrames) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  DsiConfig cfg;
  cfg.num_segments = 2;
  const DsiIndex idx(SmallDataset(), mapper, 64, cfg);
  // Broadcast order must interleave the two halves of the HC order:
  // position 0 -> rank 0, position 1 -> rank ~nF/2.
  EXPECT_EQ(idx.PositionToFrameRank(0), 0u);
  const uint32_t nf = idx.num_frames();
  EXPECT_EQ(idx.PositionToFrameRank(1), (nf + 1) / 2);
  // Segment heads advertise the first HC of each segment.
  ASSERT_EQ(idx.segment_head_hcs().size(), 2u);
  EXPECT_EQ(idx.segment_head_hcs()[0], idx.FrameMinHcAtPosition(0));
  EXPECT_EQ(idx.segment_head_hcs()[1], idx.FrameMinHcAtPosition(1));
  EXPECT_LT(idx.segment_head_hcs()[0], idx.segment_head_hcs()[1]);
}

TEST(DsiIndexTest, PaperDerivedObjectFactor) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  DsiConfig cfg;
  cfg.object_factor = 0;    // paper derivation: one packet per table
  cfg.table_hc_bytes = 16;  // with the paper's literal 16-byte HC values
  const DsiIndex idx(SmallDataset(), mapper, 64, cfg);
  // Capacity 64: (64-16)/18 = 2 entries fit -> nF = 4 -> no = 50.
  EXPECT_EQ(idx.object_factor(), 50u);
  EXPECT_LE(idx.num_frames(), 5u);
  EXPECT_GE(idx.num_frames(), 4u);
}

TEST(DsiIndexTest, CompactTablesFitFewPackets) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const DsiIndex idx(
      datasets::MakeUniform(10000, datasets::UnitUniverse(), 3), mapper, 64,
      DsiConfig{});
  // 14 entries x 4 B + 2 B own header = 58 B: a single 64-byte packet.
  EXPECT_LE(idx.table_bytes(), 64u);
}

TEST(DsiIndexTest, CycleBytesScaleWithData) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const DsiIndex idx(SmallDataset(), mapper, 64, DsiConfig{});
  // Cycle must be at least the data payload and not absurdly larger.
  const uint64_t data = 200ull * common::kDataObjectBytes;
  EXPECT_GE(idx.program().cycle_bytes(), data);
  EXPECT_LE(idx.program().cycle_bytes(), 2 * data);
}

}  // namespace
}  // namespace dsi::core
