#include "broadcast/air_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "bptree/bptree.hpp"
#include "common/rng.hpp"

namespace dsi::broadcast {
namespace {

/// A small synthetic 3-level tree: root -> 3 internals -> 9 leaves -> 27
/// data buckets.
AirTreeSpec MakeSpec() {
  AirTreeSpec spec;
  // 9 leaves (ids 0..8), 3 internals (9..11), root (12).
  uint32_t data = 0;
  for (uint32_t leaf = 0; leaf < 9; ++leaf) {
    AirTreeSpec::Node n;
    n.level = 0;
    n.size_bytes = 54;
    for (int i = 0; i < 3; ++i) n.children.push_back(data++);
    spec.nodes.push_back(n);
  }
  for (uint32_t mid = 0; mid < 3; ++mid) {
    AirTreeSpec::Node n;
    n.level = 1;
    n.size_bytes = 54;
    for (uint32_t i = 0; i < 3; ++i) n.children.push_back(mid * 3 + i);
    spec.nodes.push_back(n);
  }
  AirTreeSpec::Node root;
  root.level = 2;
  root.size_bytes = 54;
  root.children = {9, 10, 11};
  spec.nodes.push_back(root);
  spec.root = 12;
  spec.data_sizes.assign(27, 1024);
  return spec;
}

TEST(AirTreeDistributedTest, SubtreeStructure) {
  const AirTreeBroadcast air(MakeSpec(), 64, /*target_subtrees=*/3,
                             TreeLayout::kDistributed);
  EXPECT_EQ(air.layout(), TreeLayout::kDistributed);
  EXPECT_EQ(air.num_subtrees(), 3u);
  EXPECT_EQ(air.distribution_level(), 1u);
  // Root is replicated once per subtree; internals once; leaves once.
  EXPECT_EQ(air.NodeSlots(12).size(), 3u);
  for (uint32_t mid = 9; mid <= 11; ++mid) {
    EXPECT_EQ(air.NodeSlots(mid).size(), 1u);
  }
  for (uint32_t leaf = 0; leaf < 9; ++leaf) {
    EXPECT_EQ(air.NodeSlots(leaf).size(), 1u);
  }
}

TEST(AirTreeDistributedTest, OrderWithinCycle) {
  const AirTreeBroadcast air(MakeSpec(), 64, 3, TreeLayout::kDistributed);
  const auto& prog = air.program();
  // Per subtree: [root][mid][leaf leaf leaf][9 data]. Data of subtree s
  // comes after its leaves and before the next subtree's root copy.
  for (uint32_t s = 0; s < 3; ++s) {
    const uint64_t root_start =
        prog.bucket(air.NodeSlots(12)[s]).start_packet;
    const uint64_t mid_start =
        prog.bucket(air.NodeSlots(9 + s).front()).start_packet;
    EXPECT_GT(mid_start, root_start);
    for (uint32_t leaf = s * 3; leaf < s * 3 + 3; ++leaf) {
      const uint64_t leaf_start =
          prog.bucket(air.NodeSlots(leaf).front()).start_packet;
      EXPECT_GT(leaf_start, mid_start);
      for (uint32_t i = 0; i < 3; ++i) {
        const uint32_t d = leaf * 3 + i;
        EXPECT_GT(prog.bucket(air.DataSlot(d)).start_packet, leaf_start);
      }
    }
  }
}

TEST(AirTreeDistributedTest, EveryDataBucketExactlyOnce) {
  const AirTreeBroadcast air(MakeSpec(), 64, 3, TreeLayout::kDistributed);
  std::set<size_t> slots;
  for (uint32_t d = 0; d < 27; ++d) slots.insert(air.DataSlot(d));
  EXPECT_EQ(slots.size(), 27u);
}

TEST(AirTreeOneMTest, WholeIndexReplicatedMTimes) {
  for (const uint32_t m : {1u, 2u, 3u, 5u}) {
    const AirTreeBroadcast air(MakeSpec(), 64, m, TreeLayout::kOneM);
    EXPECT_EQ(air.layout(), TreeLayout::kOneM);
    for (uint32_t node = 0; node < 13; ++node) {
      EXPECT_EQ(air.NodeSlots(node).size(), m) << "node " << node;
    }
    std::set<size_t> slots;
    for (uint32_t d = 0; d < 27; ++d) slots.insert(air.DataSlot(d));
    EXPECT_EQ(slots.size(), 27u);
  }
}

TEST(AirTreeOneMTest, DataSplitsIntoChunksAfterEachCopy) {
  const AirTreeBroadcast air(MakeSpec(), 64, 3, TreeLayout::kOneM);
  const auto& prog = air.program();
  // Copy c of the root precedes the data of chunk c (9 items each) and
  // follows the data of chunk c-1.
  for (uint32_t c = 0; c < 3; ++c) {
    const uint64_t copy_start =
        prog.bucket(air.NodeSlots(12)[c]).start_packet;
    for (uint32_t d = c * 9; d < (c + 1) * 9; ++d) {
      EXPECT_GT(prog.bucket(air.DataSlot(d)).start_packet, copy_start);
    }
    if (c > 0) {
      for (uint32_t d = (c - 1) * 9; d < c * 9; ++d) {
        EXPECT_LT(prog.bucket(air.DataSlot(d)).start_packet, copy_start);
      }
    }
  }
}

TEST(AirTreeOneMTest, CycleGrowsWithM) {
  const AirTreeBroadcast one(MakeSpec(), 64, 1, TreeLayout::kOneM);
  const AirTreeBroadcast four(MakeSpec(), 64, 4, TreeLayout::kOneM);
  EXPECT_GT(four.program().cycle_bytes(), one.program().cycle_bytes());
  // Exactly 3 extra index copies: 13 nodes x 1 packet x 64 B each.
  EXPECT_EQ(four.program().cycle_bytes() - one.program().cycle_bytes(),
            3u * 13u * 64u);
}

TEST(AirTreeOneMTest, DistributedCheaperThanFullReplication) {
  // Same number of index access points (m == target subtrees): the
  // distributed layout replicates only paths and must be no longer.
  const AirTreeBroadcast dist(MakeSpec(), 64, 3, TreeLayout::kDistributed);
  const AirTreeBroadcast onem(MakeSpec(), 64, 3, TreeLayout::kOneM);
  EXPECT_LT(dist.program().cycle_bytes(), onem.program().cycle_bytes());
}

TEST(AirTreeTest, NextNodeSlotWrapsCorrectly) {
  const AirTreeBroadcast air(MakeSpec(), 64, 3, TreeLayout::kDistributed);
  // Park a session just past the last bucket; the next root copy is the
  // first one of the next cycle.
  ClientSession s(air.program(),
                  air.program().cycle_packets() - 1, ErrorModel{},
                  common::Rng(1));
  s.InitialProbe();
  const size_t slot = air.NextNodeSlot(12, s);
  EXPECT_EQ(slot, air.NodeSlots(12).front());
}

TEST(AirTreeTest, SingleNodeTree) {
  AirTreeSpec spec;
  AirTreeSpec::Node leaf;
  leaf.level = 0;
  leaf.size_bytes = 18;
  leaf.children = {0, 1};
  spec.nodes.push_back(leaf);
  spec.root = 0;
  spec.data_sizes = {100, 200};
  const AirTreeBroadcast air(spec, 64, 4, TreeLayout::kDistributed);
  EXPECT_EQ(air.num_subtrees(), 1u);
  EXPECT_EQ(air.NodeSlots(0).size(), 1u);
  (void)air.DataSlot(0);
  (void)air.DataSlot(1);
}

TEST(AirTreeTest, RealTreeBothLayoutsCoverSameData) {
  std::vector<uint64_t> keys;
  common::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    keys.push_back(static_cast<uint64_t>(rng.UniformInt(0, 1 << 20)));
  }
  std::sort(keys.begin(), keys.end());
  const bptree::BptTree tree(keys, 4);
  const auto spec = tree.ToAirSpec(std::vector<uint32_t>(300, 1024));
  const AirTreeBroadcast dist(spec, 64, 8, TreeLayout::kDistributed);
  const AirTreeBroadcast onem(spec, 64, 2, TreeLayout::kOneM);
  for (uint32_t d = 0; d < 300; ++d) {
    (void)dist.DataSlot(d);
    (void)onem.DataSlot(d);
  }
  for (uint32_t n = 0; n < tree.num_nodes(); ++n) {
    EXPECT_GE(dist.NodeSlots(n).size(), 1u);
    EXPECT_EQ(onem.NodeSlots(n).size(), 2u);
  }
}

// The replica lists are one flat array cut by per-node offsets: each list
// must be ascending and name only its own node's index buckets, and together
// they must name every index-node bucket of the program exactly once.
TEST(AirTreeTest, ReplicaListsPartitionIndexAirTime) {
  std::vector<uint64_t> keys;
  common::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    keys.push_back(static_cast<uint64_t>(rng.UniformInt(0, 1 << 20)));
  }
  std::sort(keys.begin(), keys.end());
  const bptree::BptTree tree(keys, 3);
  const std::vector<AirTreeSpec> specs = {
      MakeSpec(), tree.ToAirSpec(std::vector<uint32_t>(500, 1024))};
  for (const AirTreeSpec& spec : specs) {
    for (const TreeLayout layout :
         {TreeLayout::kDistributed, TreeLayout::kOneM}) {
      for (const uint32_t target : {1u, 3u, 8u}) {
        const AirTreeBroadcast air(spec, 64, target, layout);
        const BroadcastProgram& prog = air.program();
        std::vector<int> named(prog.num_buckets(), 0);
        for (uint32_t id = 0; id < spec.nodes.size(); ++id) {
          const auto slots = air.NodeSlots(id);
          ASSERT_FALSE(slots.empty()) << "node " << id;
          for (size_t i = 0; i < slots.size(); ++i) {
            if (i > 0) {
              EXPECT_LT(slots[i - 1], slots[i]) << "node " << id;
            }
            ASSERT_LT(slots[i], prog.num_buckets());
            EXPECT_EQ(prog.bucket(slots[i]).kind, BucketKind::kIndexNode);
            EXPECT_EQ(prog.bucket(slots[i]).payload, id);
            ++named[slots[i]];
          }
        }
        for (size_t s = 0; s < prog.num_buckets(); ++s) {
          const bool index_node =
              prog.bucket(s).kind == BucketKind::kIndexNode;
          EXPECT_EQ(named[s], index_node ? 1 : 0)
              << "slot " << s << " layout " << static_cast<int>(layout)
              << " target " << target;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dsi::broadcast
