// Order parity of the soonest-airing primitive: on plain, coded, multi-disk
// and republished broadcasts, AiringSet's pick, the FirstAiringWhere walk
// and AirTreeBroadcast::NextNodeSlot must equal the brute-force argmin of
// ClientSession::PacketsUntil at every step of a session that advances
// through random successful and lost reads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "broadcast/air_tree.hpp"
#include "broadcast/airing_order.hpp"
#include "broadcast/client.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"
#include "broadcast/generation.hpp"
#include "broadcast/program.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "rtree/rtree_air.hpp"

namespace dsi::broadcast {
namespace {

/// The linear scan the primitive replaces: the slot among \p slots whose
/// next airing comes soonest (nullopt when empty).
std::optional<size_t> BruteSoonest(const ClientSession& s,
                                   const std::vector<size_t>& slots) {
  std::optional<size_t> best;
  uint64_t best_wait = UINT64_MAX;
  for (const size_t slot : slots) {
    const uint64_t wait = s.PacketsUntil(slot);
    EXPECT_NE(wait, best_wait) << "two slots share an airing";
    if (wait < best_wait) {
      best_wait = wait;
      best = slot;
    }
  }
  return best;
}

/// A flat cycle of mixed bucket sizes (tables, nodes, objects) so airings
/// start at irregular offsets.
BroadcastProgram MakeFlat(size_t buckets, uint64_t seed) {
  common::Rng rng(seed);
  BroadcastProgram p(64);
  for (size_t i = 0; i < buckets; ++i) {
    const auto bytes = static_cast<uint32_t>(rng.UniformInt(1, 300));
    p.AddBucket(i % 5 == 0 ? BucketKind::kDsiFrameTable
                           : BucketKind::kDataObject,
                static_cast<uint32_t>(i), bytes);
  }
  p.Finalize();
  return p;
}

/// Zipf(1.2) weights of random popularity ranks, one per slot.
std::vector<double> SkewedWeights(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(rng.UniformInt(1, 64)), 1.2);
  }
  return w;
}

/// Drives \p session through \p steps random reads while keeping a random
/// pending set, checking both primitive shapes against the brute force
/// before every read.
void CheckOrderParity(ClientSession* session, size_t steps, uint64_t seed) {
  common::Rng rng(seed);
  session->InitialProbe();
  uint64_t generation = session->generation();
  AiringSet pending;
  std::set<size_t> pending_slots;
  for (size_t step = 0; step < steps; ++step) {
    const BroadcastProgram& program = session->program();
    const size_t n = program.num_data_buckets();
    if (session->generation() != generation) {
      // Keys are offsets in one generation's program: start over.
      generation = session->generation();
      pending.clear();
      pending_slots.clear();
    }
    while (pending_slots.size() < 8 || rng.Bernoulli(0.3)) {
      const auto slot = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      pending.Insert(*session, slot, static_cast<uint32_t>(slot));
      pending_slots.insert(slot);
      if (pending_slots.size() >= n) break;
    }

    // Pending-set shape.
    const std::vector<size_t> slots(pending_slots.begin(),
                                    pending_slots.end());
    const AiringSet::Pick pick = pending.Soonest(*session);
    ASSERT_EQ(pick.slot, BruteSoonest(*session, slots).value())
        << "step " << step;
    EXPECT_EQ(pick.id, pick.slot);
    EXPECT_EQ(pick.wait, session->PacketsUntil(pick.slot));

    // Forward-walk shape, over a random predicate.
    const uint64_t salt = rng.engine()();
    auto chosen = [&](size_t slot) {
      return ((slot * 0x9E37u) ^ salt) % 7 == 0;
    };
    std::vector<size_t> matching;
    for (size_t s = 0; s < n; ++s) {
      if (chosen(s)) matching.push_back(s);
    }
    EXPECT_EQ(session->FirstAiringWhere(chosen),
              BruteSoonest(*session, matching))
        << "step " << step;

    // Advance: read the pick (sometimes a random slot), losses included.
    const size_t target =
        rng.Bernoulli(0.8) ? pick.slot
                           : static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int64_t>(n) - 1));
    if (session->ReadBucket(target) && pending_slots.erase(target) > 0) {
      pending.Erase(*session, target);
    }
    if (rng.Bernoulli(0.05)) {
      session->Pace(static_cast<uint64_t>(rng.UniformInt(1, 500)));
    }
  }
}

constexpr ErrorModel kLossy{0.3, ErrorMode::kPerReadLoss};

TEST(AiringOrderTest, PlainCycle) {
  const BroadcastProgram p = MakeFlat(97, 1);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    ClientSession s(p, seed * 131, kLossy, common::Rng(seed));
    CheckOrderParity(&s, 400, seed);
  }
}

TEST(AiringOrderTest, CodedCycle) {
  const BroadcastProgram p =
      MakeCodedProgram(MakeFlat(97, 2), CodingConfig{2, 2});
  ASSERT_TRUE(p.coded());
  for (uint64_t seed = 0; seed < 4; ++seed) {
    ClientSession s(p, seed * 97, kLossy, common::Rng(seed + 10));
    CheckOrderParity(&s, 400, seed + 10);
  }
}

TEST(AiringOrderTest, ThreeDiskSkewedCycle) {
  const BroadcastProgram flat = MakeFlat(97, 3);
  const BroadcastProgram p =
      MakeMultiDiskProgram(flat, 3, SkewedWeights(flat.num_buckets(), 3));
  ASSERT_TRUE(p.multi_disk());
  ASSERT_EQ(p.num_disks(), 3u);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    ClientSession s(p, seed * 53, kLossy, common::Rng(seed + 20));
    CheckOrderParity(&s, 400, seed + 20);
  }
}

TEST(AiringOrderTest, CodedThreeDiskSkewedCycle) {
  const BroadcastProgram flat = MakeFlat(97, 8);
  const BroadcastProgram p = MakeCodedProgram(
      MakeMultiDiskProgram(flat, 3, SkewedWeights(flat.num_buckets(), 8)),
      CodingConfig{3, 1});
  ASSERT_TRUE(p.coded());
  ASSERT_EQ(p.num_disks(), 3u);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    ClientSession s(p, seed * 71, kLossy, common::Rng(seed + 50));
    CheckOrderParity(&s, 400, seed + 50);
  }
}

TEST(AiringOrderTest, ThreeGenerationSchedule) {
  const BroadcastProgram g0 = MakeFlat(61, 4);
  const BroadcastProgram g1 =
      MakeCodedProgram(MakeFlat(73, 5), CodingConfig{2, 2});
  const BroadcastProgram flat2 = MakeFlat(89, 6);
  const BroadcastProgram g2 =
      MakeMultiDiskProgram(flat2, 3, SkewedWeights(flat2.num_buckets(), 6));
  GenerationSchedule schedule;
  schedule.Append(&g0, 3);
  schedule.Append(&g1, 3);
  schedule.Append(&g2, 3);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    ClientSession s(schedule, seed * 211, kLossy, common::Rng(seed + 30));
    CheckOrderParity(&s, 600, seed + 30);
    EXPECT_GT(s.generation(), 0u) << "the walk never crossed a republication";
  }
}

TEST(AiringOrderTest, NextNodeSlotIsSoonestReplica) {
  const auto objects = datasets::MakeUniform(
      600, datasets::UnitUniverse(), /*seed=*/7);
  const rtree::RtreeIndex index(objects, 64);
  const AirTreeBroadcast& air = index.air();
  const BroadcastProgram& flat = air.program();
  std::vector<std::unique_ptr<BroadcastProgram>> layouts;
  layouts.push_back(std::make_unique<BroadcastProgram>(
      MakeCodedProgram(flat, CodingConfig{2, 2})));
  layouts.push_back(std::make_unique<BroadcastProgram>(MakeMultiDiskProgram(
      flat, 3, SkewedWeights(flat.num_buckets(), 7))));
  layouts.push_back(std::make_unique<BroadcastProgram>(MakeCodedProgram(
      MakeMultiDiskProgram(flat, 3, SkewedWeights(flat.num_buckets(), 7)),
      CodingConfig{2, 1})));
  std::vector<const BroadcastProgram*> programs{&flat};
  for (const auto& p : layouts) programs.push_back(p.get());

  // Replicated nodes (the ancestor paths above the distribution level) are
  // the ones with a choice to make.
  std::vector<uint32_t> replicated;
  for (uint32_t id = 0; id < index.tree().num_nodes(); ++id) {
    if (air.NodeSlots(id).size() > 1) replicated.push_back(id);
  }
  ASSERT_FALSE(replicated.empty());

  for (const BroadcastProgram* program : programs) {
    ClientSession s(*program, 17, kLossy, common::Rng(40));
    s.InitialProbe();
    common::Rng rng(41);
    for (int step = 0; step < 300; ++step) {
      const auto node =
          rng.Bernoulli(0.5)
              ? replicated[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(replicated.size()) - 1))]
              : static_cast<uint32_t>(rng.UniformInt(
                    0, static_cast<int64_t>(index.tree().num_nodes()) - 1));
      const size_t slot = air.NextNodeSlot(node, s);
      ASSERT_EQ(slot, BruteSoonest(s, air.NodeSlots(node)).value())
          << "node " << node << " step " << step;
      s.ReadBucket(slot);
    }
  }
}

}  // namespace
}  // namespace dsi::broadcast
