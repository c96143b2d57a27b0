#pragma once

/// \file airing_order.hpp
/// \brief The soonest-airing primitive: which of a client's candidate
/// buckets comes up next on the linear channel.
///
/// A broadcast client reads whatever airs next, so every family keeps
/// picking "the candidate bucket whose next airing starts soonest". Each
/// candidate data slot airs at one or more physical slots of the session's
/// program (BroadcastProgram::airings: one airing on plain and coded
/// cycles, every repetition on a multi-disk cycle), and physical slots are
/// laid out in start order. From the session's cycle position `pos` the
/// soonest airing is the first pending physical slot starting at or after
/// `pos`, wrapping to the front of the cycle, and the doze to it is
/// (start - pos) mod cycle — exactly ClientSession::PacketsUntil. Two
/// distinct data slots never share a physical airing, so the pick is the
/// unique argmin of PacketsUntil over the candidates.
///
/// The primitive has two shapes:
///  * AiringSet, a pending set (data buckets still to read, tree-node
///    replicas on a search frontier): a bitmap over the physical slots with
///    a summary level (common::TwoLevelBitmap), so insert and erase are
///    O(1) per airing and the pick is a few word scans.
///  * ClientSession::FirstAiringWhere, a forward walk over the on-air cycle
///    from now that stops at the first bucket satisfying a predicate (the
///    DSI frame or exponential-index chunk worth visiting next).
///
/// Physical slots describe one generation's program. A set is local to one
/// client generation: clear it whenever the client re-arms, and rebuild the
/// client when the session reports a new generation.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "broadcast/client.hpp"
#include "broadcast/program.hpp"
#include "common/two_level_bitmap.hpp"

namespace dsi::broadcast {

/// First element of the cyclically ordered range [first, last) — ascending
/// by \p key_of — whose key is at or after \p pos, wrapping to \p first.
/// The range must be non-empty.
template <class It, class KeyOf>
It SoonestAtOrAfter(It first, It last, uint64_t pos, KeyOf key_of) {
  assert(first != last);
  const It it = std::partition_point(
      first, last, [&](const auto& e) { return key_of(e) < pos; });
  return it != last ? it : first;
}

/// Pending candidates, kept as the physical slots of their airings.
class AiringSet {
 public:
  /// The soonest pending airing.
  struct Pick {
    uint32_t id;    ///< The bucket's payload (data id, node id, rank).
    size_t slot;    ///< Data slot of the airing.
    uint64_t wait;  ///< Packets from now to its start (= PacketsUntil).
  };

  /// Adds every airing of data slot \p slot. Re-inserting a slot already
  /// pending is a no-op. The first insert after construction or clear()
  /// sizes the set to the session's program.
  void Insert(const ClientSession& session, size_t slot) {
    const BroadcastProgram& program = session.program();
    if (airings_.size() == 0) airings_.Reset(program.num_buckets());
    assert(airings_.size() == program.num_buckets());
    for (const uint32_t phys : program.airings(slot)) airings_.set(phys);
  }

  /// Removes every airing of data slot \p slot.
  void Erase(const ClientSession& session, size_t slot) {
    for (const uint32_t phys : session.program().airings(slot)) {
      airings_.reset(phys);
    }
  }

  bool empty() const { return airings_.empty(); }
  /// Empties the set and drops its sizing: the next generation's program
  /// may have more physical slots.
  void clear() { airings_.Reset(0); }

  /// The pending airing that starts soonest from the session's current
  /// instant (possibly right now). The set must be non-empty.
  Pick Soonest(const ClientSession& session) const {
    assert(!airings_.empty());
    const BroadcastProgram& program = session.program();
    assert(airings_.size() == program.num_buckets());
    const uint64_t pos = session.cycle_position();
    size_t phys = airings_.NextAtOrAfter(program.SlotStartingAtOrAfter(pos));
    if (phys == common::TwoLevelBitmap::kNone) phys = airings_.NextAtOrAfter(0);
    const Bucket& b = program.bucket(phys);
    const uint64_t wait = b.start_packet >= pos
                              ? b.start_packet - pos
                              : program.cycle_packets() - pos + b.start_packet;
    return Pick{b.payload, b.data_slot, wait};
  }

 private:
  common::TwoLevelBitmap airings_;  ///< By physical slot.
};

}  // namespace dsi::broadcast
