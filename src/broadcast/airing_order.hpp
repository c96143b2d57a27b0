#pragma once

/// \file airing_order.hpp
/// \brief The soonest-airing primitive: which of a client's candidate
/// buckets comes up next on the linear channel.
///
/// A broadcast client reads whatever airs next, so every family keeps
/// picking "the candidate bucket whose next airing starts soonest". Each
/// candidate is keyed by the cycle offset at which each of its physical
/// airings starts (ClientSession::ForEachAiring: one airing on plain and
/// coded cycles, every repetition on a multi-disk cycle). From the
/// session's cycle position `pos` the soonest airing is the first key at or
/// after `pos`, wrapping to the front of the cycle, and the doze to it is
/// (key - pos) mod cycle — exactly ClientSession::PacketsUntil. Two distinct
/// data slots never share a physical airing, so keys are unique and the
/// pick is the unique argmin of PacketsUntil over the candidates.
///
/// The primitive has two shapes:
///  * AiringSet, a pending set (data buckets still to read, tree-node
///    replicas on a search frontier): insert, erase and pick are O(log P).
///  * ClientSession::FirstAiringWhere, a forward walk over the on-air cycle
///    from now that stops at the first bucket satisfying a predicate (the
///    DSI frame or exponential-index chunk worth visiting next).
///
/// Keys describe one generation's program. A set is local to one client
/// generation: clear it whenever the client re-arms, and rebuild the client
/// when the session reports a new generation.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>

#include "broadcast/client.hpp"

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

/// Pending candidates keyed by the cycle offsets of their airings.
class AiringSet {
 public:
  /// The soonest pending airing.
  struct Pick {
    uint32_t id;    ///< Caller's candidate id (data id, node id, rank).
    size_t slot;    ///< Data slot of the airing.
    uint64_t wait;  ///< Packets from now to its start (= PacketsUntil).
  };

  /// Adds every airing of data slot \p slot under candidate \p id.
  /// Re-inserting a slot already pending is a no-op.
  void Insert(const ClientSession& session, size_t slot, uint32_t id) {
    session.ForEachAiring(slot, [&](uint64_t offset) {
      by_offset_.emplace(offset, Entry{id, slot});
    });
  }

  /// Removes every airing of data slot \p slot.
  void Erase(const ClientSession& session, size_t slot) {
    session.ForEachAiring(slot,
                          [&](uint64_t offset) { by_offset_.erase(offset); });
  }

  bool empty() const { return by_offset_.empty(); }
  void clear() { by_offset_.clear(); }

  /// The pending airing that starts soonest from the session's current
  /// instant (possibly right now). The set must be non-empty.
  Pick Soonest(const ClientSession& session) const {
    assert(!by_offset_.empty());
    const uint64_t pos = session.cycle_position();
    auto it = by_offset_.lower_bound(pos);
    if (it == by_offset_.end()) it = by_offset_.begin();
    const uint64_t wait =
        it->first >= pos
            ? it->first - pos
            : session.program().cycle_packets() - pos + it->first;
    return Pick{it->second.id, it->second.slot, wait};
  }

 private:
  struct Entry {
    uint32_t id;
    size_t slot;
  };
  std::map<uint64_t, Entry> by_offset_;
};

}  // namespace dsi::broadcast
