#pragma once

/// \file coding.hpp
/// \brief Server-side erasure coding of a broadcast cycle: per-group parity
/// buckets that let clients reconstruct a lost bucket from the surviving
/// members of its group instead of waiting a full cycle for the retry.
///
/// The scheme is the simplest exact one (the LDPC-over-a-lossy-channel idea
/// of Bariffi et al., reduced to erasure form): the physical data airings of
/// a cycle are partitioned, in broadcast order, into groups of `group`
/// consecutive airings, and each group is followed on air by `parity`
/// parity buckets (XOR for parity = 1, Reed–Solomon-style beyond). On a
/// multi-disk cycle each hot repetition is an airing of its own. Any `d`
/// intact symbols of a group's `d + parity` on-air symbols reconstruct
/// every member, where `d` is the group's data-airing count (the last group
/// of a cycle may be short — the wrap-around case). Parity buckets are padded to the largest
/// member, so their on-air size is the group's maximum bucket size.
///
/// Interleaving parity right behind its group (rather than batching it at
/// the cycle end) is what bounds repair latency: when a client loses a
/// bucket, the rest of the group — data and parity — is still in flight
/// immediately behind it, so the repair usually completes within the same
/// group span instead of a cycle later.
///
/// The coding schedule rides in the packet header (with the bucket-boundary
/// offset and the generation stamp), so an uncoded program is bit-identical
/// to today's broadcast and a single probe teaches a client the layout.
/// Coded programs die with their generation: a republication re-encodes the
/// new cycle, and in-flight repairs abort at the switch instant.

#include "broadcast/program.hpp"

namespace dsi::broadcast {

/// Server-side redundancy knobs. Disabled (the default) reproduces the
/// uncoded broadcast exactly; enabled() requires both a group size and at
/// least one parity bucket per group.
struct CodingConfig {
  uint32_t group = 0;   ///< Data buckets per parity group; 0 disables.
  uint32_t parity = 0;  ///< Parity buckets appended per group.

  bool enabled() const { return group > 0 && parity > 0; }
};

/// Re-emits \p data with parity buckets interleaved after every group of
/// \p config.group physical data airings (the last, possibly short, group
/// wraps at the cycle boundary and still gets full parity). Data buckets
/// keep their kind/payload/size, data slot and relative order; physical
/// slots shift — clients keep addressing DATA slots through the slot map.
/// \p data may be a multi-disk cycle: a hot slot's repetitions then fall
/// into different groups. Returns \p data unchanged when coding is
/// disabled or the cycle is empty.
BroadcastProgram MakeCodedProgram(BroadcastProgram data,
                                  const CodingConfig& config);

}  // namespace dsi::broadcast
