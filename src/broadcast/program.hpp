#pragma once

/// \file program.hpp
/// \brief The broadcast program: the fixed, periodically repeated sequence
/// of buckets (index tables, tree nodes, data objects) a server pushes onto
/// the wireless channel.
///
/// Model (Section 4 of the paper):
///  * The atomic on-air unit is a packet of `packet_capacity` bytes.
///  * A bucket occupies ceil(size_bytes / capacity) consecutive packets and
///    always starts on a packet boundary (clients synchronize per packet).
///  * The program repeats forever; global time is measured in packets and
///    metrics are reported in bytes (packets x capacity).

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace dsi::broadcast {

/// What a bucket carries; lets tests and traces introspect programs.
enum class BucketKind : uint8_t {
  kDsiFrameTable,   ///< One DSI index table (one packet by construction).
  kIndexNode,       ///< A tree index node (R-tree or B+-tree).
  kDataObject,      ///< One spatial data object (1024 bytes).
  kParity,          ///< Erasure-coding parity over a group of data buckets.
};

/// One bucket of the broadcast program.
struct Bucket {
  /// data_slot of a parity bucket, which airs no data slot.
  static constexpr uint32_t kNoDataSlot = UINT32_MAX;

  BucketKind kind = BucketKind::kDataObject;
  uint32_t payload = 0;     ///< Id meaningful to the owning index structure.
  uint32_t size_bytes = 0;  ///< Serialized size; on-air size rounds up.
  /// The data slot this physical bucket airs: the slot space query clients
  /// address (see BroadcastProgram::airings).
  uint32_t data_slot = 0;
  uint64_t packets = 0;     ///< Derived: ceil(size_bytes / capacity).
  uint64_t start_packet = 0;  ///< Derived: offset within the cycle.
};
// data_slot fills the padding hole after size_bytes: the slot map is free.
static_assert(sizeof(Bucket) == 32, "Bucket grew past 32 bytes");

/// An immutable-after-finalize broadcast cycle description. Every program
/// is one slot map: each physical bucket airs a data slot (or parity), and
/// the multi-disk (broadcast/disks.hpp) and coded (broadcast/coding.hpp)
/// re-layouts are builders over it that compose.
class BroadcastProgram {
 public:
  /// \p num_disks is the frequency-tier count of a multi-disk cycle (1 for
  /// a flat one); clients read it to scale their wait budgets.
  explicit BroadcastProgram(size_t packet_capacity, uint32_t num_disks = 1)
      : packet_capacity_(packet_capacity), num_disks_(num_disks) {
    assert(packet_capacity_ > 0);
    assert(num_disks_ >= 1);
  }

  /// Appends a bucket airing \p data_slot (default: the next unused one);
  /// returns its physical slot within the cycle. Parity airs no data slot.
  /// By Finalize every data slot below num_data_buckets() must air.
  size_t AddBucket(BucketKind kind, uint32_t payload, uint32_t size_bytes,
                   std::optional<uint32_t> data_slot = std::nullopt) {
    assert(!finalized_);
    assert(!(kind == BucketKind::kParity && data_slot));
    Bucket b;
    b.kind = kind;
    b.payload = payload;
    b.size_bytes = size_bytes;
    b.data_slot = kind == BucketKind::kParity
                      ? Bucket::kNoDataSlot
                      : data_slot.value_or(next_data_slot_);
    b.packets = (size_bytes + packet_capacity_ - 1) / packet_capacity_;
    if (b.packets == 0) b.packets = 1;
    buckets_.push_back(b);
    if (b.kind != BucketKind::kParity) {
      next_data_slot_ = std::max(next_data_slot_, b.data_slot + 1);
    }
    return buckets_.size() - 1;
  }

  /// Computes packet offsets and the airing lists; no further AddBucket
  /// calls allowed.
  void Finalize();

  /// Declares this program an erasure-coded broadcast (MakeCodedProgram is
  /// the only builder): every \p group physical data airings are followed
  /// by \p parity parity buckets. The schedule is part of the packet header
  /// framing (next to the bucket-boundary offset and generation stamp),
  /// which is how clients learn it from a single probe — uncoded programs
  /// carry group() == 0 and stay byte-identical on air.
  void SetCodingSchedule(uint32_t group, uint32_t parity) {
    assert(!finalized_);
    assert(group > 0 && parity > 0);
    coding_group_ = group;
    coding_parity_ = parity;
  }

  bool finalized() const { return finalized_; }
  size_t packet_capacity() const { return packet_capacity_; }
  size_t num_buckets() const { return buckets_.size(); }
  uint64_t cycle_packets() const { return cycle_packets_; }
  uint64_t cycle_bytes() const { return cycle_packets_ * packet_capacity_; }

  /// True when the cycle interleaves parity buckets (see SetCodingSchedule).
  bool coded() const { return coding_group_ > 0; }
  uint32_t coding_group() const { return coding_group_; }
  uint32_t coding_parity() const { return coding_parity_; }
  /// True when the cycle has frequency tiers (see broadcast/disks.hpp).
  bool multi_disk() const { return num_disks_ > 1; }
  uint32_t num_disks() const { return num_disks_; }
  /// Number of DATA slots — the slot space query clients address; equals
  /// num_buckets() for plain programs.
  size_t num_data_buckets() const { return next_data_slot_; }

  /// Every physical slot airing data slot \p data_slot, in cycle order. Never
  /// empty: one airing on plain and coded cycles, one per repetition on a
  /// multi-disk cycle.
  std::span<const uint32_t> airings(size_t data_slot) const {
    assert(finalized_ && data_slot < next_data_slot_);
    // Identity map: bucket s airs data slot s, so its data_slot field is
    // the one-element list.
    if (airing_begin_.empty()) return {&buckets_[data_slot].data_slot, 1};
    return {airing_phys_.data() + airing_begin_[data_slot],
            airing_phys_.data() + airing_begin_[data_slot + 1]};
  }

  /// The parity group holding physical slot \p phys of a coded cycle: a
  /// contiguous run of `data` data airings from `first`, followed by
  /// coding_parity() parity buckets. Runs are coding_group() +
  /// coding_parity() slots long; the cycle's last may have fewer data
  /// airings.
  struct GroupRun {
    size_t first;
    size_t data;
  };
  GroupRun GroupOf(size_t phys) const {
    assert(coded() && phys < buckets_.size());
    const size_t stride = size_t{coding_group_} + coding_parity_;
    const size_t first = phys / stride * stride;
    return {first, std::min(stride, buckets_.size() - first) - coding_parity_};
  }

  const Bucket& bucket(size_t slot) const {
    assert(slot < buckets_.size());
    return buckets_[slot];
  }

  /// Slot of the bucket covering the given cycle-relative packet offset.
  size_t SlotAtPacket(uint64_t cycle_packet) const;

  /// Slot of the first bucket starting at or after the given cycle-relative
  /// packet (wraps to slot 0 past the end of the cycle).
  size_t SlotStartingAtOrAfter(uint64_t cycle_packet) const;

 private:
  size_t packet_capacity_;
  std::vector<Bucket> buckets_;
  uint64_t cycle_packets_ = 0;
  uint32_t coding_group_ = 0;   // data buckets per parity group (0 = uncoded)
  uint32_t coding_parity_ = 0;  // parity buckets per group
  uint32_t num_disks_;          // frequency tiers (1 = flat cycle)
  uint32_t next_data_slot_ = 0; // data slots so far (num_data_buckets)
  // Airing lists in CSR form: data slot s airs at the physical slots
  // airing_phys_[airing_begin_[s] .. airing_begin_[s + 1]). Both stay empty
  // on the identity map of a plain program, which then pays no memory or
  // extra load for its slot map.
  std::vector<uint32_t> airing_begin_;
  std::vector<uint32_t> airing_phys_;
  uint64_t slot_stride_ = 1;        // packets per stride-table entry
  std::vector<size_t> stride_slot_; // coarse packet -> slot table
  bool finalized_ = false;
};

}  // namespace dsi::broadcast
