#include "broadcast/program.hpp"

namespace dsi::broadcast {

void BroadcastProgram::Finalize() {
  uint64_t off = 0;
  for (Bucket& b : buckets_) {
    b.start_packet = off;
    off += b.packets;
  }
  cycle_packets_ = off;
  // Packet -> slot acceleration: stride_slot_[i] is the slot covering
  // packet i * slot_stride_. With the stride at the mean bucket length,
  // SlotAtPacket finishes after O(1) expected forward steps — it runs on
  // the per-session tune-in/doze hot path.
  if (!buckets_.empty() && cycle_packets_ > 0) {
    slot_stride_ = std::max<uint64_t>(1, cycle_packets_ / buckets_.size());
    stride_slot_.resize(cycle_packets_ / slot_stride_ + 1);
    size_t slot = 0;
    for (size_t i = 0; i < stride_slot_.size(); ++i) {
      const uint64_t packet = i * slot_stride_;
      while (slot + 1 < buckets_.size() &&
             buckets_[slot + 1].start_packet <= packet) {
        ++slot;
      }
      stride_slot_[i] = slot;
    }
  }
  bool identity = true;
  for (size_t phys = 0; phys < buckets_.size(); ++phys) {
    identity = identity && buckets_[phys].data_slot == phys;
  }
  finalized_ = true;
  if (identity) return;
  // Airing lists, counting-sorted by data slot: count into [s + 2], prefix
  // sum, then place through [s + 1], which leaves [s + 1] at the end of
  // slot s's run — the begin of slot s + 1. Physical order within a run is
  // cycle order.
  airing_begin_.assign(size_t{next_data_slot_} + 2, 0);
  for (const Bucket& b : buckets_) {
    if (b.data_slot != Bucket::kNoDataSlot) ++airing_begin_[b.data_slot + 2];
  }
  for (size_t s = 2; s < airing_begin_.size(); ++s) {
    airing_begin_[s] += airing_begin_[s - 1];
  }
  airing_phys_.resize(airing_begin_.back());
  for (size_t phys = 0; phys < buckets_.size(); ++phys) {
    const uint32_t s = buckets_[phys].data_slot;
    if (s != Bucket::kNoDataSlot) {
      airing_phys_[airing_begin_[s + 1]++] = static_cast<uint32_t>(phys);
    }
  }
  airing_begin_.pop_back();
  for (uint32_t s = 0; s < next_data_slot_; ++s) {
    assert(airing_begin_[s] < airing_begin_[s + 1]);  // every slot airs
  }
}

size_t BroadcastProgram::SlotAtPacket(uint64_t cycle_packet) const {
  assert(finalized_);
  assert(cycle_packet < cycle_packets_);
  // Jump to the stride anchor at/before the packet, then walk forward; the
  // stride matches the mean bucket length, so the walk is O(1) expected.
  size_t slot = stride_slot_[cycle_packet / slot_stride_];
  while (slot + 1 < buckets_.size() &&
         buckets_[slot + 1].start_packet <= cycle_packet) {
    ++slot;
  }
  return slot;
}

size_t BroadcastProgram::SlotStartingAtOrAfter(uint64_t cycle_packet) const {
  assert(finalized_);
  if (cycle_packet >= cycle_packets_) return 0;
  // The covering slot either starts exactly here or the next one is the
  // first to start at/after (wrapping past the end of the cycle).
  const size_t slot = SlotAtPacket(cycle_packet);
  if (buckets_[slot].start_packet >= cycle_packet) return slot;
  return slot + 1 < buckets_.size() ? slot + 1 : 0;
}

}  // namespace dsi::broadcast
