#include "broadcast/coding.hpp"

#include <algorithm>
#include <cassert>

namespace dsi::broadcast {

BroadcastProgram MakeCodedProgram(BroadcastProgram data,
                                  const CodingConfig& config) {
  assert(data.finalized());
  if (!config.enabled() || data.num_buckets() == 0) return data;
  // Client-side reconstruction tracks group members in a 64-bit survivor
  // mask; far beyond any sensible redundancy schedule anyway.
  assert(static_cast<size_t>(config.group) + config.parity <= 64);

  BroadcastProgram coded(data.packet_capacity(), data.num_disks());
  coded.SetCodingSchedule(config.group, config.parity);
  const size_t n = data.num_buckets();
  uint32_t group_index = 0;
  uint32_t group_max_bytes = 0;
  uint32_t in_group = 0;
  for (size_t phys = 0; phys < n; ++phys) {
    const Bucket& b = data.bucket(phys);
    coded.AddBucket(b.kind, b.payload, b.size_bytes, b.data_slot);
    group_max_bytes = std::max(group_max_bytes, b.size_bytes);
    if (++in_group == config.group || phys + 1 == n) {
      // Parity symbols are padded to the widest member (an XOR/RS code
      // word spans whole buckets), so each costs the group's maximum
      // bucket airtime. The short wrap-around group at the cycle end is
      // protected exactly like a full one.
      for (uint32_t q = 0; q < config.parity; ++q) {
        coded.AddBucket(BucketKind::kParity, group_index, group_max_bytes);
      }
      ++group_index;
      in_group = 0;
      group_max_bytes = 0;
    }
  }
  coded.Finalize();
  return coded;
}

}  // namespace dsi::broadcast
