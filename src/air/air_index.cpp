#include "air/air_index.hpp"

#include <cassert>

#include "wire/codecs.hpp"

namespace dsi::air {

bool AirIndexHandle::SlotAnchor(size_t slot, common::Point* anchor) const {
  const broadcast::Bucket& b = program().bucket(slot);
  if (b.kind != broadcast::BucketKind::kDataObject) return false;
  *anchor = data_objects()[b.payload].location;
  return true;
}

void AirIndexHandle::AppendContent(const broadcast::Bucket& bucket,
                                   std::vector<uint8_t>* out) const {
  assert(bucket.kind != broadcast::BucketKind::kParity);
  [[maybe_unused]] const size_t start = out->size();
  if (bucket.kind == broadcast::BucketKind::kDataObject) {
    wire::AppendDataObject(data_objects()[bucket.payload], out);
  } else {
    AppendIndexContent(bucket, out);
  }
  assert(out->size() - start == bucket.size_bytes);
}

std::vector<double> AirIndexHandle::DiskWeights(
    const datasets::RegionPopularity& popularity,
    const common::Rect& universe) const {
  const broadcast::BroadcastProgram& flat = program();
  const size_t n = flat.num_buckets();
  std::vector<double> weights(n, -1.0);
  for (size_t slot = 0; slot < n; ++slot) {
    common::Point anchor;
    if (SlotAnchor(slot, &anchor)) {
      weights[slot] = popularity.Weight(anchor, universe);
    }
  }
  // Anchorless buckets inherit the next anchored weight in cycle order.
  // The carry starts at the cycle head's first anchored weight so a
  // trailing index run wraps to the head.
  double next = 1.0;  // all-anchorless degenerate: one flat tier
  for (size_t i = 0; i < n; ++i) {
    if (weights[i] >= 0.0) {
      next = weights[i];
      break;
    }
  }
  for (size_t i = n; i-- > 0;) {
    if (weights[i] >= 0.0) {
      next = weights[i];
    } else {
      weights[i] = next;
    }
  }
  return weights;
}

}  // namespace dsi::air
