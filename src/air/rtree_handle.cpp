#include "air/rtree_handle.hpp"

#include "wire/codecs.hpp"

namespace dsi::air {

void RtreeHandle::AppendIndexContent(const broadcast::Bucket& bucket,
                                     std::vector<uint8_t>* out) const {
  wire::AppendRtreeNode(index().tree().entries(bucket.payload), out);
}

}  // namespace dsi::air
