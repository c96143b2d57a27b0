#include "air/hci_handle.hpp"

#include "wire/codecs.hpp"

namespace dsi::air {

void HciHandle::AppendIndexContent(const broadcast::Bucket& bucket,
                                   std::vector<uint8_t>* out) const {
  wire::AppendBptNode(index().tree().entries(bucket.payload), out);
}

}  // namespace dsi::air
