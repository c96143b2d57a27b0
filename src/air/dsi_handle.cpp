#include "air/dsi_handle.hpp"

#include "dsi/client.hpp"
#include "wire/codecs.hpp"

namespace dsi::air {

std::unique_ptr<AirClient> DsiHandle::MakeClient(
    broadcast::ClientSession* session) const {
  return std::make_unique<core::DsiClient>(index_, session);
}

AirClient* DsiHandle::MakeClientIn(ClientArena& arena,
                                  broadcast::ClientSession* session) const {
  return arena.Create<core::DsiClient>(index_, session);
}

void DsiHandle::AppendIndexContent(const broadcast::Bucket& bucket,
                                   std::vector<uint8_t>* out) const {
  wire::AppendDsiTable(index_.TableAt(bucket.payload),
                       index_.segment_head_hcs(), index_.table_hc_bytes(), out);
}

}  // namespace dsi::air
