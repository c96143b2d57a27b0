#include "air/dsi_handle.hpp"

#include "dsi/client.hpp"
#include "wire/codecs.hpp"

namespace dsi::air {

namespace {

class DsiAirClient : public AirClient {
 public:
  DsiAirClient(const core::DsiIndex& index, broadcast::ClientSession* session)
      : client_(index, session) {}

  void BeginQuery() override { client_.BeginQuery(); }

  std::vector<datasets::SpatialObject> WindowQuery(
      const common::Rect& window) override {
    return client_.WindowQuery(window);
  }

  std::vector<datasets::SpatialObject> KnnQuery(
      const common::Point& q, size_t k, KnnStrategy strategy) override {
    return client_.KnnQuery(q, k,
                            strategy == KnnStrategy::kAggressive
                                ? core::KnnStrategy::kAggressive
                                : core::KnnStrategy::kConservative);
  }

  ClientStats stats() const override {
    const core::QueryStats& s = client_.stats();
    return ClientStats{s.tables_read, s.objects_read, s.buckets_lost,
                       s.completed, s.stale};
  }

 private:
  core::DsiClient client_;
};

}  // namespace

std::unique_ptr<AirClient> DsiHandle::MakeClient(
    broadcast::ClientSession* session) const {
  return std::make_unique<DsiAirClient>(index_, session);
}

AirClient* DsiHandle::MakeClientIn(ClientArena& arena,
                                  broadcast::ClientSession* session) const {
  return arena.Create<DsiAirClient>(index_, session);
}

void DsiHandle::AppendIndexContent(const broadcast::Bucket& bucket,
                                   std::vector<uint8_t>* out) const {
  wire::AppendDsiTable(index_.TableAt(bucket.payload),
                       index_.segment_head_hcs(), index_.table_hc_bytes(), out);
}

}  // namespace dsi::air
