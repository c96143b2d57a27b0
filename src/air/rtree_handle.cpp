#include "air/rtree_handle.hpp"

#include "air/disk_layout.hpp"

namespace dsi::air {

namespace {

class RtreeAirClient : public AirClient {
 public:
  RtreeAirClient(const rtree::RtreeIndex& index,
                 broadcast::ClientSession* session)
      : client_(index, session) {}

  void BeginQuery() override { client_.BeginQuery(); }

  std::vector<datasets::SpatialObject> WindowQuery(
      const common::Rect& window) override {
    return client_.WindowQuery(window);
  }

  std::vector<datasets::SpatialObject> KnnQuery(
      const common::Point& q, size_t k, KnnStrategy /*strategy*/) override {
    return client_.KnnQuery(q, k);
  }

  ClientStats stats() const override {
    const broadcast::TreeQueryStats& s = client_.stats();
    return ClientStats{s.nodes_read, s.objects_read, s.buckets_lost,
                       s.completed, s.stale};
  }

 private:
  rtree::RtreeClient client_;
};

}  // namespace

std::unique_ptr<AirClient> RtreeHandle::MakeClient(
    broadcast::ClientSession* session) const {
  return std::make_unique<RtreeAirClient>(index_, session);
}

AirClient* RtreeHandle::MakeClientIn(ClientArena& arena,
                                  broadcast::ClientSession* session) const {
  return arena.Create<RtreeAirClient>(index_, session);
}

std::vector<double> RtreeHandle::DiskWeights(
    const datasets::RegionPopularity& popularity,
    const common::Rect& universe) const {
  return TreeDiskWeights(index_.air(), *this, popularity, universe);
}

}  // namespace dsi::air
