#pragma once

/// \file tree_handle.hpp
/// \brief What the R-tree and HCI handles share. Both families air a tree
/// through broadcast::AirTreeBroadcast and answer queries with a client
/// over broadcast::AirTreeReader, so one template implements their client
/// adapter, client construction and subtree-max disk weights; each family
/// adds its name, its data objects and its node encoding.

#include <memory>
#include <vector>

#include "air/air_index.hpp"
#include "air/disk_layout.hpp"
#include "broadcast/air_tree.hpp"

namespace dsi::air {

/// Non-owning handle over a built tree-family \p Index, queried by
/// \p Client(index, session).
template <class Index, class Client>
class TreeHandle : public AirIndexHandle {
 public:
  explicit TreeHandle(const Index& index) : index_(index) {}

  const broadcast::BroadcastProgram& program() const override {
    return index_.program();
  }
  std::unique_ptr<AirClient> MakeClient(
      broadcast::ClientSession* session) const override {
    return std::make_unique<TreeAirClient>(index_, session);
  }
  AirClient* MakeClientIn(ClientArena& arena,
                          broadcast::ClientSession* session) const override {
    return arena.Create<TreeAirClient>(index_, session);
  }
  std::vector<double> DiskWeights(
      const datasets::RegionPopularity& popularity,
      const common::Rect& universe) const override {
    return TreeDiskWeights(index_.AirSpec(), index_.air(), *this, popularity,
                           universe);
  }

  const Index& index() const { return index_; }

 private:
  class TreeAirClient : public AirClient {
   public:
    TreeAirClient(const Index& index, broadcast::ClientSession* session)
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
    Client client_;
  };

  const Index& index_;
};

}  // namespace dsi::air
