#pragma once

/// \file tree_handle.hpp
/// \brief What the R-tree and HCI handles share. Both families air a tree
/// through broadcast::AirTreeBroadcast and answer queries with a client
/// over broadcast::AirTreeReader, so one template implements their client
/// construction and subtree-max disk weights; each family adds its name,
/// its data objects and its node encoding.

#include <memory>
#include <vector>

#include "air/air_index.hpp"
#include "air/disk_layout.hpp"
#include "broadcast/air_tree.hpp"

namespace dsi::air {

/// Non-owning handle over a built tree-family \p Index, queried by
/// \p Client(index, session), an AirClient.
template <class Index, class Client>
class TreeHandle : public AirIndexHandle {
 public:
  explicit TreeHandle(const Index& index) : index_(index) {}

  const broadcast::BroadcastProgram& program() const override {
    return index_.program();
  }
  std::unique_ptr<AirClient> MakeClient(
      broadcast::ClientSession* session) const override {
    return std::make_unique<Client>(index_, session);
  }
  AirClient* MakeClientIn(ClientArena& arena,
                          broadcast::ClientSession* session) const override {
    return arena.Create<Client>(index_, session);
  }
  std::vector<double> DiskWeights(
      const datasets::RegionPopularity& popularity,
      const common::Rect& universe) const override {
    return TreeDiskWeights(index_.AirSpec(), index_.air(), *this, popularity,
                           universe);
  }

  const Index& index() const { return index_; }

 private:
  const Index& index_;
};

}  // namespace dsi::air
