#pragma once

/// \file rtree_air.hpp
/// \brief The R-tree baseline on the broadcast channel: STR-packed tree,
/// distributed-index air layout, and client search whose navigation order
/// follows the broadcast order (Section 2.1's requirement: visiting nodes
/// out of broadcast order costs a full extra cycle).

#include <cstdint>
#include <vector>

#include "air/air_index.hpp"
#include "broadcast/air_tree.hpp"
#include "broadcast/airing_order.hpp"
#include "broadcast/client.hpp"
#include "common/geometry.hpp"
#include "datasets/datasets.hpp"
#include "rtree/str_pack.hpp"

namespace dsi::rtree {

/// Server-side R-tree broadcast.
class RtreeIndex {
 public:
  RtreeIndex(std::vector<datasets::SpatialObject> objects,
             size_t packet_capacity, uint32_t target_subtrees = 16,
             broadcast::TreeLayout layout =
                 broadcast::TreeLayout::kDistributed);

  const Rtree& tree() const { return tree_; }
  const broadcast::AirTreeBroadcast& air() const { return air_; }
  /// The tree as air() was laid out from, rebuilt on each call (the
  /// broadcast does not keep it).
  broadcast::AirTreeSpec AirSpec() const;
  const broadcast::BroadcastProgram& program() const {
    return air_.program();
  }
  /// Objects in broadcast (STR leaf) order; data id == rank here.
  const std::vector<datasets::SpatialObject>& str_objects() const {
    return tree_.str_objects();
  }

 private:
  Rtree tree_;
  broadcast::AirTreeBroadcast air_;
};

/// Query execution against an R-tree broadcast. Both searches keep a
/// frontier of not-yet-visited relevant nodes and always read the one whose
/// next broadcast occurrence comes soonest (branch-and-bound adapted to the
/// linear channel); every listen, the session's watchdog budget and the
/// node cache go through a broadcast::AirTreeReader. A client kept alive on
/// the same session serves a stream of queries: the node cache and
/// retrieved set stay valid within one generation (call BeginQuery()
/// before each re-evaluation; rebuild the client on the new generation's
/// index when session->generation() advances).
class RtreeClient final : public air::AirClient {
 public:
  RtreeClient(const RtreeIndex& index, broadcast::ClientSession* session);

  /// Arms the next query of a continuous client: clears per-query flags
  /// and the previous query's half-resolved data list, re-arms the
  /// session's watchdog budget. The node cache and retrieved objects are
  /// kept.
  void BeginQuery() override { reader_.BeginQuery(); }

  std::vector<datasets::SpatialObject> WindowQuery(
      const common::Rect& window) override;
  /// The tree has no navigation tactics: \p strategy is ignored.
  std::vector<datasets::SpatialObject> KnnQuery(
      const common::Point& q, size_t k, air::KnnStrategy strategy) override;
  using AirClient::KnnQuery;

  const air::ClientStats& stats() const override { return reader_.stats(); }

 private:
  /// Drains the pending data that passes by on the way to \p node_id, then
  /// makes one listen attempt for it; false on a link error (the node stays
  /// in the frontier — callers sweep, never block).
  bool TryReadNode(uint32_t node_id);
  /// Adds / removes every replica of \p node on a search frontier.
  void AddToFrontier(broadcast::AiringSet* frontier, uint32_t node) const;
  void EraseFromFrontier(broadcast::AiringSet* frontier, uint32_t node) const;

  const RtreeIndex& index_;
  broadcast::AirTreeReader reader_;
};

}  // namespace dsi::rtree
