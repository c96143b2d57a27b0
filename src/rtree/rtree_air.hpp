#pragma once

/// \file rtree_air.hpp
/// \brief The R-tree baseline on the broadcast channel: STR-packed tree,
/// distributed-index air layout, and client search whose navigation order
/// follows the broadcast order (Section 2.1's requirement: visiting nodes
/// out of broadcast order costs a full extra cycle).

#include <cstdint>
#include <vector>

#include "broadcast/air_tree.hpp"
#include "broadcast/airing_order.hpp"
#include "broadcast/client.hpp"
#include "common/geometry.hpp"
#include "datasets/datasets.hpp"
#include "rtree/str_pack.hpp"

namespace dsi::rtree {

/// Per-query diagnostics.
struct RtreeQueryStats {
  uint64_t nodes_read = 0;
  uint64_t objects_read = 0;
  uint64_t buckets_lost = 0;
  bool completed = true;
  /// Broadcast republished mid-query (dynamic broadcasts): node cache and
  /// pending slots referred to the dead layout; partial results returned.
  bool stale = false;
};

/// Server-side R-tree broadcast.
class RtreeIndex {
 public:
  RtreeIndex(std::vector<datasets::SpatialObject> objects,
             size_t packet_capacity, uint32_t target_subtrees = 16,
             broadcast::TreeLayout layout =
                 broadcast::TreeLayout::kDistributed);

  const Rtree& tree() const { return tree_; }
  const broadcast::AirTreeBroadcast& air() const { return air_; }
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
/// linear channel). A client kept alive on the same session serves a
/// stream of queries: the node cache and retrieved flags stay valid within
/// one generation (call BeginQuery() before each re-evaluation; rebuild the
/// client on the new generation's index when session->generation()
/// advances).
class RtreeClient {
 public:
  RtreeClient(const RtreeIndex& index, broadcast::ClientSession* session);

  /// Arms the next query of a continuous client: clears per-query flags
  /// and the previous query's half-resolved data list, re-arms the
  /// watchdog. The node cache and retrieved objects are kept.
  void BeginQuery();

  std::vector<datasets::SpatialObject> WindowQuery(const common::Rect& window);
  std::vector<datasets::SpatialObject> KnnQuery(const common::Point& q,
                                                size_t k);

  const RtreeQueryStats& stats() const { return stats_; }

 private:
  /// One listen attempt for \p node_id at its next occurrence; false on a
  /// link error (the node stays in the frontier — callers sweep, never
  /// block).
  bool TryReadNode(uint32_t node_id);
  /// One listen attempt for \p data_id at its next occurrence; false on a
  /// link error (the bucket stays pending — callers sweep, never block).
  bool TryReadData(uint32_t data_id);
  /// Reads pending data buckets that pass by before the next occurrence of
  /// \p before_node.
  void FlushPassingData(uint32_t before_node);
  /// Reads all remaining pending data in occurrence order.
  void DrainPendingData();
  /// Queues \p data_id for retrieval unless it is already retrieved.
  void AddPendingData(uint32_t data_id);
  /// Adds / removes every replica of \p node on a search frontier.
  void AddToFrontier(broadcast::AiringSet* frontier, uint32_t node) const;
  void EraseFromFrontier(broadcast::AiringSet* frontier, uint32_t node) const;

  bool WatchdogExpired() const;

  const RtreeIndex& index_;
  broadcast::ClientSession* session_;
  uint64_t generation_ = 0;  ///< Generation the node cache refers to.
  /// Index nodes already downloaded this query (kept in client memory).
  std::vector<bool> node_cache_;
  /// Data buckets this query still has to read, in airing order.
  broadcast::AiringSet pending_data_;
  /// Retrieved flags by data id; payloads come from the index's object
  /// store rather than per-query copies.
  std::vector<uint8_t> retrieved_;
  RtreeQueryStats stats_;
  uint64_t deadline_packets_ = 0;
};

}  // namespace dsi::rtree
