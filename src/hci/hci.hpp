#pragma once

/// \file hci.hpp
/// \brief The Hilbert Curve Index (HCI) baseline [18]: data objects are
/// broadcast in ascending Hilbert order and indexed by a B+-tree over HC
/// values, interleaved on air with the distributed indexing scheme [9].
///
/// Window queries decompose the window into HC ranges and run range scans
/// over the tree; kNN queries first collect k curve-neighbour candidates
/// around the query point's HC value to bound a search circle, then run a
/// window query over the circle (the two-phase algorithm of [18]). The
/// second phase usually wraps into the next broadcast cycle — the latency
/// weakness the paper's Figure 11 exposes.

#include <cstdint>
#include <utility>
#include <vector>

#include "bptree/bptree.hpp"
#include "broadcast/air_tree.hpp"
#include "broadcast/airing_order.hpp"
#include "broadcast/client.hpp"
#include "common/geometry.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::hci {

/// Per-query diagnostics.
struct HciQueryStats {
  uint64_t nodes_read = 0;
  uint64_t objects_read = 0;
  uint64_t buckets_lost = 0;
  bool completed = true;
  /// Broadcast republished mid-query (dynamic broadcasts): the node cache
  /// and leaf anchors referred to the dead layout; partial results returned.
  bool stale = false;
};

/// Server-side HCI broadcast: HC-sorted objects + B+-tree + air layout.
class HciIndex {
 public:
  HciIndex(std::vector<datasets::SpatialObject> objects,
           const hilbert::SpaceMapper& mapper, size_t packet_capacity,
           uint32_t target_subtrees = 16,
           broadcast::TreeLayout layout = broadcast::TreeLayout::kDistributed);

  const hilbert::SpaceMapper& mapper() const { return mapper_; }
  const bptree::BptTree& tree() const { return tree_; }
  const broadcast::AirTreeBroadcast& air() const { return air_; }
  const broadcast::BroadcastProgram& program() const {
    return air_.program();
  }

  /// Objects in broadcast (HC) order; data id == rank in this vector.
  const std::vector<datasets::SpatialObject>& sorted_objects() const {
    return objects_;
  }
  uint64_t object_hc(size_t rank) const { return tree_.key(rank); }

 private:
  const hilbert::SpaceMapper& mapper_;
  std::vector<datasets::SpatialObject> objects_;
  bptree::BptTree tree_;
  broadcast::AirTreeBroadcast air_;
};

/// Query execution against an HCI broadcast: one query, or — kept alive on
/// the same session — a stream of them. The node cache, leaf anchors and
/// retrieved flags describe the broadcast content, so they survive across
/// queries within one generation; call BeginQuery() before every
/// re-evaluation, and rebuild the client on the new generation's index
/// when session->generation() advances (the caches refer to a dead layout
/// then).
class HciClient {
 public:
  HciClient(const HciIndex& index, broadcast::ClientSession* session);

  /// Arms the next query of a continuous client: clears the per-query
  /// flags and the previous query's half-resolved data list, and re-arms
  /// the watchdog from the session's current instant. The node cache, leaf
  /// anchors and retrieved objects are kept.
  void BeginQuery();

  std::vector<datasets::SpatialObject> WindowQuery(const common::Rect& window);
  std::vector<datasets::SpatialObject> KnnQuery(const common::Point& q,
                                                size_t k);

  const HciQueryStats& stats() const { return stats_; }

 private:
  /// Reads node \p node_id at its next occurrence, retrying later
  /// occurrences on link errors. False only if the watchdog expires.
  bool ReadNode(uint32_t node_id);
  /// One listen attempt for data bucket \p data_id at its next occurrence;
  /// false on a link error (the bucket stays pending — callers sweep,
  /// never block).
  bool TryReadData(uint32_t data_id);
  /// Reads every pending data bucket that passes by before the next
  /// occurrence of \p before_node (a real client drains what it already
  /// knows it needs instead of letting it fly by).
  void FlushPassingData(uint32_t before_node);
  /// Retrieves all objects whose HC value lies in \p targets (ascending
  /// range scan; objects land in retrieved_).
  void RetrieveRanges(const std::vector<hilbert::HcRange>& targets);

  bool WatchdogExpired() const;

  const HciIndex& index_;
  broadcast::ClientSession* session_;
  uint64_t generation_ = 0;  ///< Generation the caches/anchors refer to.
  /// Index nodes already downloaded this query: a client keeps them in
  /// memory, so revisiting one is free (re-reading it off the air would
  /// cost a whole extra cycle).
  std::vector<bool> node_cache_;
  /// Cached leaves by their first key (sorted flat vector), so a later
  /// range that lands in an already-downloaded leaf skips the descent
  /// entirely.
  std::vector<std::pair<uint64_t, uint32_t>> cached_leaf_by_front_;
  /// Data buckets to retrieve, in airing order.
  broadcast::AiringSet pending_data_;
  /// Retrieved flags by data id; payloads are never copied — the simulated
  /// read is paid via the session and the data lives in the index.
  std::vector<uint8_t> retrieved_;
  HciQueryStats stats_;
  uint64_t deadline_packets_ = 0;
};

}  // namespace dsi::hci
