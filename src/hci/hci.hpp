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

#include "air/air_index.hpp"
#include "bptree/bptree.hpp"
#include "broadcast/air_tree.hpp"
#include "broadcast/client.hpp"
#include "common/geometry.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::hci {

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
  /// The tree as air() was laid out from, rebuilt on each call (the
  /// broadcast does not keep it).
  broadcast::AirTreeSpec AirSpec() const;
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
/// the same session — a stream of them. Every listen, the session's
/// watchdog budget, the node cache and the retrieved set go through a
/// broadcast::AirTreeReader; the leaf anchors are HCI's own. The caches
/// describe the broadcast content, so they survive across queries within
/// one generation; call BeginQuery() before every re-evaluation, and
/// rebuild the client on the new generation's index when
/// session->generation() advances (the caches refer to a dead layout
/// then).
class HciClient final : public air::AirClient {
 public:
  HciClient(const HciIndex& index, broadcast::ClientSession* session);

  /// Arms the next query of a continuous client: clears the per-query
  /// flags and the previous query's half-resolved data list, and re-arms
  /// the session's watchdog budget from its current instant. The node
  /// cache, leaf anchors and retrieved objects are kept.
  void BeginQuery() override { reader_.BeginQuery(); }

  std::vector<datasets::SpatialObject> WindowQuery(
      const common::Rect& window) override;
  /// The tree has no navigation tactics: \p strategy is ignored.
  std::vector<datasets::SpatialObject> KnnQuery(
      const common::Point& q, size_t k, air::KnnStrategy strategy) override;
  using AirClient::KnnQuery;

  const air::ClientStats& stats() const override { return reader_.stats(); }

 private:
  /// Reads node \p node_id at its next occurrence, retrying later
  /// occurrences on link errors. False only if the query halts (watchdog
  /// or republication).
  bool ReadNode(uint32_t node_id);
  /// Retrieves all objects whose HC value lies in \p targets (ascending
  /// range scan; objects land in the reader's retrieved set).
  void RetrieveRanges(const std::vector<hilbert::HcRange>& targets);

  const HciIndex& index_;
  broadcast::AirTreeReader reader_;
  /// Cached leaves by their first key (sorted flat vector), so a later
  /// range that lands in an already-downloaded leaf skips the descent
  /// entirely.
  std::vector<std::pair<uint64_t, uint32_t>> cached_leaf_by_front_;
};

}  // namespace dsi::hci
