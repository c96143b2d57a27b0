#pragma once

/// \file str_pack.hpp
/// \brief Static R-tree bulk-loaded with the Sort-Tile-Recursive (STR)
/// packing of Leutenegger et al. [11], which the paper uses "to provide an
/// optimal performance" for the R-tree baseline.
///
/// Leaf entries hold the exact object point (a degenerate MBR) and a data
/// id; every entry costs kRtreeEntryBytes (34 B) on air, which is why the
/// paper cannot build this index at 32-byte packets.
///
/// Storage is flat: every node's entries sit in one array in node-id order,
/// and a node is a run of it (an offset per node id). The searches walk a
/// node's entries as a span, with no per-node allocation to chase.

#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/air_tree.hpp"
#include "common/geometry.hpp"
#include "common/sizes.hpp"
#include "datasets/datasets.hpp"

namespace dsi::rtree {

/// A static, STR-packed R-tree over point objects.
class Rtree {
 public:
  /// Builds the tree. Objects are re-ordered into STR leaf order; data id i
  /// refers to str_objects()[i].
  Rtree(std::vector<datasets::SpatialObject> objects, uint32_t fanout);

  /// Node fanout that fits one packet (>= 2; nodes may span packets when
  /// the capacity cannot hold two 34-byte entries).
  static uint32_t FanoutForCapacity(size_t packet_capacity) {
    const auto f =
        static_cast<uint32_t>(packet_capacity / common::kRtreeEntryBytes);
    return f < 2 ? 2 : f;
  }

  struct Entry {
    common::Rect mbr;     ///< Exact point for leaf entries.
    uint32_t child = 0;   ///< Node id (internal) or data id (leaf).
  };

  uint32_t root() const { return root_; }
  uint32_t height() const { return height_; }
  size_t num_nodes() const { return levels_.size(); }
  uint32_t level(uint32_t node_id) const { return levels_[node_id]; }
  bool is_leaf(uint32_t node_id) const { return levels_[node_id] == 0; }
  std::span<const Entry> entries(uint32_t node_id) const {
    return {entries_.data() + first_entry_[node_id],
            entries_.data() + first_entry_[node_id + 1]};
  }
  const common::Rect& node_mbr(uint32_t node_id) const {
    return mbrs_[node_id];
  }

  /// Objects in STR broadcast order (data id order).
  const std::vector<datasets::SpatialObject>& str_objects() const {
    return objects_;
  }

  uint32_t NodeBytes(uint32_t node_id) const {
    return static_cast<uint32_t>(entries(node_id).size() *
                                 common::kRtreeEntryBytes);
  }

  broadcast::AirTreeSpec ToAirSpec(
      const std::vector<uint32_t>& data_sizes) const;

 private:
  std::vector<datasets::SpatialObject> objects_;  // STR order
  std::vector<Entry> entries_;                    // all nodes', by node id
  /// Node id -> index of its first entry; num_nodes() + 1 items, so node
  /// i's entries are [first_entry_[i], first_entry_[i + 1]).
  std::vector<uint32_t> first_entry_;
  std::vector<common::Rect> mbrs_;                // by node id
  std::vector<uint32_t> levels_;                  // by node id
  uint32_t root_ = 0;
  uint32_t height_ = 0;
};

}  // namespace dsi::rtree
