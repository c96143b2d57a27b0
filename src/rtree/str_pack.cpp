#include "rtree/str_pack.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace dsi::rtree {

namespace {

/// STR tiling of one level: the items (kept as indexes into a position
/// array) sorted into sqrt(P) vertical slices by x, then by y within each
/// slice. Each slice is cut into runs of size <= fanout, one per node.
struct Tiling {
  std::vector<uint32_t> order;  ///< Item indexes, node by node.
  /// Node g's items are order[starts[g], starts[g + 1]).
  std::vector<size_t> starts;
};

Tiling StrTile(const std::vector<common::Point>& centers, uint32_t fanout) {
  const size_t n = centers.size();
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);

  const auto pages = static_cast<size_t>(
      std::ceil(static_cast<double>(n) / fanout));
  const auto slices = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(pages))));
  const size_t slice_items = slices == 0 ? n : (pages + slices - 1) / slices * fanout;

  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return centers[a].x != centers[b].x ? centers[a].x < centers[b].x
                                        : centers[a].y < centers[b].y;
  });

  std::vector<size_t> starts;
  for (size_t s = 0; s * slice_items < n; ++s) {
    const size_t lo = s * slice_items;
    const size_t hi = std::min(n, lo + slice_items);
    std::sort(order.begin() + static_cast<ptrdiff_t>(lo),
              order.begin() + static_cast<ptrdiff_t>(hi),
              [&](uint32_t a, uint32_t b) {
                return centers[a].y != centers[b].y
                           ? centers[a].y < centers[b].y
                           : centers[a].x < centers[b].x;
              });
    for (size_t first = lo; first < hi; first += fanout) {
      starts.push_back(first);
    }
  }
  starts.push_back(n);
  return Tiling{std::move(order), std::move(starts)};
}

}  // namespace

Rtree::Rtree(std::vector<datasets::SpatialObject> objects, uint32_t fanout)
    : objects_(std::move(objects)) {
  assert(fanout >= 2);
  if (objects_.empty()) {
    // Empty tree: no nodes, nothing to broadcast. root()/node_mbr() must
    // not be called; builders emit an empty program.
    root_ = 0;
    height_ = 0;
    return;
  }

  // Leaf level: STR-tile the points, re-order objects into leaf order.
  // Nodes are numbered in creation order, so every node's entries are
  // appended to entries_ as one run.
  std::vector<common::Point> pts;
  pts.reserve(objects_.size());
  for (const auto& o : objects_) pts.push_back(o.location);
  const Tiling leaves = StrTile(pts, fanout);

  std::vector<datasets::SpatialObject> reordered;
  reordered.reserve(objects_.size());
  // One entry per object plus one per non-root node, about n / (fanout - 1).
  entries_.reserve(objects_.size() + objects_.size() / (fanout - 1) + 1);
  std::vector<uint32_t> level_nodes;
  for (size_t g = 0; g + 1 < leaves.starts.size(); ++g) {
    level_nodes.push_back(static_cast<uint32_t>(levels_.size()));
    first_entry_.push_back(static_cast<uint32_t>(entries_.size()));
    common::Rect mbr = common::Rect::Empty();
    for (size_t i = leaves.starts[g]; i < leaves.starts[g + 1]; ++i) {
      const uint32_t src = leaves.order[i];
      const auto data_id = static_cast<uint32_t>(reordered.size());
      reordered.push_back(objects_[src]);
      const common::Point& p = objects_[src].location;
      entries_.push_back(Entry{common::Rect{p.x, p.y, p.x, p.y}, data_id});
      mbr.ExpandToInclude(p);
    }
    mbrs_.push_back(mbr);
    levels_.push_back(0);
  }
  objects_ = std::move(reordered);

  // Internal levels: STR-tile the child MBR centers.
  uint32_t level = 0;
  while (level_nodes.size() > 1) {
    ++level;
    std::vector<common::Point> centers;
    centers.reserve(level_nodes.size());
    for (uint32_t id : level_nodes) centers.push_back(mbrs_[id].Center());
    const Tiling tiles = StrTile(centers, fanout);
    std::vector<uint32_t> next;
    for (size_t g = 0; g + 1 < tiles.starts.size(); ++g) {
      next.push_back(static_cast<uint32_t>(levels_.size()));
      first_entry_.push_back(static_cast<uint32_t>(entries_.size()));
      common::Rect mbr = common::Rect::Empty();
      for (size_t i = tiles.starts[g]; i < tiles.starts[g + 1]; ++i) {
        const uint32_t child = level_nodes[tiles.order[i]];
        entries_.push_back(Entry{mbrs_[child], child});
        mbr.ExpandToInclude(mbrs_[child]);
      }
      mbrs_.push_back(mbr);
      levels_.push_back(level);
    }
    level_nodes = std::move(next);
  }
  first_entry_.push_back(static_cast<uint32_t>(entries_.size()));
  root_ = level_nodes.front();
  height_ = level;
}

broadcast::AirTreeSpec Rtree::ToAirSpec(
    const std::vector<uint32_t>& data_sizes) const {
  assert(data_sizes.size() == objects_.size());
  broadcast::AirTreeSpec spec;
  spec.nodes.resize(num_nodes());
  for (uint32_t id = 0; id < num_nodes(); ++id) {
    auto& node = spec.nodes[id];
    node.level = levels_[id];
    node.size_bytes = NodeBytes(id);
    const std::span<const Entry> es = entries(id);
    node.children.reserve(es.size());
    for (const Entry& e : es) node.children.push_back(e.child);
  }
  spec.root = root_;
  spec.data_sizes = data_sizes;
  return spec;
}

}  // namespace dsi::rtree
