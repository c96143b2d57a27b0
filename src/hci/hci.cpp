#include "hci/hci.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace dsi::hci {

namespace {

std::vector<datasets::SpatialObject> SortByHc(
    std::vector<datasets::SpatialObject> objects,
    const hilbert::SpaceMapper& mapper) {
  std::sort(objects.begin(), objects.end(),
            [&](const datasets::SpatialObject& a,
                const datasets::SpatialObject& b) {
              const uint64_t ha = mapper.PointToIndex(a.location);
              const uint64_t hb = mapper.PointToIndex(b.location);
              return ha != hb ? ha < hb : a.id < b.id;
            });
  return objects;
}

bptree::BptTree BuildTree(const std::vector<datasets::SpatialObject>& objects,
                          const hilbert::SpaceMapper& mapper,
                          size_t packet_capacity) {
  std::vector<uint64_t> keys;
  keys.reserve(objects.size());
  for (const auto& o : objects) keys.push_back(mapper.PointToIndex(o.location));
  return bptree::BptTree(std::move(keys),
                         bptree::BptTree::FanoutForCapacity(packet_capacity));
}

}  // namespace

HciIndex::HciIndex(std::vector<datasets::SpatialObject> objects,
                   const hilbert::SpaceMapper& mapper, size_t packet_capacity,
                   uint32_t target_subtrees, broadcast::TreeLayout layout)
    : mapper_(mapper),
      objects_(SortByHc(std::move(objects), mapper)),
      tree_(BuildTree(objects_, mapper, packet_capacity)),
      air_(AirSpec(), packet_capacity, target_subtrees, layout) {}

broadcast::AirTreeSpec HciIndex::AirSpec() const {
  return tree_.ToAirSpec(
      std::vector<uint32_t>(objects_.size(), common::kDataObjectBytes));
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

HciClient::HciClient(const HciIndex& index, broadcast::ClientSession* session)
    : index_(index), reader_(index.air(), session) {}

bool HciClient::ReadNode(uint32_t node_id) {
  if (reader_.cached(node_id)) return true;  // already downloaded
  // Drain pending data buckets that pass by before the node: listening to
  // them now is free latency-wise, and skipping them would cost a cycle.
  reader_.FlushPassingData(node_id);
  // Budget spent or republished mid-query (node ids and slots then belong
  // to the dead layout): the caller aborts with whatever was retrieved.
  while (!reader_.AbortIfHalted()) {
    // A lost tree node can only be recovered from a later occurrence (next
    // path replica or next cycle) — the tree-index weakness in error-prone
    // environments (Section 5).
    if (!reader_.ListenNode(node_id)) continue;
    if (index_.tree().is_leaf(node_id)) {
      // Keep the (first key -> leaf) anchors sorted; a query downloads few
      // distinct leaves, so ordered insertion into the flat vector is
      // cheaper than a node-based map.
      const uint64_t front_key = index_.tree().entries(node_id).front().key;
      auto it = std::lower_bound(
          cached_leaf_by_front_.begin(), cached_leaf_by_front_.end(),
          front_key, [](const std::pair<uint64_t, uint32_t>& e, uint64_t v) {
            return e.first < v;
          });
      if (it != cached_leaf_by_front_.end() && it->first == front_key) {
        it->second = node_id;
      } else {
        cached_leaf_by_front_.insert(it, {front_key, node_id});
      }
    }
    return true;
  }
  return false;
}

void HciClient::RetrieveRanges(const std::vector<hilbert::HcRange>& targets) {
  const auto& tree = index_.tree();
  // Scan-vs-wait break-even: half the flat cycle classically; on a
  // multi-disk cycle the on-air major cycle divided by twice the disk
  // count — a cold internal node there repeats only once per (longer)
  // major cycle while leaf scans stay pipelined within their tier, so the
  // descent is worth abandoning much sooner. Single-disk sessions (plain
  // or coded) keep the index's own cycle so their paths stay untouched.
  broadcast::ClientSession& session = reader_.session();
  const broadcast::BroadcastProgram& on_air = session.program();
  const uint64_t half_cycle =
      on_air.multi_disk()
          ? on_air.cycle_packets() / (2 * on_air.num_disks())
          : index_.program().cycle_packets() / 2;
  for (const hilbert::HcRange& range : targets) {
    if (reader_.AbortIfHalted()) return;
    // Cached anchor: the downloaded leaf with the largest first key
    // *strictly below* range.lo, if any (strictness matters with duplicate
    // keys: a run equal to range.lo may begin before a leaf whose first
    // key equals it). The range's content is reachable from the anchor by
    // a forward leaf scan (keys ascend with leaf id).
    uint32_t anchor = UINT32_MAX;
    if (auto it = std::lower_bound(
            cached_leaf_by_front_.begin(), cached_leaf_by_front_.end(),
            range.lo,
            [](const std::pair<uint64_t, uint32_t>& e, uint64_t v) {
              return e.first < v;
            });
        it != cached_leaf_by_front_.begin()) {
      anchor = std::prev(it)->second;
    }

    uint32_t node;
    if (anchor != UINT32_MAX &&
        tree.entries(anchor).back().key >= range.lo) {
      // Free path: the anchor leaf itself covers range.lo.
      node = anchor;
    } else {
      // Descend from the root (its next replica precedes the next subtree)
      // to the leaf that may contain range.lo. Nodes cached from earlier
      // ranges are free. If the descent needs an internal node that has
      // just gone by (the preorder layout interleaves internal nodes
      // between leaf groups, and leaf scans doze past them), waiting would
      // cost a whole cycle — the client knows this from the arrival-time
      // pointers and scans leaves forward from the anchor instead.
      node = tree.root();
      bool by_scan = false;
      if (!ReadNode(node)) return;
      while (!tree.is_leaf(node)) {
        const uint32_t child =
            tree.entries(node)[tree.DescendIndexForRange(node, range.lo)]
                .child;
        if (!reader_.cached(child) && anchor != UINT32_MAX &&
            session.PacketsUntil(index_.air().NextNodeSlot(child, session)) >
                half_cycle) {
          by_scan = true;
          break;
        }
        if (!ReadNode(child)) return;
        node = child;
      }
      if (by_scan) {
        node = anchor;
        while (tree.entries(node).back().key < range.lo) {
          const uint32_t next = tree.NextLeaf(node);
          if (next == UINT32_MAX) break;
          if (!ReadNode(next)) return;
          node = next;
        }
      }
    }
    // Scan leaves forward while they may contain keys <= range.hi.
    while (true) {
      const auto& es = tree.entries(node);
      for (const bptree::BptEntry& e : es) {
        if (e.key >= range.lo && e.key <= range.hi) {
          reader_.AddPendingData(e.child);
        }
      }
      if (es.back().key > range.hi) break;
      const uint32_t next = tree.NextLeaf(node);
      if (next == UINT32_MAX) break;
      if (!ReadNode(next)) return;
      node = next;
    }
  }
  reader_.DrainPendingData();
}

std::vector<datasets::SpatialObject> HciClient::WindowQuery(
    const common::Rect& window) {
  RetrieveRanges(index_.mapper().WindowToRanges(window));
  std::vector<datasets::SpatialObject> out;
  const auto& objects = index_.sorted_objects();
  reader_.retrieved().ForEach([&](size_t i) {
    if (window.Contains(objects[i].location)) out.push_back(objects[i]);
  });
  return out;
}

std::vector<datasets::SpatialObject> HciClient::KnnQuery(
    const common::Point& q, size_t k, air::KnnStrategy /*strategy*/) {
  if (k == 0) return {};  // degenerate: the empty set, no listening needed
  const auto& tree = index_.tree();
  const auto& mapper = index_.mapper();
  const uint64_t h = mapper.PointToIndex(q);

  // Phase 1: collect curve-neighbour candidate keys around h by descending
  // to h's leaf and scanning forward until k keys >= h are seen (keys < h
  // in the visited leaves count as candidates too). An abort mid-phase
  // (watchdog or republication) falls through to the common result
  // collection: whatever was already retrieved is returned as a partial,
  // never discarded (completed = false flags it).
  bool aborted = false;
  std::vector<uint64_t> candidate_keys;
  uint32_t node = tree.root();
  if (!ReadNode(node)) aborted = true;
  while (!aborted && !tree.is_leaf(node)) {
    const uint32_t child = tree.entries(node)[tree.DescendIndex(node, h)].child;
    if (!ReadNode(child)) {
      aborted = true;
      break;
    }
    node = child;
  }
  size_t ge_count = 0;
  while (!aborted) {
    for (const bptree::BptEntry& e : tree.entries(node)) {
      candidate_keys.push_back(e.key);
      if (e.key >= h) ++ge_count;
    }
    if (ge_count >= k) break;
    const uint32_t next = tree.NextLeaf(node);
    if (next == UINT32_MAX) break;
    if (!ReadNode(next)) {
      aborted = true;
      break;
    }
    node = next;
  }

  if (!aborted) {
    // Search-circle radius, per the published HCI kNN algorithm [18]: take
    // the k candidates closest to h along the curve and use the largest
    // Euclidean distance among them (cell upper bounds keep it sound). The
    // curve-proximity heuristic makes the circle loose — spatially near is
    // not always curve-near — which is exactly the inefficiency the paper's
    // Figures 11/12 expose. Falls back to the universe diagonal if the
    // curve ran out of candidates.
    double radius;
    if (candidate_keys.size() < k) {
      // Fewer objects than k on the whole curve: the circle must cover
      // every object. The universe diagonal is NOT enough when q lies
      // outside the universe — use the exact farthest-corner distance.
      radius = std::sqrt(mapper.universe().MaxSquaredDistance(q));
    } else {
      std::sort(candidate_keys.begin(), candidate_keys.end(),
                [h](uint64_t a, uint64_t b) {
                  const uint64_t da = a > h ? a - h : h - a;
                  const uint64_t db = b > h ? b - h : h - b;
                  return da != db ? da < db : a < b;
                });
      radius = 0.0;
      for (size_t i = 0; i < k; ++i) {
        radius =
            std::max(radius, mapper.MaxDistanceToIndex(q, candidate_keys[i]));
      }
    }

    // Phase 2: retrieve everything inside the circle and keep the k
    // nearest.
    RetrieveRanges(mapper.CircleToRanges(q, radius));
  }

  std::vector<datasets::SpatialObject> out;
  const auto& objects = index_.sorted_objects();
  reader_.retrieved().ForEach([&](size_t i) { out.push_back(objects[i]); });
  datasets::KeepNearest(q, k, &out);
  return out;
}

}  // namespace dsi::hci
