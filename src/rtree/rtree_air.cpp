#include "rtree/rtree_air.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace dsi::rtree {

RtreeIndex::RtreeIndex(std::vector<datasets::SpatialObject> objects,
                       size_t packet_capacity, uint32_t target_subtrees,
                       broadcast::TreeLayout layout)
    : tree_(std::move(objects), Rtree::FanoutForCapacity(packet_capacity)),
      air_(AirSpec(), packet_capacity, target_subtrees, layout) {
  assert(packet_capacity >= common::kRtreeEntryBytes);
}

broadcast::AirTreeSpec RtreeIndex::AirSpec() const {
  return tree_.ToAirSpec(std::vector<uint32_t>(tree_.str_objects().size(),
                                               common::kDataObjectBytes));
}

RtreeClient::RtreeClient(const RtreeIndex& index,
                         broadcast::ClientSession* session)
    : index_(index), reader_(index.air(), session) {}

bool RtreeClient::TryReadNode(uint32_t node_id) {
  if (reader_.cached(node_id)) return true;  // already downloaded
  // Drain pending data buckets that pass by on the way to the node.
  reader_.FlushPassingData(node_id);
  if (reader_.stats().stale) return false;  // republished while draining
  // A lost node stays in the caller's frontier and competes again at its
  // next occurrence. Blocking here would let every other frontier node fly
  // by — a full-tree traversal under heavy loss then costs O(tree) extra
  // cycles and spuriously trips the watchdog.
  return reader_.ListenNode(node_id);
}

void RtreeClient::AddToFrontier(broadcast::AiringSet* frontier,
                                uint32_t node) const {
  for (const size_t slot : index_.air().NodeSlots(node)) {
    frontier->Insert(reader_.session(), slot);
  }
}

void RtreeClient::EraseFromFrontier(broadcast::AiringSet* frontier,
                                    uint32_t node) const {
  for (const size_t slot : index_.air().NodeSlots(node)) {
    frontier->Erase(reader_.session(), slot);
  }
}

std::vector<datasets::SpatialObject> RtreeClient::WindowQuery(
    const common::Rect& window) {
  const Rtree& tree = index_.tree();
  broadcast::AiringSet frontier;
  AddToFrontier(&frontier, tree.root());
  while (!frontier.empty()) {
    if (reader_.AbortIfHalted()) break;  // report what was retrieved
    const uint32_t node = frontier.Soonest(reader_.session()).id;
    if (!TryReadNode(node)) continue;  // lost: retried at next occurrence
    EraseFromFrontier(&frontier, node);
    const bool leaf = tree.is_leaf(node);
    for (const Rtree::Entry& e : tree.entries(node)) {
      if (!e.mbr.Intersects(window)) continue;
      if (leaf) {
        // Leaf entries carry the exact point: membership is known here,
        // the payload still has to be fetched from the data segment.
        reader_.AddPendingData(e.child);
      } else {
        AddToFrontier(&frontier, e.child);
      }
    }
  }
  reader_.DrainPendingData();
  std::vector<datasets::SpatialObject> out;
  const auto& objects = index_.str_objects();
  reader_.retrieved().ForEach([&](size_t i) {
    if (window.Contains(objects[i].location)) out.push_back(objects[i]);
  });
  return out;
}

std::vector<datasets::SpatialObject> RtreeClient::KnnQuery(
    const common::Point& q, size_t k, air::KnnStrategy /*strategy*/) {
  if (k == 0) return {};  // degenerate: the empty set, no listening needed
  const Rtree& tree = index_.tree();

  // Exact candidate distances come straight from leaf entries (points).
  struct Candidate {
    double dist2;
    uint32_t data_id;
    uint32_t id;  // object id: ties go by it, as in every family's answer
  };
  // The k best so far, in datasets::NearerFirst order.
  std::vector<Candidate> candidates;
  candidates.reserve(k + 1);
  auto tau2 = [&]() -> double {
    if (candidates.size() < k) return std::numeric_limits<double>::infinity();
    return candidates[k - 1].dist2;
  };
  auto add_candidate = [&](double d2, uint32_t data_id) {
    const Candidate c{d2, data_id, index_.str_objects()[data_id].id};
    auto before = [](const Candidate& a, const Candidate& b) {
      return datasets::NearerFirst(a.dist2, a.id, b.dist2, b.id);
    };
    if (candidates.size() == k && !before(c, candidates.back())) return;
    candidates.insert(
        std::upper_bound(candidates.begin(), candidates.end(), c, before), c);
    if (candidates.size() > k) candidates.pop_back();
  };

  broadcast::AiringSet frontier;
  AddToFrontier(&frontier, tree.root());
  while (!frontier.empty()) {
    if (reader_.AbortIfHalted()) break;  // fetch what is already known
    // Pruning is lazy: a node that cannot beat the current k-th candidate
    // is dropped when it comes up as the soonest, not when tau shrinks.
    // That picks the same node as pruning the whole frontier first because
    // tau never grows (candidates are only ever added, so the k-th smallest
    // distance only falls): a node pruned now stays pruned, and a node that
    // survives the check at its pick would have survived any earlier one.
    const uint32_t node = frontier.Soonest(reader_.session()).id;
    if (tree.node_mbr(node).MinSquaredDistance(q) > tau2()) {
      EraseFromFrontier(&frontier, node);
      continue;
    }
    if (!TryReadNode(node)) continue;  // lost: retried at next occurrence
    EraseFromFrontier(&frontier, node);
    const bool leaf = tree.is_leaf(node);
    for (const Rtree::Entry& e : tree.entries(node)) {
      const double mind2 = e.mbr.MinSquaredDistance(q);
      if (mind2 > tau2()) continue;
      if (leaf) {
        add_candidate(mind2, e.child);
      } else {
        AddToFrontier(&frontier, e.child);
      }
    }
  }

  // Fetch the answer objects' payloads.
  for (const Candidate& c : candidates) reader_.AddPendingData(c.data_id);
  reader_.DrainPendingData();

  std::vector<datasets::SpatialObject> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    if (reader_.retrieved().test(c.data_id)) {
      out.push_back(index_.str_objects()[c.data_id]);
    }
  }
  return out;
}

}  // namespace dsi::rtree
