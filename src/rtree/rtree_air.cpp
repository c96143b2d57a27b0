#include "rtree/rtree_air.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace dsi::rtree {

namespace {

constexpr uint64_t kWatchdogCycles = 400;

}  // namespace

RtreeIndex::RtreeIndex(std::vector<datasets::SpatialObject> objects,
                       size_t packet_capacity, uint32_t target_subtrees,
                       broadcast::TreeLayout layout)
    : tree_(std::move(objects), Rtree::FanoutForCapacity(packet_capacity)),
      air_(tree_.ToAirSpec(std::vector<uint32_t>(
               tree_.str_objects().size(), common::kDataObjectBytes)),
           packet_capacity, target_subtrees, layout) {
  assert(Rtree::SupportedCapacity(packet_capacity));
}

RtreeClient::RtreeClient(const RtreeIndex& index,
                         broadcast::ClientSession* session)
    : index_(index),
      session_(session),
      node_cache_(index.tree().num_nodes(), false),
      retrieved_(index.str_objects().size(), 0) {
  session_->InitialProbe();
  generation_ = session_->generation();
  deadline_packets_ = session_->now_packets() +
                      kWatchdogCycles * session_->program().cycle_packets();
}

void RtreeClient::BeginQuery() {
  pending_data_.clear();
  stats_.completed = true;
  stats_.stale = false;
  deadline_packets_ = session_->now_packets() +
                      kWatchdogCycles * session_->program().cycle_packets();
}

bool RtreeClient::WatchdogExpired() const {
  return session_->now_packets() >= deadline_packets_;
}

bool RtreeClient::TryReadNode(uint32_t node_id) {
  if (node_cache_[node_id]) return true;  // already downloaded this query
  // Drain pending data buckets that pass by on the way to the node.
  FlushPassingData(node_id);
  if (stats_.stale) return false;  // republished while draining
  const size_t slot = index_.air().NextNodeSlot(node_id, *session_);
  if (session_->ReadBucket(slot)) {
    ++stats_.nodes_read;
    node_cache_[node_id] = true;
    return true;
  }
  if (session_->generation() != generation_) {
    stats_.stale = true;
    stats_.completed = false;
    return false;
  }
  // Lost: the node stays in the caller's frontier and competes again at
  // its next occurrence. Blocking here would let every other frontier
  // node fly by — a full-tree traversal under heavy loss then costs O(tree)
  // extra cycles and spuriously trips the watchdog.
  ++stats_.buckets_lost;
  return false;
}

bool RtreeClient::TryReadData(uint32_t data_id) {
  if (retrieved_[data_id]) return true;
  if (session_->ReadBucket(index_.air().DataSlot(data_id))) {
    ++stats_.objects_read;
    retrieved_[data_id] = 1;
    return true;
  }
  if (session_->generation() != generation_) {
    stats_.stale = true;
    stats_.completed = false;
    return false;
  }
  ++stats_.buckets_lost;
  return false;
}

void RtreeClient::FlushPassingData(uint32_t before_node) {
  // Repeatedly read the pending data bucket that comes up soonest, as long
  // as it arrives before the node we are headed to (recomputed each pass,
  // since reading advances time). A lost bucket stays pending: its next
  // occurrence is a cycle away, so the sweep moves on to whatever passes
  // next instead of blocking on the loss.
  while (!pending_data_.empty() && !WatchdogExpired() && !stats_.stale) {
    const uint64_t node_wait = session_->PacketsUntil(
        index_.air().NextNodeSlot(before_node, *session_));
    const broadcast::AiringSet::Pick next = pending_data_.Soonest(*session_);
    if (next.wait >= node_wait) return;
    if (TryReadData(next.id)) pending_data_.Erase(*session_, next.slot);
  }
}

void RtreeClient::DrainPendingData() {
  // Sweep in passing order; lost buckets stay pending and are retried when
  // they come around again, alongside everything else still pending.
  // (Blocking a full cycle per lost bucket would cost O(pending) extra
  // cycles under heavy loss and spuriously trip the watchdog.)
  while (!pending_data_.empty() && !WatchdogExpired() && !stats_.stale) {
    const broadcast::AiringSet::Pick next = pending_data_.Soonest(*session_);
    if (TryReadData(next.id)) pending_data_.Erase(*session_, next.slot);
  }
  if (!pending_data_.empty()) stats_.completed = false;
}

void RtreeClient::AddPendingData(uint32_t data_id) {
  // Keys are offsets in the session's program: none are taken once the
  // session has moved on to a newer generation.
  if (!retrieved_[data_id] && !stats_.stale) {
    pending_data_.Insert(*session_, index_.air().DataSlot(data_id), data_id);
  }
}

void RtreeClient::AddToFrontier(broadcast::AiringSet* frontier,
                                uint32_t node) const {
  for (const size_t slot : index_.air().NodeSlots(node)) {
    frontier->Insert(*session_, slot, node);
  }
}

void RtreeClient::EraseFromFrontier(broadcast::AiringSet* frontier,
                                    uint32_t node) const {
  for (const size_t slot : index_.air().NodeSlots(node)) {
    frontier->Erase(*session_, slot);
  }
}

std::vector<datasets::SpatialObject> RtreeClient::WindowQuery(
    const common::Rect& window) {
  const Rtree& tree = index_.tree();
  broadcast::AiringSet frontier;
  AddToFrontier(&frontier, tree.root());
  while (!frontier.empty()) {
    if (WatchdogExpired() || stats_.stale) {
      stats_.completed = false;
      break;  // report what was retrieved; completed=false flags the abort
    }
    const uint32_t node = frontier.Soonest(*session_).id;
    if (!TryReadNode(node)) continue;  // lost: retried at next occurrence
    EraseFromFrontier(&frontier, node);
    for (const Rtree::Entry& e : tree.entries(node)) {
      if (!e.mbr.Intersects(window)) continue;
      if (tree.is_leaf(node)) {
        // Leaf entries carry the exact point: membership is known here,
        // the payload still has to be fetched from the data segment.
        AddPendingData(e.child);
      } else {
        AddToFrontier(&frontier, e.child);
      }
    }
  }
  DrainPendingData();
  std::vector<datasets::SpatialObject> out;
  const auto& objects = index_.str_objects();
  for (size_t i = 0; i < retrieved_.size(); ++i) {
    if (retrieved_[i] && window.Contains(objects[i].location)) {
      out.push_back(objects[i]);
    }
  }
  return out;
}

std::vector<datasets::SpatialObject> RtreeClient::KnnQuery(
    const common::Point& q, size_t k) {
  if (k == 0) return {};  // degenerate: the empty set, no listening needed
  const Rtree& tree = index_.tree();

  // Exact candidate distances come straight from leaf entries (points).
  struct Candidate {
    double dist2;
    uint32_t data_id;
  };
  std::vector<Candidate> candidates;
  auto tau2 = [&]() -> double {
    if (candidates.size() < k) return std::numeric_limits<double>::infinity();
    return candidates[k - 1].dist2;
  };
  auto add_candidate = [&](double d2, uint32_t data_id) {
    candidates.push_back(Candidate{d2, data_id});
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.dist2 != b.dist2 ? a.dist2 < b.dist2
                                          : a.data_id < b.data_id;
              });
    if (candidates.size() > k) candidates.resize(k);
  };

  broadcast::AiringSet frontier;
  AddToFrontier(&frontier, tree.root());
  while (!frontier.empty()) {
    if (WatchdogExpired() || stats_.stale) {
      stats_.completed = false;
      break;  // fetch what is already known; completed=false flags it
    }
    // Pruning is lazy: a node that cannot beat the current k-th candidate
    // is dropped when it comes up as the soonest, not when tau shrinks.
    // That picks the same node as pruning the whole frontier first because
    // tau never grows (candidates are only ever added, so the k-th smallest
    // distance only falls): a node pruned now stays pruned, and a node that
    // survives the check at its pick would have survived any earlier one.
    const uint32_t node = frontier.Soonest(*session_).id;
    if (tree.node_mbr(node).MinSquaredDistance(q) > tau2()) {
      EraseFromFrontier(&frontier, node);
      continue;
    }
    if (!TryReadNode(node)) continue;  // lost: retried at next occurrence
    EraseFromFrontier(&frontier, node);
    for (const Rtree::Entry& e : tree.entries(node)) {
      const double mind2 = e.mbr.MinSquaredDistance(q);
      if (mind2 > tau2()) continue;
      if (tree.is_leaf(node)) {
        add_candidate(mind2, e.child);
      } else {
        AddToFrontier(&frontier, e.child);
      }
    }
  }

  // Fetch the answer objects' payloads.
  for (const Candidate& c : candidates) AddPendingData(c.data_id);
  DrainPendingData();

  std::vector<datasets::SpatialObject> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    if (retrieved_[c.data_id]) {
      out.push_back(index_.str_objects()[c.data_id]);
    }
  }
  return out;
}

}  // namespace dsi::rtree
