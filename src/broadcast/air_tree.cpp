#include "broadcast/air_tree.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dsi::broadcast {

namespace {

/// Watchdog budget of a tree query, in on-air cycles.
constexpr uint64_t kWatchdogCycles = 400;

/// Preorder (left-to-right) node order of the subtree at \p root, plus its
/// data ids in leaf order.
void PreorderAndData(const AirTreeSpec& spec, uint32_t root,
                     std::vector<uint32_t>* order,
                     std::vector<uint32_t>* data_ids) {
  std::vector<uint32_t> stack{root};
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    order->push_back(id);
    const auto& node = spec.nodes[id];
    if (node.level == 0) {
      for (uint32_t d : node.children) data_ids->push_back(d);
    } else {
      for (auto it = node.children.rbegin(); it != node.children.rend();
           ++it) {
        stack.push_back(*it);
      }
    }
  }
}

}  // namespace

AirTreeBroadcast::AirTreeBroadcast(const AirTreeSpec& spec,
                                   size_t packet_capacity,
                                   uint32_t target_subtrees,
                                   TreeLayout layout)
    : program_(packet_capacity), layout_(layout) {
  // An empty tree (zero objects) yields an empty program — nothing on air;
  // RunWorkload guards it and no ClientSession may be constructed over it.
  if (spec.nodes.empty()) {
    program_.Finalize();
    return;
  }
  assert(spec.root < spec.nodes.size());
  target_subtrees = std::max<uint32_t>(target_subtrees, 1);
  data_slot_.assign(spec.data_sizes.size(), SIZE_MAX);

  switch (layout_) {
    case TreeLayout::kDistributed:
      BuildDistributed(spec, target_subtrees);
      break;
    case TreeLayout::kOneM:
      BuildOneM(spec, target_subtrees);
      break;
  }
  program_.Finalize();
  IndexNodeSlots(spec.nodes.size());
}

void AirTreeBroadcast::BuildDistributed(const AirTreeSpec& spec,
                                        uint32_t target_subtrees) {
  const uint32_t root_level = spec.nodes[spec.root].level;

  // Count nodes per level to find the distribution level: the highest level
  // with at least target_subtrees nodes (or the leaf level if none).
  std::vector<uint32_t> level_count(root_level + 1, 0);
  for (const auto& n : spec.nodes) {
    assert(n.level <= root_level);
    ++level_count[n.level];
  }
  distribution_level_ = 0;
  for (uint32_t lvl = root_level;; --lvl) {
    if (level_count[lvl] >= target_subtrees || lvl == 0) {
      distribution_level_ = lvl;
      break;
    }
  }

  // Collect subtree roots (distribution-level nodes) left to right, and the
  // ancestor path (root .. parent) to emit before each subtree.
  struct PathedRoot {
    uint32_t node;
    std::vector<uint32_t> path;
  };
  std::vector<PathedRoot> roots;
  {
    std::vector<std::pair<uint32_t, std::vector<uint32_t>>> stack;
    stack.emplace_back(spec.root, std::vector<uint32_t>{});
    // Depth-first, left to right (stack gets children reversed).
    while (!stack.empty()) {
      auto [id, path] = std::move(stack.back());
      stack.pop_back();
      const auto& node = spec.nodes[id];
      if (node.level == distribution_level_) {
        roots.push_back(PathedRoot{id, std::move(path)});
        continue;
      }
      path.push_back(id);
      for (auto it = node.children.rbegin(); it != node.children.rend();
           ++it) {
        stack.emplace_back(*it, path);
      }
    }
  }

  subtree_roots_.reserve(roots.size());
  for (const PathedRoot& r : roots) {
    subtree_roots_.push_back(r.node);
    // Replicated part: the ancestor path, root first.
    for (uint32_t anc : r.path) {
      program_.AddBucket(BucketKind::kIndexNode, anc,
                         spec.nodes[anc].size_bytes);
    }
    // Non-replicated part: subtree nodes in DFS preorder, then its data.
    std::vector<uint32_t> order;
    std::vector<uint32_t> data_ids;
    PreorderAndData(spec, r.node, &order, &data_ids);
    for (uint32_t id : order) {
      program_.AddBucket(BucketKind::kIndexNode, id,
                         spec.nodes[id].size_bytes);
    }
    for (uint32_t d : data_ids) {
      assert(d < spec.data_sizes.size());
      assert(data_slot_[d] == SIZE_MAX);  // each datum broadcast once
      data_slot_[d] =
          program_.AddBucket(BucketKind::kDataObject, d, spec.data_sizes[d]);
    }
  }
}

void AirTreeBroadcast::BuildOneM(const AirTreeSpec& spec, uint32_t copies) {
  distribution_level_ = spec.nodes[spec.root].level;
  subtree_roots_.assign(copies, spec.root);

  std::vector<uint32_t> order;
  std::vector<uint32_t> data_ids;
  PreorderAndData(spec, spec.root, &order, &data_ids);

  const size_t total = data_ids.size();
  const size_t chunk = (total + copies - 1) / std::max<uint32_t>(copies, 1);
  size_t next_data = 0;
  for (uint32_t copy = 0; copy < copies; ++copy) {
    // One full copy of the index...
    for (uint32_t id : order) {
      program_.AddBucket(BucketKind::kIndexNode, id,
                         spec.nodes[id].size_bytes);
    }
    // ...followed by the next 1/m of the data.
    const size_t end = std::min(total, next_data + chunk);
    for (; next_data < end; ++next_data) {
      const uint32_t d = data_ids[next_data];
      assert(data_slot_[d] == SIZE_MAX);
      data_slot_[d] =
          program_.AddBucket(BucketKind::kDataObject, d, spec.data_sizes[d]);
    }
  }
  assert(next_data == total);
}

void AirTreeBroadcast::IndexNodeSlots(size_t num_nodes) {
  // Count each node's airings, turn the counts into group offsets, then
  // fill the groups in slot order, which keeps each one ascending.
  first_node_slot_.assign(num_nodes + 1, 0);
  for (size_t s = 0; s < program_.num_buckets(); ++s) {
    const Bucket& b = program_.bucket(s);
    if (b.kind == BucketKind::kIndexNode) ++first_node_slot_[b.payload + 1];
  }
  for (size_t id = 0; id < num_nodes; ++id) {
    first_node_slot_[id + 1] += first_node_slot_[id];
  }
  node_slots_.resize(first_node_slot_.back());
  std::vector<size_t> fill(first_node_slot_.begin(),
                           first_node_slot_.end() - 1);
  for (size_t s = 0; s < program_.num_buckets(); ++s) {
    const Bucket& b = program_.bucket(s);
    if (b.kind == BucketKind::kIndexNode) node_slots_[fill[b.payload]++] = s;
  }
}

size_t AirTreeBroadcast::NextNodeSlot(uint32_t node_id,
                                      const ClientSession& session) const {
  const std::span<const size_t> slots = NodeSlots(node_id);
  assert(!slots.empty());
  // The replica whose nearest airing starts soonest. Replicas never share
  // an airing, so the waits are distinct and the argmin is unique.
  size_t best = slots.front();
  if (slots.size() == 1) return best;
  uint64_t best_wait = session.PacketsUntil(best);
  for (size_t i = 1; i < slots.size(); ++i) {
    const uint64_t wait = session.PacketsUntil(slots[i]);
    if (wait < best_wait) {
      best_wait = wait;
      best = slots[i];
    }
  }
  return best;
}

size_t AirTreeBroadcast::DataSlot(uint32_t data_id) const {
  assert(data_id < data_slot_.size());
  assert(data_slot_[data_id] != SIZE_MAX);
  return data_slot_[data_id];
}

AirTreeReader::AirTreeReader(const AirTreeBroadcast& air,
                             ClientSession* session)
    : air_(air),
      session_(session),
      node_cache_(air.num_nodes(), false),
      retrieved_(air.num_data()) {
  session_->InitialProbe();
  generation_ = session_->generation();
  session_->ArmWatchdog(kWatchdogCycles);
}

void AirTreeReader::BeginQuery() {
  pending_data_.clear();
  stats_.completed = true;
  stats_.stale = false;
  session_->ArmWatchdog(kWatchdogCycles);
}

}  // namespace dsi::broadcast
