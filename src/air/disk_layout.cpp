#include "air/disk_layout.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <vector>

#include "broadcast/air_tree.hpp"

namespace dsi::air {

broadcast::BroadcastProgram MakeSkewedProgram(
    const AirIndexHandle& index, const broadcast::DiskConfig& config) {
  if (!config.enabled()) return index.program();
  const common::Rect universe = datasets::UnitUniverse();
  const datasets::RegionPopularity popularity(config.grid, config.skew,
                                              config.pop_seed);
  return broadcast::MakeMultiDiskProgram(
      index.program(), config.num_disks,
      index.DiskWeights(popularity, universe));
}

OnAirSchedule::OnAirSchedule(
    const std::vector<const AirIndexHandle*>& generations,
    const std::vector<uint64_t>& cycles,
    const broadcast::CodingConfig& coding,
    const broadcast::DiskConfig& disks) {
  assert(cycles.size() == generations.size());
  for (const AirIndexHandle* handle : generations) {
    if (handle->program().cycle_packets() == 0) return;
  }
  const bool relayout = coding.enabled() || disks.enabled();
  // Sized up front: the schedule holds raw pointers, so the re-laid-out
  // programs must never relocate after Append.
  if (relayout) {
    relaid_.reserve(generations.size());
    for (const AirIndexHandle* handle : generations) {
      relaid_.push_back(
          MakeCodedProgram(MakeSkewedProgram(*handle, disks), coding));
    }
  }
  for (size_t g = 0; g < generations.size(); ++g) {
    schedule_.Append(relayout ? &relaid_[g] : &generations[g]->program(),
                     cycles[g]);
  }
}

std::vector<double> TreeDiskWeights(
    const broadcast::AirTreeSpec& spec,
    const broadcast::AirTreeBroadcast& air, const AirIndexHandle& handle,
    const datasets::RegionPopularity& popularity,
    const common::Rect& universe) {
  std::vector<double> data_w(spec.data_sizes.size(), 1.0);
  for (uint32_t id = 0; id < data_w.size(); ++id) {
    common::Point anchor;
    if (handle.SlotAnchor(air.DataSlot(id), &anchor)) {
      data_w[id] = popularity.Weight(anchor, universe);
    }
  }

  // Subtree max, children before parents (levels ascend toward the root).
  std::vector<uint32_t> by_level(spec.nodes.size());
  std::iota(by_level.begin(), by_level.end(), 0u);
  std::stable_sort(by_level.begin(), by_level.end(),
                   [&](uint32_t a, uint32_t b) {
                     return spec.nodes[a].level < spec.nodes[b].level;
                   });
  std::vector<double> node_w(spec.nodes.size(), 1.0);
  for (const uint32_t id : by_level) {
    const broadcast::AirTreeSpec::Node& node = spec.nodes[id];
    double w = 0.0;
    for (const uint32_t child : node.children) {
      w = std::max(w, node.level == 0 ? data_w[child] : node_w[child]);
    }
    node_w[id] = node.children.empty() ? 1.0 : w;
  }

  std::vector<double> weights(handle.program().num_buckets(), 1.0);
  for (uint32_t id = 0; id < data_w.size(); ++id) {
    weights[air.DataSlot(id)] = data_w[id];
  }
  for (uint32_t id = 0; id < node_w.size(); ++id) {
    for (const size_t slot : air.NodeSlots(id)) {
      weights[slot] = node_w[id];
    }
  }
  return weights;
}

}  // namespace dsi::air
