#pragma once

/// \file disk_layout.hpp
/// \brief Popularity-ranked multi-disk cycle for any air index: glue between
/// the family-agnostic Broadcast-Disks construction
/// (broadcast::MakeMultiDiskProgram) and a family's spatial layout.
///
/// Each bucket of the index's program is weighted by the Zipf region
/// popularity of its spatial anchor via AirIndexHandle::DiskWeights: data
/// buckets weigh their own region; anchorless buckets — DSI tables, tree
/// nodes, chunk tables — default to inheriting the next anchored weight in
/// cycle order (an index bucket is read immediately before the data it
/// points at), and tree families override with a subtree-max rule so the
/// root rides the hottest disk. Weights are evaluated over the unit
/// universe, the data space of every simulated broadcast.

#include <cstdint>
#include <vector>

#include "air/air_index.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"
#include "broadcast/generation.hpp"

namespace dsi::broadcast {
class AirTreeBroadcast;
struct AirTreeSpec;
}

namespace dsi::air {

/// Multi-disk re-layout of \p index's program under \p config. With the
/// config disabled this returns a plain copy of the flat program — callers
/// that care about byte identity (sim::RunWorkload) keep the index's own
/// program by reference instead of calling this.
broadcast::BroadcastProgram MakeSkewedProgram(
    const AirIndexHandle& index, const broadcast::DiskConfig& config);

/// The channel a broadcast airs: every generation's on-air program — the
/// index's own by reference when both layouts are off, else
/// MakeCodedProgram(MakeSkewedProgram(...)) — appended to one
/// GenerationSchedule. Each generation is re-laid-out independently:
/// parity groups and disk schedules die with their generation. The
/// simulator's runs and the live broadcast (transport::LiveSource) both air
/// through it. A zero-cycle program never airs: if any generation's program
/// is empty, nothing is laid out and the schedule stays empty. Not copyable
/// or movable: the schedule points into the owned re-layouts.
class OnAirSchedule {
 public:
  /// \p cycles[g] is generation g's airtime in its own cycles.
  OnAirSchedule(const std::vector<const AirIndexHandle*>& generations,
                const std::vector<uint64_t>& cycles,
                const broadcast::CodingConfig& coding,
                const broadcast::DiskConfig& disks);
  OnAirSchedule(const OnAirSchedule&) = delete;
  OnAirSchedule& operator=(const OnAirSchedule&) = delete;

  const broadcast::GenerationSchedule& schedule() const { return schedule_; }

 private:
  std::vector<broadcast::BroadcastProgram> relaid_;
  broadcast::GenerationSchedule schedule_;
};

/// Subtree-max DiskWeights for AirTreeBroadcast-backed families (R-tree,
/// HCI): each data bucket weighs its anchor's region, each node occurrence
/// the maximum over its subtree's data — a node is requested by every
/// query descending into it, so it must air at least as often as its
/// hottest descendant (and the root at the global maximum). \p spec is the
/// tree \p air was laid out from.
std::vector<double> TreeDiskWeights(
    const broadcast::AirTreeSpec& spec,
    const broadcast::AirTreeBroadcast& air, const AirIndexHandle& handle,
    const datasets::RegionPopularity& popularity,
    const common::Rect& universe);

}  // namespace dsi::air
