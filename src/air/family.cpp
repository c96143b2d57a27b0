#include "air/family.hpp"

#include <cassert>
#include <iterator>
#include <utility>

#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "common/sizes.hpp"
#include "hci/hci.hpp"
#include "rtree/rtree_air.hpp"

namespace dsi::air {

namespace {

constexpr std::string_view kNames[] = {"dsi", "rtree", "hci", "expindex"};
static_assert(std::size(kNames) == std::size(kFamilies));

/// The index a handle views, held ahead of the handle (base-from-member),
/// so Owning can build the index before the handle that refers to it.
template <class Index>
struct IndexHolder {
  Index owned;
};

/// A Handle that owns the Index it views.
template <class Handle, class Index>
class Owning : private IndexHolder<Index>, public Handle {
 public:
  template <class... Args>
  explicit Owning(Args&&... args)
      : IndexHolder<Index>{Index(std::forward<Args>(args)...)},
        Handle(this->owned) {}
};

}  // namespace

std::string_view FamilyName(Family family) {
  return kNames[static_cast<size_t>(family)];
}

std::optional<Family> ParseFamily(std::string_view name) {
  for (const Family family : kFamilies) {
    if (FamilyName(family) == name) return family;
  }
  return std::nullopt;
}

size_t MinPacketCapacity(Family family) {
  return family == Family::kRtree ? common::kRtreeEntryBytes : 1;
}

Generations MakeGenerations(
    uint64_t seed, uint32_t num_generations, uint32_t updates_per_gen,
    const std::function<std::vector<datasets::SpatialObject>(uint64_t)>&
        make_base) {
  const common::Rect u = datasets::UnitUniverse();
  Generations gens;
  gens.objects.push_back(make_base(seed * 3 + 1));
  for (uint32_t g = 1; g < num_generations; ++g) {
    gens.ops.push_back(datasets::MakeUpdateStream(
        gens.objects.back(), updates_per_gen, u, seed * 0x51ED + g));
    gens.objects.push_back(
        datasets::ApplyUpdates(gens.objects.back(), gens.ops.back()));
  }
  return gens;
}

FamilyBroadcast::FamilyBroadcast(Family family, const Generations& generations,
                                 const hilbert::SpaceMapper& mapper,
                                 size_t packet_capacity,
                                 const core::DsiConfig& dsi,
                                 const expindex::ExpConfig& exp) {
  assert(packet_capacity >= MinPacketCapacity(family));
  for (size_t g = 0; g < generations.objects.size(); ++g) {
    const std::vector<datasets::SpatialObject>& objects =
        generations.objects[g];
    switch (family) {
      case Family::kDsi:
        if (g == 0) {
          handles_.push_back(
              std::make_unique<Owning<DsiHandle, core::DsiIndex>>(
                  objects, mapper, packet_capacity, dsi));
        } else {
          const auto& prev = static_cast<const DsiHandle&>(*handles_.back());
          handles_.push_back(
              std::make_unique<Owning<DsiHandle, core::DsiIndex>>(
                  core::DsiIndex::Republish(prev.index(),
                                            generations.ops[g - 1])));
        }
        break;
      case Family::kRtree:
        handles_.push_back(
            std::make_unique<Owning<RtreeHandle, rtree::RtreeIndex>>(
                objects, packet_capacity));
        break;
      case Family::kHci:
        handles_.push_back(std::make_unique<Owning<HciHandle, hci::HciIndex>>(
            objects, mapper, packet_capacity));
        break;
      case Family::kExpIndex:
        handles_.push_back(
            std::make_unique<ExpHandle>(objects, mapper, packet_capacity, exp));
        break;
    }
    views_.push_back(handles_.back().get());
  }
}

}  // namespace dsi::air
