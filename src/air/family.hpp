#pragma once

/// \file family.hpp
/// \brief The one place an index family is defined: its name, the smallest
/// packet it fits, and how each generation of its broadcast is built.
///
/// The paper compares four families: DSI against the R-tree, HCI and
/// exponential-index air indexes. The conformance harness, the live
/// broadcast (transport::LiveSource), the golden-table generator and the
/// tools' family flags all build and name families through this module;
/// how a family encodes its buckets lives in its handle
/// (AirIndexHandle::AppendContent).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "air/air_index.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "expindex/expindex.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::air {

/// The index families. The values are the wire protocol's family ids
/// (wire::FamilyId is this enum).
enum class Family : uint8_t { kDsi = 0, kRtree = 1, kHci = 2, kExpIndex = 3 };

inline constexpr Family kFamilies[] = {Family::kDsi, Family::kRtree,
                                       Family::kHci, Family::kExpIndex};

/// "dsi", "rtree", "hci" or "expindex".
std::string_view FamilyName(Family family);
/// The family named \p name, or nullopt for an unknown name.
std::optional<Family> ParseFamily(std::string_view name);

/// Smallest packet capacity in bytes the family builds at: the R-tree
/// needs one whole 34-byte entry per packet, the others a nonempty packet.
size_t MinPacketCapacity(Family family);

/// The object sets of a dynamic broadcast: objects[0] is the base dataset
/// and ops[g] turns objects[g] into objects[g + 1].
struct Generations {
  std::vector<std::vector<datasets::SpatialObject>> objects;
  std::vector<std::vector<datasets::UpdateOp>> ops;
};

/// The derivation every dynamic broadcast shares, live and simulated: the
/// base dataset is make_base(seed * 3 + 1), and generation g >= 1 applies
/// MakeUpdateStream(objects[g - 1], updates_per_gen, unit universe,
/// seed * 0x51ED + g).
Generations MakeGenerations(
    uint64_t seed, uint32_t num_generations, uint32_t updates_per_gen,
    const std::function<std::vector<datasets::SpatialObject>(uint64_t)>&
        make_base);

/// One family's broadcast over every generation; each generation's handle
/// owns the index it views. Generation 0 is a full build; later DSI generations
/// republish from the previous one (DsiIndex::Republish), and the other
/// families rebuild. \p dsi and \p exp carry the per-family parameters.
/// \p mapper must outlive the broadcast.
class FamilyBroadcast {
 public:
  FamilyBroadcast(Family family, const Generations& generations,
                  const hilbert::SpaceMapper& mapper, size_t packet_capacity,
                  const core::DsiConfig& dsi = {},
                  const expindex::ExpConfig& exp = {});

  size_t num_generations() const { return handles_.size(); }
  const AirIndexHandle& handle(size_t g) const { return *handles_[g]; }
  /// Every generation's handle, in generation order.
  const std::vector<const AirIndexHandle*>& handles() const { return views_; }

 private:
  std::vector<std::unique_ptr<AirIndexHandle>> handles_;
  std::vector<const AirIndexHandle*> views_;
};

}  // namespace dsi::air
