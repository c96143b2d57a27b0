#pragma once

/// \file test_families.hpp
/// \brief Shared test fixture: all four index families built over one
/// object set behind their AirIndexHandle fronts, so cross-family tests
/// iterate one handle list, or pick a family's handle, instead of
/// repeating the construction boilerplate.

#include <vector>

#include "air/family.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::test {

/// All four families over one object set (plus the shared mapper).
struct Families {
  hilbert::SpaceMapper mapper;
  std::vector<air::FamilyBroadcast> broadcasts;

  explicit Families(const std::vector<datasets::SpatialObject>& objects,
                    uint32_t m = 1, size_t capacity = 64, int order = 6)
      : mapper(datasets::UnitUniverse(), order) {
    const air::Generations gens{{objects}, {}};
    for (const air::Family family : air::kFamilies) {
      broadcasts.emplace_back(family, gens, mapper, capacity,
                              core::DsiConfig{.num_segments = m});
    }
  }

  /// \p family's handle.
  const air::AirIndexHandle& handle(air::Family family) const {
    return broadcasts[static_cast<size_t>(family)].handle(0);
  }

  /// One handle per family, in air::kFamilies order.
  std::vector<const air::AirIndexHandle*> handles() const {
    std::vector<const air::AirIndexHandle*> out;
    for (const air::FamilyBroadcast& b : broadcasts) {
      out.push_back(&b.handle(0));
    }
    return out;
  }
};

}  // namespace dsi::test
