#pragma once

/// \file rtree_handle.hpp
/// \brief AirIndexHandle wrapper for the R-tree air-index baseline.

#include <string_view>
#include <vector>

#include "air/family.hpp"
#include "air/tree_handle.hpp"
#include "rtree/rtree_air.hpp"

namespace dsi::air {

/// Non-owning handle over a built rtree::RtreeIndex.
class RtreeHandle : public TreeHandle<rtree::RtreeIndex, rtree::RtreeClient> {
 public:
  using TreeHandle::TreeHandle;

  std::string_view family() const override {
    return FamilyName(Family::kRtree);
  }
  const std::vector<datasets::SpatialObject>& data_objects() const override {
    return index().str_objects();
  }

 protected:
  void AppendIndexContent(const broadcast::Bucket& bucket,
                          std::vector<uint8_t>* out) const override;
};

}  // namespace dsi::air
