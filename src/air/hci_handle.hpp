#pragma once

/// \file hci_handle.hpp
/// \brief AirIndexHandle wrapper for the Hilbert Curve Index baseline.

#include <string_view>
#include <vector>

#include "air/family.hpp"
#include "air/tree_handle.hpp"
#include "hci/hci.hpp"

namespace dsi::air {

/// Non-owning handle over a built hci::HciIndex.
class HciHandle : public TreeHandle<hci::HciIndex, hci::HciClient> {
 public:
  using TreeHandle::TreeHandle;

  std::string_view family() const override {
    return FamilyName(Family::kHci);
  }
  const std::vector<datasets::SpatialObject>& data_objects() const override {
    return index().sorted_objects();
  }

 protected:
  void AppendIndexContent(const broadcast::Bucket& bucket,
                          std::vector<uint8_t>* out) const override;
};

}  // namespace dsi::air
