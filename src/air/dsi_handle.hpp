#pragma once

/// \file dsi_handle.hpp
/// \brief AirIndexHandle wrapper for the paper's Distributed Spatial Index.

#include <memory>
#include <string_view>

#include "air/air_index.hpp"
#include "air/family.hpp"
#include "dsi/index.hpp"

namespace dsi::air {

/// Non-owning handle over a built core::DsiIndex.
class DsiHandle : public AirIndexHandle {
 public:
  explicit DsiHandle(const core::DsiIndex& index) : index_(index) {}

  std::string_view family() const override {
    return FamilyName(Family::kDsi);
  }
  const broadcast::BroadcastProgram& program() const override {
    return index_.program();
  }
  std::unique_ptr<AirClient> MakeClient(
      broadcast::ClientSession* session) const override;
  AirClient* MakeClientIn(ClientArena& arena,
                          broadcast::ClientSession* session) const override;
  const std::vector<datasets::SpatialObject>& data_objects() const override {
    return index_.sorted_objects();
  }

  const core::DsiIndex& index() const { return index_; }

 protected:
  void AppendIndexContent(const broadcast::Bucket& bucket,
                          std::vector<uint8_t>* out) const override;

 private:
  const core::DsiIndex& index_;
};

}  // namespace dsi::air
