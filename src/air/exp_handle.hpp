#pragma once

/// \file exp_handle.hpp
/// \brief AirIndexHandle adapter that serves spatial queries from the 1-D
/// exponential index [16] through the Hilbert mapping.
///
/// The paper presents DSI as the exponential index lifted to two dimensions;
/// this adapter is the literal construction: objects are keyed by their
/// Hilbert value, broadcast as an expindex::ExpIndex over those keys, and a
/// client answers
///  * window queries by decomposing the window into HC ranges
///    (SpaceMapper::WindowToRanges) and running one 1-D range scan per
///    range (a superset filter — retrieved objects are checked against the
///    window), and
///  * kNN queries by growing a search circle: scan the HC ranges under the
///    circle, and stop once k candidates are confirmed within the radius.
///    Already-scanned ranges are never re-paid for (tracked in an
///    IntervalSet), but each growth round may wrap into later cycles — the
///    price of serving 2-D queries from a 1-D structure, and exactly the
///    gap DSI's spatial reasoning closes.
///
/// Unlike the other handles this one owns its index: the ExpIndex is built
/// from the objects' Hilbert keys at construction.

#include <memory>
#include <string_view>
#include <vector>

#include "air/air_index.hpp"
#include "air/family.hpp"
#include "expindex/expindex.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::air {

/// Owning handle: an exponential-index broadcast over Hilbert keys.
class ExpHandle : public AirIndexHandle {
 public:
  /// Builds the broadcast. \p mapper must outlive the handle and is the
  /// Hilbert mapping shared with clients. \p config.key_bytes defaults to
  /// the mapper's packed cell-index width when left at 0.
  ExpHandle(std::vector<datasets::SpatialObject> objects,
            const hilbert::SpaceMapper& mapper, size_t packet_capacity,
            expindex::ExpConfig config = {});

  std::string_view family() const override {
    return FamilyName(Family::kExpIndex);
  }
  const broadcast::BroadcastProgram& program() const override {
    return index_->program();
  }
  std::unique_ptr<AirClient> MakeClient(
      broadcast::ClientSession* session) const override;
  /// Continuous variant: enables the ExpClient chunk-table / item-key
  /// cache so knowledge survives across the stream's queries. Kept off
  /// MakeClient — the cache would also change single-query byte metrics
  /// (overlapping scans within one spatial query), which are pinned by the
  /// golden suite.
  std::unique_ptr<AirClient> MakeContinuousClient(
      broadcast::ClientSession* session) const override;
  AirClient* MakeClientIn(ClientArena& arena,
                          broadcast::ClientSession* session) const override;
  const std::vector<datasets::SpatialObject>& data_objects() const override {
    return objects_;
  }

  const expindex::ExpIndex& index() const { return *index_; }
  const hilbert::SpaceMapper& mapper() const { return mapper_; }
  /// Objects in key (Hilbert) rank order, parallel to index().sorted_keys().
  const std::vector<datasets::SpatialObject>& sorted_objects() const {
    return objects_;
  }

 protected:
  void AppendIndexContent(const broadcast::Bucket& bucket,
                          std::vector<uint8_t>* out) const override;

 private:
  const hilbert::SpaceMapper& mapper_;
  std::vector<datasets::SpatialObject> objects_;  // key-sorted
  std::unique_ptr<expindex::ExpIndex> index_;
};

}  // namespace dsi::air
