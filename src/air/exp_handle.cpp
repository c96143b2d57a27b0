#include "air/exp_handle.hpp"

#include <algorithm>
#include <cmath>

#include "hilbert/interval_set.hpp"
#include "wire/codecs.hpp"

namespace dsi::air {

ExpHandle::ExpHandle(std::vector<datasets::SpatialObject> objects,
                     const hilbert::SpaceMapper& mapper,
                     size_t packet_capacity, expindex::ExpConfig config)
    : mapper_(mapper), objects_(std::move(objects)) {
  // Key order must match ExpIndex's internal key sort: equal keys form a
  // run, and range results are key-determined, so any tie order yields the
  // same object set.
  std::stable_sort(objects_.begin(), objects_.end(),
                   [&](const datasets::SpatialObject& a,
                       const datasets::SpatialObject& b) {
                     return mapper_.PointToIndex(a.location) <
                            mapper_.PointToIndex(b.location);
                   });
  std::vector<uint64_t> keys;
  keys.reserve(objects_.size());
  for (const auto& o : objects_) keys.push_back(mapper_.PointToIndex(o.location));
  if (config.key_bytes == 0) {
    // Packed cell-index width (2*order bits), matching DSI's compact tables.
    config.key_bytes =
        (2 * static_cast<uint32_t>(mapper_.curve().order()) + 7) / 8;
  }
  index_ = std::make_unique<expindex::ExpIndex>(std::move(keys),
                                                packet_capacity, config);
}

namespace {

class ExpAirClient : public AirClient {
 public:
  ExpAirClient(const ExpHandle& handle, broadcast::ClientSession* session,
               bool reuse_knowledge = false)
      : handle_(handle), client_(handle.index(), session, reuse_knowledge) {}

  void BeginQuery() override { client_.BeginQuery(); }

  std::vector<datasets::SpatialObject> WindowQuery(
      const common::Rect& window) override {
    std::vector<datasets::SpatialObject> out;
    for (const hilbert::HcRange& r : handle_.mapper().WindowToRanges(window)) {
      for (const uint32_t rank : client_.RangeQuery(r.lo, r.hi)) {
        const datasets::SpatialObject& o = handle_.sorted_objects()[rank];
        if (window.Contains(o.location)) out.push_back(o);
      }
      if (!client_.stats().completed) break;
    }
    return out;
  }

  std::vector<datasets::SpatialObject> KnnQuery(
      const common::Point& q, size_t k, KnnStrategy /*strategy*/) override {
    const size_t n = handle_.sorted_objects().size();
    if (k == 0 || n == 0) return {};
    const common::Rect& u = handle_.mapper().universe();
    const double side = std::max(u.Width(), u.Height());
    // A circle of this radius covers every object regardless of where q is
    // (exact farthest-corner distance; a universe-diagonal bound fails for
    // q outside the universe).
    const double cover = std::sqrt(u.MaxSquaredDistance(q));
    // Expected radius holding k uniform objects, with a floor of one cell.
    double radius = std::max(
        side * std::sqrt(static_cast<double>(std::min(k + 1, n)) /
                         static_cast<double>(n)),
        side / static_cast<double>(handle_.mapper().curve().side()));

    hilbert::IntervalSet scanned;
    // Candidate ranks. The scanned ranges are disjoint, so no rank repeats.
    std::vector<uint32_t> candidates;
    while (true) {
      const auto targets = handle_.mapper().CircleToRanges(q, radius);
      for (const hilbert::HcRange& r : scanned.Subtract(targets)) {
        const std::vector<uint32_t> ranks = client_.RangeQuery(r.lo, r.hi);
        candidates.insert(candidates.end(), ranks.begin(), ranks.end());
        scanned.Add(r);
        if (!client_.stats().completed) return Best(q, k, candidates);
      }
      // Exact once k candidates are confirmed inside the scanned circle:
      // every object within `radius` lies in a cell intersecting the
      // circle, and all such cells have been scanned.
      size_t within = 0;
      for (const uint32_t rank : candidates) {
        if (common::Distance(q, handle_.sorted_objects()[rank].location) <=
            radius) {
          ++within;
        }
      }
      if (within >= k || radius >= cover) break;
      radius = std::min(2.0 * radius, cover);
    }
    return Best(q, k, candidates);
  }

  const ClientStats& stats() const override { return client_.stats(); }

 private:
  /// The \p k candidates nearest \p q, in the answer order of every
  /// family (datasets::KeepNearest).
  std::vector<datasets::SpatialObject> Best(
      const common::Point& q, size_t k,
      const std::vector<uint32_t>& candidates) const {
    std::vector<datasets::SpatialObject> out;
    out.reserve(candidates.size());
    for (const uint32_t rank : candidates) {
      out.push_back(handle_.sorted_objects()[rank]);
    }
    datasets::KeepNearest(q, k, &out);
    return out;
  }

  const ExpHandle& handle_;
  expindex::ExpClient client_;
};

}  // namespace

std::unique_ptr<AirClient> ExpHandle::MakeClient(
    broadcast::ClientSession* session) const {
  return std::make_unique<ExpAirClient>(*this, session);
}

std::unique_ptr<AirClient> ExpHandle::MakeContinuousClient(
    broadcast::ClientSession* session) const {
  return std::make_unique<ExpAirClient>(*this, session,
                                        /*reuse_knowledge=*/true);
}

AirClient* ExpHandle::MakeClientIn(ClientArena& arena,
                                  broadcast::ClientSession* session) const {
  return arena.Create<ExpAirClient>(*this, session);
}

void ExpHandle::AppendIndexContent(const broadcast::Bucket& bucket,
                                   std::vector<uint8_t>* out) const {
  wire::AppendExpTable(index_->ChunkMinKey(bucket.payload),
                       index_->TableAt(bucket.payload),
                       index_->config().key_bytes, out);
}

}  // namespace dsi::air
