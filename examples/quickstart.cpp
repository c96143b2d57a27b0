/// Quickstart: build a DSI broadcast for a handful of points, tune in as a
/// mobile client, and run the three query types while watching the two
/// metrics that matter on a broadcast channel — access latency (how long
/// until the answer) and tuning time (how long the radio was actually on).

#include <cstdio>

#include "air/dsi_handle.hpp"
#include "datasets/datasets.hpp"
#include "dsi/client.hpp"
#include "dsi/index.hpp"
#include "hilbert/space_mapper.hpp"

int main() {
  using namespace dsi;

  // 1. The data: 500 points-of-interest in a unit square "city".
  const auto objects = datasets::MakeUniform(500, datasets::UnitUniverse(), 1);

  // 2. The Hilbert mapping shared by server and clients. ChooseOrder picks
  //    a curve resolution appropriate for the object density.
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    hilbert::ChooseOrder(objects.size()));

  // 3. The broadcast: 64-byte packets, two interleaved segments (the
  //    paper's reorganized broadcast), one object per frame. The air
  //    handle is the family-neutral view every query goes through.
  core::DsiConfig config;
  config.num_segments = 2;
  const core::DsiIndex index(objects, mapper, /*packet_capacity=*/64, config);
  const air::DsiHandle broadcast_index(index);
  std::printf("broadcast cycle: %zu buckets, %.1f KiB\n",
              index.program().num_buckets(),
              index.program().cycle_bytes() / 1024.0);

  // 4. A client tunes in at an arbitrary instant...
  auto make_session = [&](uint64_t tune_in) {
    return broadcast::ClientSession(broadcast_index.program(), tune_in,
                                    broadcast::ErrorModel{}, common::Rng(7));
  };

  // ...and asks for everything in a district (window query).
  {
    auto session = make_session(12345);
    const auto client = broadcast_index.MakeClient(&session);
    const common::Rect window{0.40, 0.40, 0.55, 0.55};
    const auto result = client->WindowQuery(window);
    const auto m = session.metrics();
    std::printf("window query: %zu objects, latency %.1f KiB, tuning %.1f "
                "KiB (%lu tables, %lu objects read)\n",
                result.size(), m.access_latency_bytes / 1024.0,
                m.tuning_bytes / 1024.0, client->stats().index_reads,
                client->stats().object_reads);
  }

  // ...or for the 5 nearest objects (kNN query).
  {
    auto session = make_session(99999);
    const auto client = broadcast_index.MakeClient(&session);
    const auto result = client->KnnQuery(common::Point{0.5, 0.5}, 5);
    const auto m = session.metrics();
    std::printf("5NN query:    %zu objects, latency %.1f KiB, tuning %.1f "
                "KiB\n",
                result.size(), m.access_latency_bytes / 1024.0,
                m.tuning_bytes / 1024.0);
    for (const auto& o : result) {
      std::printf("  object %u at (%.3f, %.3f), distance %.4f\n", o.id,
                  o.location.x, o.location.y,
                  common::Distance(common::Point{0.5, 0.5}, o.location));
    }
  }

  // ...or for the object at a known spot (point query via EEF — a
  // DSI-specific capability, so it goes through the family client).
  {
    auto session = make_session(4242);
    core::DsiClient client(index, &session);
    const auto target = index.sorted_objects()[123];
    const auto result = client.PointQuery(target.location);
    std::printf("point query:  found %zu object(s) at the cell of object "
                "%u after %lu hops\n",
                result.size(), target.id, client.hops());
  }
  return 0;
}
