/// live_client — tunes into a running broadcastd and answers real queries.
///
/// Connects to the daemon, rebuilds the broadcast from the hello recipe,
/// then runs a deterministic stream of window/kNN queries through the
/// UNCHANGED family clients — the same code the simulator drives — over a
/// transport::StreamTransport. Reports the paper's byte metrics (access
/// latency / tuning bytes) next to the wall-clock the live channel
/// actually cost.
///
/// --verify replays the identical query stream through SimTransport (same
/// tune-in, same rng, same clients) and diffs results and byte metrics:
/// they must be bit-identical, which is the live pair's end-to-end
/// correctness check (CI runs it across all four families).
///
/// Exit codes: 0 ok, 1 usage, 2 no daemon reachable / handshake failed
/// (incl. protocol-version mismatch), 3 live channel failed mid-run,
/// 4 --verify found a divergence.
///
/// Usage: live_client --connect=tcp:PORT|unix:PATH
///                    [--windows=N] [--knn=N] [--k=K] [--seed=S]
///                    [--theta=T] [--timeout-ms=MS] [--verify] [--quiet]

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "air/air_index.hpp"
#include "broadcast/client.hpp"
#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "sim/runner.hpp"
#include "transport/stream_transport.hpp"
#include "transport/transport.hpp"

namespace {

using namespace dsi;

struct QuerySpec {
  bool is_window = false;
  common::Rect window;
  common::Point point;
  size_t k = 0;
};

std::vector<QuerySpec> MakeQueries(size_t windows, size_t knn, size_t k,
                                   uint64_t seed) {
  const common::Rect u = datasets::UnitUniverse();
  common::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x11FE);
  std::vector<QuerySpec> out;
  for (size_t i = 0; i < windows; ++i) {
    QuerySpec q;
    q.is_window = true;
    const common::Point center{rng.Uniform(u.min_x, u.max_x),
                               rng.Uniform(u.min_y, u.max_y)};
    q.window = common::MakeClippedWindow(
        center, rng.Uniform(0.05, 0.4) * u.Width(), u);
    out.push_back(q);
  }
  for (size_t i = 0; i < knn; ++i) {
    QuerySpec q;
    q.point = common::Point{rng.Uniform(u.min_x, u.max_x),
                            rng.Uniform(u.min_y, u.max_y)};
    q.k = k;
    out.push_back(q);
  }
  return out;
}

/// Runs the full query stream over ONE session on \p channel through the
/// simulator's warm-client loop (sim::detail::RunWarmClient: a continuous
/// client per generation, rebuilt on republication) and captures every
/// answer as the simulator does, with the query's own byte metrics.
std::vector<sim::QueryResult> RunStream(const transport::LiveSource& source,
                                        transport::Transport& channel,
                                        uint64_t tune_in,
                                        const std::vector<QuerySpec>& queries,
                                        double theta, uint64_t session_seed) {
  broadcast::ClientSession session(
      channel, tune_in,
      broadcast::ErrorModel{theta, broadcast::ErrorMode::kPerReadLoss},
      common::Rng(session_seed));
  session.InitialProbe();

  std::vector<sim::QueryResult> results(queries.size());
  sim::detail::WarmClient warm;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QuerySpec& q = queries[i];
    const broadcast::Metrics before = session.metrics();
    const sim::detail::ClientAnswer a = sim::detail::RunWarmClient(
        source.handles(), session, &warm, [&](air::AirClient& client) {
          return q.is_window ? client.WindowQuery(q.window)
                             : client.KnnQuery(q.point, q.k);
        });
    const broadcast::Metrics after = session.metrics();
    sim::detail::CaptureResult(
        q.is_window ? sim::QueryKind::kWindow : sim::QueryKind::kKnn, q.point,
        a.answer, a.completed, session.generation(), a.restarts,
        after.access_latency_bytes - before.access_latency_bytes,
        after.tuning_bytes - before.tuning_bytes,
        after.repaired - before.repaired, &results[i]);
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  size_t windows = 4;
  size_t knn = 4;
  size_t k = 5;
  uint64_t seed = 42;
  double theta = 0.0;
  bool verify = false;
  bool quiet = false;
  transport::StreamTransport::Options options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(10);
    } else if (arg.rfind("--windows=", 0) == 0) {
      windows = std::stoul(arg.substr(10));
    } else if (arg.rfind("--knn=", 0) == 0) {
      knn = std::stoul(arg.substr(6));
    } else if (arg.rfind("--k=", 0) == 0) {
      k = std::stoul(arg.substr(4));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--theta=", 0) == 0) {
      theta = std::stod(arg.substr(8));
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      options.timeout_ms = std::stoi(arg.substr(13));
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }
  if (connect.empty()) {
    std::fprintf(stderr, "live_client: --connect=tcp:PORT or unix:PATH is "
                         "required\n");
    return 1;
  }

  std::string error;
  std::unique_ptr<transport::StreamTransport> stream =
      transport::StreamTransport::Connect(connect, options, &error);
  if (stream == nullptr) {
    std::fprintf(stderr, "live_client: %s\n", error.c_str());
    return 2;
  }

  const wire::HelloPayload& hello = stream->hello();
  const uint64_t tune_in = stream->tune_in_packet();
  if (!quiet) {
    std::printf(
        "connected: family=%u n=%u seed=%llu generations=%u coding=%u+%u "
        "tune-in packet=%llu\n",
        static_cast<unsigned>(hello.family), hello.num_objects,
        static_cast<unsigned long long>(hello.seed), hello.num_generations,
        hello.coding_group, hello.coding_parity,
        static_cast<unsigned long long>(tune_in));
  }

  const std::vector<QuerySpec> queries = MakeQueries(windows, knn, k, seed);
  const uint64_t session_seed = seed * 0x51ED2701ull + 7;

  std::vector<sim::QueryResult> live;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    live = RunStream(stream->source(), *stream, tune_in, queries, theta,
                     session_seed);
  } catch (const transport::TransportError& e) {
    std::fprintf(stderr, "live_client: %s\n", e.what());
    return 3;
  }
  const auto wall_total = std::chrono::steady_clock::now() - t0;

  const transport::WallStats wall = stream->wall();
  uint64_t latency_bytes = 0;
  uint64_t tuning_bytes = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    latency_bytes += live[i].latency_bytes;
    tuning_bytes += live[i].tuning_bytes;
    if (!quiet) {
      std::printf(
          "query %2zu (%s): %4zu results, latency %8llu B, tuning %6llu B%s\n",
          i, queries[i].is_window ? "window" : "knn   ", live[i].ids.size(),
          static_cast<unsigned long long>(live[i].latency_bytes),
          static_cast<unsigned long long>(live[i].tuning_bytes),
          live[i].completed ? "" : "  [incomplete]");
    }
  }
  std::printf(
      "totals: %zu queries, latency %llu B, tuning %llu B | wall %.1f ms, "
      "%llu frames (%llu B on wire), %.1f ms blocked on channel\n",
      live.size(), static_cast<unsigned long long>(latency_bytes),
      static_cast<unsigned long long>(tuning_bytes),
      std::chrono::duration<double, std::milli>(wall_total).count(),
      static_cast<unsigned long long>(wall.frames),
      static_cast<unsigned long long>(wall.frame_bytes),
      static_cast<double>(wall.wait_nanos) / 1e6);

  if (verify) {
    // Replay the identical stream through the simulator substrate: same
    // schedule (locally rebuilt from the hello), same tune-in, same rng.
    transport::SimTransport replay(stream->source().schedule());
    const std::vector<sim::QueryResult> simulated = RunStream(
        stream->source(), replay, tune_in, queries, theta, session_seed);
    size_t divergences = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i] != simulated[i]) {
        std::fprintf(
            stderr,
            "verify: query %zu diverged (live %zu results / %llu / %llu vs "
            "sim %zu results / %llu / %llu)\n",
            i, live[i].ids.size(),
            static_cast<unsigned long long>(live[i].latency_bytes),
            static_cast<unsigned long long>(live[i].tuning_bytes),
            simulated[i].ids.size(),
            static_cast<unsigned long long>(simulated[i].latency_bytes),
            static_cast<unsigned long long>(simulated[i].tuning_bytes));
        ++divergences;
      }
    }
    if (divergences > 0) {
      std::fprintf(stderr, "verify: FAILED — %zu of %zu queries diverged\n",
                   divergences, live.size());
      return 4;
    }
    std::printf("verify: OK — %zu queries bit-identical to the simulator\n",
                live.size());
  }
  return 0;
}
