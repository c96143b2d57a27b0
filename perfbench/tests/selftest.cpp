/// \file selftest.cpp
/// \brief Self-tests of the benchmark's own arithmetic: span self times,
/// the tail-percentile rule, the query-cost identity, and the session
/// replay the attribution rests on. perfbench/run.py runs them before
/// every benchmark run; a failure aborts the run without a result.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "air/dsi_handle.hpp"
#include "broadcast/generation.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "report.hpp"
#include "sim/seed_mix.hpp"
#include "sim/workload.hpp"
#include "spans.hpp"
#include "transport/transport.hpp"
#include "workloads.hpp"

namespace {

using namespace dsi;
using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void SelfTimeSubtractsTheUnionOfChildren() {
  // Parent [0, 100); children overlap each other and one sticks out.
  std::vector<Span> spans = {
      {0, 0, 100, -1, kNoQuery},  {0, 10, 30, 0, kNoQuery},
      {0, 20, 50, 0, kNoQuery},   {0, 90, 120, 0, kNoQuery},
      {0, 25, 28, 2, kNoQuery},  // grandchild: only its parent loses it
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  CHECK(self[0] == 100 - 40 - 10);  // covered: [10, 50) and [90, 100)
  CHECK(self[1] == 20);
  CHECK(self[2] == 30 - 3);
  CHECK(self[3] == 30);
  CHECK(self[4] == 3);
}

void RecorderNestsSpans() {
  SpanRecorder rec(true);
  {
    SpanRecorder::Scope outer(rec, "outer", 7);
    SpanRecorder::Scope inner(rec, "inner", 7);
  }
  SpanRecorder::Scope next(rec, "outer");
  CHECK(rec.spans().size() == 3);
  CHECK(rec.spans()[0].parent == -1);
  CHECK(rec.spans()[1].parent == 0);
  CHECK(rec.spans()[1].query == 7);
  CHECK(rec.spans()[2].parent == -1);
  CHECK(rec.spans()[0].name == rec.spans()[2].name);
  CHECK(rec.names().size() == 2);
  SpanRecorder off(false);
  CHECK(off.Begin("x") == -1);
  CHECK(off.End(-1) == 0);
  CHECK(off.spans().empty());
}

void TailPercentileKeepsTenBeyond() {
  CHECK(TailPercentile(10000) == 99.9);
  CHECK(TailPercentile(1000) == 99.0);
  CHECK(TailPercentile(999) == 95.0);
  CHECK(TailPercentile(200) == 95.0);
  CHECK(TailPercentile(199) == 90.0);
  CHECK(TailPercentile(100) == 90.0);
  CHECK(TailPercentile(40) == 75.0);
  CHECK(TailPercentile(39) == 50.0);
  for (size_t n = 40; n <= 5000; ++n) {
    const double p = TailPercentile(n);
    CHECK(SamplesBeyond(n, p) >= 10);
  }
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  CHECK(Percentile(v, 95) == 190);
  CHECK(SamplesBeyond(200, 95) == 10);
  CHECK(Percentile(v, 50) == 100);
  CHECK(Median({3, 1, 2, 4}) == 2.5);
  CHECK(std::abs(GeoMean({1, 100}) - 10) < 1e-12);
  CHECK(GeoMean({1, 0}) == 0);
}

void CostPartsSumToTheQuery() {
  QueryCost c{1000, 300, 200};
  CHECK(c.search_ns() == 500);
  CHECK(c.search_ns() + static_cast<int64_t>(c.session_ns + c.plan_ns) ==
        static_cast<int64_t>(c.query_ns));
  QueryCost fast{100, 150, 20};  // replay slower than the query itself
  CHECK(fast.search_ns() == -70);
  CHECK(fast.search_ns() + 170 == 100);
}

/// Runs \p n queries traced on fresh sessions over \p channel and replays
/// each through a bare session; every replay must reproduce the query's
/// byte metrics exactly.
void CheckReplay(const air::AirIndexHandle& handle,
                 transport::SimTransport& channel, uint64_t horizon,
                 broadcast::ErrorModel errors, size_t n) {
  const auto windows =
      sim::MakeWindowWorkload(n, 0.2, datasets::UnitUniverse(), 5);
  const auto points = sim::MakeKnnWorkload(n, datasets::UnitUniverse(), 6);
  for (size_t i = 0; i < n; ++i) {
    common::Rng rng(sim::MixSeed(99, i));
    const auto tune_in = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(horizon) - 1));
    const uint64_t fork_seed = rng.engine()();
    std::vector<broadcast::TraceEvent> events;
    broadcast::ClientSession session(channel, tune_in, errors,
                                     common::Rng(fork_seed));
    session.set_trace(&events);
    session.InitialProbe();
    std::unique_ptr<air::AirClient> client =
        handle.MakeContinuousClient(&session);
    if (i % 2 == 0) {
      client->WindowQuery(windows[i]);
    } else {
      client->KnnQuery(points[i], 4);
    }
    broadcast::ClientSession bare(channel, tune_in, errors,
                                  common::Rng(fork_seed));
    bare.InitialProbe();
    const size_t reads = ReplayListens(bare, events, 0, events.size());
    CHECK(reads == CountEvents(events, 0, events.size()).listens);
    CHECK(SameMetrics(bare.metrics(), session.metrics()));
  }
}

void ReplayReproducesByteMetrics() {
  const common::Rect u = datasets::UnitUniverse();
  const auto objects = datasets::MakeUniform(300, u, 3);
  const hilbert::SpaceMapper mapper(u, hilbert::ChooseOrder(300));
  core::DsiConfig cfg;
  cfg.num_segments = 2;
  const core::DsiIndex gen0(objects, mapper, 64, cfg);
  const air::DsiHandle h0(gen0);

  // Static lossless and lossy channels.
  transport::SimTransport flat(h0.program());
  const uint64_t cycle = h0.program().cycle_packets();
  CheckReplay(h0, flat, cycle, {}, 20);
  CheckReplay(h0, flat, cycle, {0.3, broadcast::ErrorMode::kPerBucketLoss},
              20);
  CheckReplay(h0, flat, cycle, {0.3, broadcast::ErrorMode::kPerReadLoss}, 20);

  // A republished broadcast: tune-ins before the switch straddle it.
  const core::DsiIndex gen1 = core::DsiIndex::Republish(
      gen0, datasets::MakeUpdateStream(objects, 10, u, 4));
  broadcast::GenerationSchedule schedule;
  schedule.Append(&gen0.program(), 1);
  schedule.Append(&gen1.program(), 1);
  transport::SimTransport dynamic(schedule);
  // A generation-0 client aborts as stale when the switch cuts it off; the
  // replay still has to reproduce every read, re-sync included.
  CheckReplay(h0, dynamic, cycle, {0.2, broadcast::ErrorMode::kPerBucketLoss},
              20);
}

}  // namespace

int main() {
  SelfTimeSubtractsTheUnionOfChildren();
  RecorderNestsSpans();
  TailPercentileKeepsTenBeyond();
  CostPartsSumToTheQuery();
  ReplayReproducesByteMetrics();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
