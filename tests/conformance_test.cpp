/// CI entry point of the differential conformance harness (see
/// src/sim/conformance.hpp): a seed sweep through the real engine for all
/// four families, plus one named regression test per bug the fuzz campaign
/// flushed out. Each regression test reproduces the exact shape that used
/// to fail; keep them even if the sweep would cover the shape by chance.

#include "sim/conformance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "hci/hci.hpp"
#include "hilbert/space_mapper.hpp"
#include "rtree/rtree_air.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

namespace dsi {
namespace {

std::string Describe(const sim::ConformanceReport& r,
                     const sim::ConformanceCase& c) {
  std::string out;
  for (const auto& d : r.divergences) {
    out += d.family + "/" + d.workload + "#" + std::to_string(d.query_index) +
           ": " + d.detail + "\n";
  }
  for (const auto& d : r.incomplete_queries) {
    out += "incomplete " + d.family + "/" + d.workload + "#" +
           std::to_string(d.query_index) + "\n";
  }
  out += "REPRODUCE: " + sim::FormatReproducer(c);
  return out;
}

// The sweep: every seed covers all four families through sim::RunWorkload
// (uniform mid-cycle tune-ins), clean and lossy channels (theta up to 0.7
// across all three error modes), m = 1..3 reorganized DSI broadcasts, both
// allocation modes, 1 and 2 workers, and the degenerate query shapes. CI
// runs a further 200+ seed matrix via tools/conformance_fuzz.
class ConformanceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConformanceSweep, AllFamiliesMatchOracle) {
  const sim::ConformanceCase c = sim::MakeConformanceCase(GetParam());
  const sim::ConformanceReport r = sim::RunConformanceCase(c);
  EXPECT_TRUE(r.divergences.empty()) << Describe(r, c);
  // At theta <= 0.7 every query must finish within its watchdog budget;
  // aborts here historically meant a client was blocking on lost buckets
  // instead of sweeping. In the extreme-loss band (theta > 0.7) aborts are
  // the channel's fault — only completed-query correctness and the exact
  // incomplete accounting (checked inside the harness) are asserted.
  if (c.theta <= 0.7) {
    EXPECT_EQ(r.incomplete, 0u) << Describe(r, c);
    EXPECT_GT(r.queries_checked, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConformanceSweep,
                         ::testing::Range<uint64_t>(0, 40));

// ---------------------------------------------------------------------------
// Bug 3 (campaign finding): a single-frame DSI broadcast (n <= object
// factor) has an empty index table; under loss the hop selector
// dereferenced entries.front() — assert in Debug, UB in Release. Now the
// client hops to the lone frame itself, next cycle.
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, SingleFrameDsiBroadcastUnderLoss) {
  sim::ConformanceCase c;
  c.seed = 1;
  c.n = 3;
  c.object_factor = 8;  // all objects in one frame -> empty tables
  c.order = 4;
  c.capacity = 64;
  c.theta = 0.3;
  c.error_mode = broadcast::ErrorMode::kPerReadLoss;
  const auto r = sim::RunConformanceCase(c, {"dsi"});
  EXPECT_TRUE(r.divergences.empty()) << Describe(r, c);
  EXPECT_EQ(r.incomplete, 0u);
}

// ---------------------------------------------------------------------------
// Bug 1 (campaign finding): R-tree node reads and the rtree/hci data drains
// blocked a full cycle per lost bucket while every other needed bucket flew
// by; heavy loss turned whole-tree traversals into phantom watchdog aborts
// (and doubled lossy latency). All retrieval paths sweep now.
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, LossyFullUniverseWindowCompletes) {
  const auto u = datasets::UnitUniverse();
  const auto objects = datasets::MakeUniform(300, u, 19);
  const hilbert::SpaceMapper mapper(u, 6);
  const rtree::RtreeIndex rt(objects, 64);
  const air::RtreeHandle rt_handle(rt);
  const hci::HciIndex hc(objects, mapper, 64);
  const air::HciHandle hci_handle(hc);

  // The whole universe as one window, under 60% per-read loss: every
  // object must still be returned, with completed = true.
  const common::Rect everything{u.min_x - 1, u.min_y - 1, u.max_x + 1,
                                u.max_y + 1};
  sim::Workload wl = sim::Workload::Window({everything}, 0.6);
  for (const air::AirIndexHandle* handle :
       {static_cast<const air::AirIndexHandle*>(&rt_handle),
        static_cast<const air::AirIndexHandle*>(&hci_handle)}) {
    std::vector<sim::QueryResult> results;
    sim::RunOptions opt;
    opt.seed = 7;
    opt.results = &results;
    const auto metrics = sim::RunWorkload(*handle, wl, opt);
    ASSERT_EQ(results.size(), 1u) << handle->family();
    EXPECT_TRUE(results[0].completed) << handle->family();
    EXPECT_EQ(metrics.incomplete, 0u) << handle->family();
    EXPECT_EQ(results[0].ids.size(), objects.size()) << handle->family();
  }
}

// ---------------------------------------------------------------------------
// Bug 2 (campaign finding): the exponential-index client armed one watchdog
// budget per *client*, but the spatial adapter issues many 1-D range scans
// per spatial query — slow-but-progressing queries aborted. Each scan now
// gets its own budget, and lost chunk items are swept up later instead of
// stalling the scan.
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, ExpAdapterManyRangeScansUnderLoss) {
  sim::ConformanceCase c;
  c.seed = 47;
  c.n = 257;
  c.order = 8;  // fine grid -> many ranges per circle decomposition
  c.capacity = 128;
  c.object_factor = 7;
  c.chunk_size = 2;
  c.theta = 0.42;
  c.error_mode = broadcast::ErrorMode::kPerReadLoss;
  c.workers = 2;
  c.heap_clients = true;
  c.k = 4;
  const auto r = sim::RunConformanceCase(c, {"expindex"});
  EXPECT_TRUE(r.divergences.empty()) << Describe(r, c);
  EXPECT_EQ(r.incomplete, 0u) << Describe(r, c);
}

// ---------------------------------------------------------------------------
// Bug 4 (campaign finding): the HCI kNN fallback radius (fewer than k
// objects on the curve) and the exponential adapter's growth cap used
// universe-diagonal bounds, which do not cover the universe from a query
// point OUTSIDE it — k >= n queries from outside silently dropped objects.
// Both now use the exact farthest-corner distance.
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, KnnFromFarOutsideWithKGeqN) {
  const auto u = datasets::UnitUniverse();
  const auto objects = datasets::MakeUniform(20, u, 5);
  const hilbert::SpaceMapper mapper(u, 5);
  const hci::HciIndex hc(objects, mapper, 128);
  const air::HciHandle hci_handle(hc);
  const air::ExpHandle exp_handle(objects, mapper, 128);
  const core::DsiIndex dsi(objects, mapper, 128, core::DsiConfig{});
  const air::DsiHandle dsi_handle(dsi);
  const rtree::RtreeIndex rt(objects, 128);
  const air::RtreeHandle rt_handle(rt);

  // Far outside the unit universe; k > n: the answer is every object.
  const common::Point q{u.min_x - 3.0, u.max_y + 2.0};
  for (const air::AirIndexHandle* handle :
       {static_cast<const air::AirIndexHandle*>(&dsi_handle),
        static_cast<const air::AirIndexHandle*>(&rt_handle),
        static_cast<const air::AirIndexHandle*>(&hci_handle),
        static_cast<const air::AirIndexHandle*>(&exp_handle)}) {
    broadcast::ClientSession session(handle->program(), 11,
                                     broadcast::ErrorModel{}, common::Rng(3));
    const auto client = handle->MakeClient(&session);
    const auto result = client->KnnQuery(q, objects.size() + 5);
    std::set<uint32_t> ids;
    for (const auto& o : result) ids.insert(o.id);
    EXPECT_EQ(ids.size(), objects.size()) << handle->family();
  }
}

// ---------------------------------------------------------------------------
// Bug 5 (campaign finding): k = 0 tripped asserts (UB in Release) in three
// of the four families. All must return the empty set.
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, KnnWithZeroK) {
  const auto u = datasets::UnitUniverse();
  const auto objects = datasets::MakeUniform(50, u, 9);
  const hilbert::SpaceMapper mapper(u, 5);
  const core::DsiIndex dsi(objects, mapper, 64, core::DsiConfig{});
  const air::DsiHandle dsi_handle(dsi);
  const rtree::RtreeIndex rt(objects, 64);
  const air::RtreeHandle rt_handle(rt);
  const hci::HciIndex hc(objects, mapper, 64);
  const air::HciHandle hci_handle(hc);
  const air::ExpHandle exp_handle(objects, mapper, 64);

  for (const air::AirIndexHandle* handle :
       {static_cast<const air::AirIndexHandle*>(&dsi_handle),
        static_cast<const air::AirIndexHandle*>(&rt_handle),
        static_cast<const air::AirIndexHandle*>(&hci_handle),
        static_cast<const air::AirIndexHandle*>(&exp_handle)}) {
    broadcast::ClientSession session(handle->program(), 5,
                                     broadcast::ErrorModel{}, common::Rng(1));
    const auto client = handle->MakeClient(&session);
    EXPECT_TRUE(client->KnnQuery(common::Point{0.4, 0.6}, 0).empty())
        << handle->family();
  }
}

// ---------------------------------------------------------------------------
// Bug-6 parity audit (PR 3 fixed the R-tree only): a watchdog-aborted query
// in ANY family must return the objects it already paid to retrieve — a
// partial result flagged completed = false — never a constructed-empty set.
// At theta = 0.98 per-bucket loss every family sees aborts that had
// retrieved data first; the partial must be a subset of the oracle (no
// fabricated members) and at least one abort per family must be non-empty
// (retention, not discarding).
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, AbortedQueriesKeepPartialResultsAllFamilies) {
  const auto u = datasets::UnitUniverse();
  const auto objects = datasets::MakeUniform(40, u, 13);
  const hilbert::SpaceMapper mapper(u, 5);
  const core::DsiIndex dsi(objects, mapper, 64, core::DsiConfig{});
  const air::DsiHandle dsi_handle(dsi);
  const rtree::RtreeIndex rt(objects, 64);
  const air::RtreeHandle rt_handle(rt);
  const hci::HciIndex hc(objects, mapper, 64);
  const air::HciHandle hci_handle(hc);
  const air::ExpHandle exp_handle(objects, mapper, 64);

  const common::Rect everything{u.min_x - 1, u.min_y - 1, u.max_x + 1,
                                u.max_y + 1};
  std::vector<uint32_t> oracle;
  for (const auto& o : objects) oracle.push_back(o.id);
  std::sort(oracle.begin(), oracle.end());

  const sim::Workload wl =
      sim::Workload::Window(std::vector<common::Rect>(4, everything), 0.98,
                            broadcast::ErrorMode::kPerBucketLoss);
  for (const air::AirIndexHandle* handle :
       {static_cast<const air::AirIndexHandle*>(&dsi_handle),
        static_cast<const air::AirIndexHandle*>(&rt_handle),
        static_cast<const air::AirIndexHandle*>(&hci_handle),
        static_cast<const air::AirIndexHandle*>(&exp_handle)}) {
    std::vector<sim::QueryResult> results;
    sim::RunOptions opt;
    opt.seed = 3;
    opt.results = &results;
    const auto metrics = sim::RunWorkload(*handle, wl, opt);
    size_t aborted = 0;
    size_t aborted_nonempty = 0;
    for (const auto& r : results) {
      if (r.completed) continue;
      ++aborted;
      if (!r.ids.empty()) ++aborted_nonempty;
      // Partial, never fabricated: every returned id really is in the
      // window (here: the whole dataset).
      EXPECT_TRUE(std::includes(oracle.begin(), oracle.end(), r.ids.begin(),
                                r.ids.end()))
          << handle->family();
    }
    EXPECT_GT(aborted, 0u) << handle->family();
    EXPECT_GT(aborted_nonempty, 0u)
        << handle->family()
        << ": aborts discarded already-retrieved results (bug-6 class)";
    EXPECT_EQ(metrics.incomplete, aborted) << handle->family();
  }
}

// ---------------------------------------------------------------------------
// Bug 6 (campaign finding) + watchdog surfacing: on a channel that never
// delivers (theta = 1) every
// query must abort AND be visible in the RunWorkload aggregates — never
// silently counted as answered. (R-tree used to discard partial results on
// abort; all families must flag completed = false.)
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, TotalLossSurfacesIncompleteInAggregates) {
  const auto u = datasets::UnitUniverse();
  const auto objects = datasets::MakeUniform(30, u, 13);
  const hilbert::SpaceMapper mapper(u, 5);
  const core::DsiIndex dsi(objects, mapper, 64, core::DsiConfig{});
  const air::DsiHandle dsi_handle(dsi);
  const rtree::RtreeIndex rt(objects, 64);
  const air::RtreeHandle rt_handle(rt);
  const hci::HciIndex hc(objects, mapper, 64);
  const air::HciHandle hci_handle(hc);
  const air::ExpHandle exp_handle(objects, mapper, 64);

  const auto windows = sim::MakeWindowWorkload(2, 0.3, u, 17);
  const sim::Workload wl = sim::Workload::Window(windows, 1.0);
  for (const air::AirIndexHandle* handle :
       {static_cast<const air::AirIndexHandle*>(&dsi_handle),
        static_cast<const air::AirIndexHandle*>(&rt_handle),
        static_cast<const air::AirIndexHandle*>(&hci_handle),
        static_cast<const air::AirIndexHandle*>(&exp_handle)}) {
    std::vector<sim::QueryResult> results;
    sim::RunOptions opt;
    opt.seed = 3;
    opt.results = &results;
    const auto metrics = sim::RunWorkload(*handle, wl, opt);
    EXPECT_EQ(metrics.incomplete, windows.size()) << handle->family();
    for (const auto& r : results) {
      EXPECT_FALSE(r.completed) << handle->family();
    }
  }
}

// ---------------------------------------------------------------------------
// Bug 3 (campaign finding): under correlated (burst) loss a coded session's
// repair listens consumed the very airings a sequential scan was about to
// read; when the repair listens were themselves lost, every lost bucket cost
// a serialized full-cycle wait and full-scan queries watchdog-aborted. The
// session now credits the WHOLE group on a closed decode and fails a read
// instantly when the buffer already knows the occurrence's airing is gone,
// so scans defer losses exactly as they do uncoded.
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, CodedBurstFullScansDoNotBlockPerLoss) {
  {
    sim::ConformanceCase c = sim::MakeConformanceCase(16);
    c.error_mode = broadcast::ErrorMode::kBurstLoss;
    c.theta = 0.5;
    c.code_group = 2;
    c.code_parity = 2;
    // Sweep case 16 draws a multi-disk layout: the code protects its
    // physical airings.
    const auto r = sim::RunConformanceCase(c);
    EXPECT_TRUE(r.divergences.empty()) << Describe(r, c);
    EXPECT_EQ(r.incomplete, 0u) << Describe(r, c);
  }
  {
    sim::ConformanceCase c = sim::MakeConformanceCase(43);
    c.error_mode = broadcast::ErrorMode::kBurstLoss;
    const auto r = sim::RunConformanceCase(c);
    EXPECT_TRUE(r.divergences.empty()) << Describe(r, c);
    EXPECT_EQ(r.incomplete, 0u) << Describe(r, c);
  }
}

// ---------------------------------------------------------------------------
// The coded-broadcast robustness guarantee: at theta = 0.5 per-bucket loss
// a (2, 2) code lets all four families complete every query, with in-place
// repairs cutting the number of cycle LAPS a query needs to well under half
// of the uncoded retry strategy's. (Laps, not absolute bytes: parity padded
// to each group's largest member stretches the coded cycle 2-3x on these
// mixed table/object layouts, so the latency win is measured in cycles of
// the program actually on air — see bench/coded_broadcast for the sweep.)
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, CodedRedundancyBoundsLapsAtThetaHalf) {
  const auto u = datasets::UnitUniverse();
  const auto objects = datasets::MakeUniform(250, u, 31);
  const hilbert::SpaceMapper mapper(u, 6);
  const core::DsiIndex dsi(objects, mapper, 64, core::DsiConfig{});
  const air::DsiHandle dsi_handle(dsi);
  const rtree::RtreeIndex rt(objects, 64);
  const air::RtreeHandle rt_handle(rt);
  const hci::HciIndex hc(objects, mapper, 64);
  const air::HciHandle hci_handle(hc);
  const air::ExpHandle exp_handle(objects, mapper, 64);

  const auto windows = sim::MakeWindowWorkload(12, 0.25, u, 23);
  const sim::Workload wl =
      sim::Workload::Window(windows, 0.5, broadcast::ErrorMode::kPerBucketLoss);
  for (const air::AirIndexHandle* handle :
       {static_cast<const air::AirIndexHandle*>(&dsi_handle),
        static_cast<const air::AirIndexHandle*>(&rt_handle),
        static_cast<const air::AirIndexHandle*>(&hci_handle),
        static_cast<const air::AirIndexHandle*>(&exp_handle)}) {
    sim::RunOptions opt;
    opt.seed = 11;
    const auto uncoded = sim::RunWorkload(*handle, wl, opt);
    opt.coding = broadcast::CodingConfig{2, 2};
    const auto m = sim::RunWorkload(*handle, wl, opt);
    EXPECT_EQ(m.incomplete, 0u) << handle->family();
    EXPECT_GT(m.repaired, 0u) << handle->family();
    const auto coded =
        broadcast::MakeCodedProgram(handle->program(), opt.coding);
    const double coded_laps =
        m.latency_bytes / static_cast<double>(coded.cycle_bytes());
    const double uncoded_laps =
        uncoded.latency_bytes /
        static_cast<double>(handle->program().cycle_bytes());
    EXPECT_LE(coded_laps, 0.65 * uncoded_laps) << handle->family();
  }
}

// ---------------------------------------------------------------------------
// The sweep draws Hilbert orders 2-8 only. Order 9 (a 512 x 512 grid) rides
// on a few sweep cases with everything else unchanged, so the case
// generator's rng stream — and with it every existing seed — stays as it
// is.
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, HilbertOrderNineOnSweepCases) {
  for (const uint64_t seed : {3u, 14u, 27u}) {
    sim::ConformanceCase c = sim::MakeConformanceCase(seed);
    c.order = 9;
    const sim::ConformanceReport r = sim::RunConformanceCase(c);
    EXPECT_TRUE(r.divergences.empty()) << Describe(r, c);
    if (c.theta <= 0.7) {
      EXPECT_EQ(r.incomplete, 0u) << Describe(r, c);
      EXPECT_GT(r.queries_checked, 0u);
    }
  }
}

}  // namespace
}  // namespace dsi
