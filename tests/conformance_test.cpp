/// CI entry point of the differential conformance harness (see
/// src/sim/conformance.hpp): a seed sweep through the real engine for all
/// four families, plus one named regression test per bug the fuzz campaign
/// flushed out. Each regression test reproduces the exact shape that used
/// to fail; keep them even if the sweep would cover the shape by chance.

#include "sim/conformance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "datasets/datasets.hpp"
#include "dsi/client.hpp"
#include "dsi/index.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "test_families.hpp"

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
// across every error mode), m = 1..3 reorganized DSI broadcasts, 1 and 2
// workers, and the degenerate query shapes. CI runs a further 200+ seed
// matrix via tools/conformance_fuzz.
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
    EXPECT_EQ(r.incomplete_queries.size(), 0u) << Describe(r, c);
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
  EXPECT_EQ(r.incomplete_queries.size(), 0u);
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
  const test::Families fam(objects, /*m=*/1, /*capacity=*/64, /*order=*/6);

  // The whole universe as one window, under 60% per-read loss: every
  // object must still be returned, with completed = true.
  const common::Rect everything{u.min_x - 1, u.min_y - 1, u.max_x + 1,
                                u.max_y + 1};
  sim::Workload wl = sim::Workload::Window({everything}, 0.6);
  for (const air::Family family : {air::Family::kRtree, air::Family::kHci}) {
    const air::AirIndexHandle* handle = &fam.handle(family);
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
  c.k = 4;
  const auto r = sim::RunConformanceCase(c, {"expindex"});
  EXPECT_TRUE(r.divergences.empty()) << Describe(r, c);
  EXPECT_EQ(r.incomplete_queries.size(), 0u) << Describe(r, c);
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
  const test::Families fam(objects, /*m=*/1, /*capacity=*/128, /*order=*/5);

  // Far outside the unit universe; k > n: the answer is every object.
  const common::Point q{u.min_x - 3.0, u.max_y + 2.0};
  for (const air::AirIndexHandle* handle : fam.handles()) {
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
  const test::Families fam(objects, /*m=*/1, /*capacity=*/64, /*order=*/5);

  for (const air::AirIndexHandle* handle : fam.handles()) {
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
  const test::Families fam(objects, /*m=*/1, /*capacity=*/64, /*order=*/5);

  const common::Rect everything{u.min_x - 1, u.min_y - 1, u.max_x + 1,
                                u.max_y + 1};
  std::vector<uint32_t> oracle;
  for (const auto& o : objects) oracle.push_back(o.id);
  std::sort(oracle.begin(), oracle.end());

  const sim::Workload wl =
      sim::Workload::Window(std::vector<common::Rect>(4, everything), 0.98,
                            broadcast::ErrorMode::kPerBucketLoss);
  for (const air::AirIndexHandle* handle : fam.handles()) {
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
// abort; all families must flag completed = false.) The aborts also pin
// each family's watchdog budget and where it is armed.
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, TotalLossSurfacesIncompleteInAggregates) {
  const auto u = datasets::UnitUniverse();
  const auto objects = datasets::MakeUniform(30, u, 13);
  const test::Families fam(objects, /*m=*/1, /*capacity=*/64, /*order=*/5);

  const auto windows = sim::MakeWindowWorkload(2, 0.3, u, 17);
  const sim::Workload wl = sim::Workload::Window(windows, 1.0);
  // Every aborted query burns exactly its family's watchdog budget (plus
  // the read that crossed the deadline), so total loss pins each budget's
  // size and arm point to the byte: DSI 200 cycles x disks per search,
  // R-tree and HCI 400 cycles per query, the exponential index 200 cycles
  // per range scan. Rows: flat cycle, then a 2-disk cycle; one entry per
  // query.
  const uint64_t kPinnedLatency[4][2][2] = {
      {{6515776, 6516160}, {17391808, 17385216}},    // dsi
      {{16104448, 16103744}, {21684288, 21683264}},  // rtree
      {{13312576, 13314176}, {17894848, 17906688}},  // hci
      {{6515776, 6516160}, {8691904, 8691840}},      // expindex
  };
  const std::vector<const air::AirIndexHandle*> handles = fam.handles();
  for (size_t f = 0; f < 4; ++f) {
    const air::AirIndexHandle* handle = handles[f];
    for (const uint32_t disks : {1u, 2u}) {
      std::vector<sim::QueryResult> results;
      sim::RunOptions opt;
      opt.seed = 3;
      opt.results = &results;
      opt.disks = broadcast::DiskConfig{disks, 1.2, 8, 5};
      const auto metrics = sim::RunWorkload(*handle, wl, opt);
      EXPECT_EQ(metrics.incomplete, windows.size()) << handle->family();
      ASSERT_EQ(results.size(), windows.size());
      for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].completed) << handle->family();
        EXPECT_EQ(results[i].latency_bytes, kPinnedLatency[f][disks - 1][i])
            << handle->family() << " disks " << disks << " query " << i;
      }
    }
  }

  // A continuous client re-arms the budget for every query: the second
  // query burns one full budget again instead of aborting on the first
  // query's spent deadline. Pins the arm points (BeginQuery for R-tree and
  // HCI, each search for DSI, each range scan for the exponential index).
  const uint64_t kBudgetCycles[4] = {200, 400, 400, 200};
  const uint64_t kPinnedContinuous[4][2] = {
      {6515264, 6515200},    // dsi
      {16102528, 16102400},  // rtree
      {13314112, 13312000},  // hci
      {6515200, 6515200},    // expindex
  };
  for (size_t f = 0; f < 4; ++f) {
    const air::AirIndexHandle* handle = handles[f];
    const broadcast::BroadcastProgram& program = handle->program();
    broadcast::ClientSession session(program, program.cycle_packets() / 3,
                                     broadcast::ErrorModel{1.0},
                                     common::Rng(11));
    const auto client = handle->MakeContinuousClient(&session);
    const uint64_t cycle_bytes =
        program.cycle_packets() * program.packet_capacity();
    const uint64_t budget_bytes = kBudgetCycles[f] * cycle_bytes;
    for (size_t q = 0; q < windows.size(); ++q) {
      const uint64_t before = session.metrics().access_latency_bytes;
      client->BeginQuery();
      (void)client->WindowQuery(windows[q]);
      EXPECT_FALSE(client->stats().completed) << handle->family();
      const uint64_t spent = session.metrics().access_latency_bytes - before;
      EXPECT_GE(spent, budget_bytes) << handle->family() << " query " << q;
      EXPECT_LT(spent, budget_bytes + cycle_bytes)
          << handle->family() << " query " << q;
      EXPECT_EQ(spent, kPinnedContinuous[f][q])
          << handle->family() << " query " << q;
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
    EXPECT_EQ(r.incomplete_queries.size(), 0u) << Describe(r, c);
  }
  {
    sim::ConformanceCase c = sim::MakeConformanceCase(43);
    c.error_mode = broadcast::ErrorMode::kBurstLoss;
    const auto r = sim::RunConformanceCase(c);
    EXPECT_TRUE(r.divergences.empty()) << Describe(r, c);
    EXPECT_EQ(r.incomplete_queries.size(), 0u) << Describe(r, c);
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
  const test::Families fam(objects, /*m=*/1, /*capacity=*/64, /*order=*/6);

  const auto windows = sim::MakeWindowWorkload(12, 0.25, u, 23);
  const sim::Workload wl =
      sim::Workload::Window(windows, 0.5, broadcast::ErrorMode::kPerBucketLoss);
  for (const air::AirIndexHandle* handle : fam.handles()) {
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
      EXPECT_EQ(r.incomplete_queries.size(), 0u) << Describe(r, c);
      EXPECT_GT(r.queries_checked, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// The DSI kNN radius keeps only the bounds below it in its sorted live
// vector and parks the rest; when a frame whose first object arrived but
// whose others were lost finally completes, its advert retires and the
// radius can grow past parked bounds, which must then be promoted. That
// branch needs loss on multi-object frames, so the sweep rarely reaches it:
// this case does (bounds_promoted > 0), and every answer must still match
// brute force.
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, DsiKnnPromotesParkedBoundsUnderLoss) {
  const auto u = datasets::UnitUniverse();
  const auto objects = datasets::MakeUniform(236, u, 5);
  const hilbert::SpaceMapper mapper(u, 8);
  core::DsiConfig cfg;
  cfg.num_segments = 3;
  cfg.object_factor = 2;
  const core::DsiIndex dsi(objects, mapper, 64, cfg);
  constexpr size_t kK = 4;
  common::Rng rng(3);
  uint64_t promoted = 0;
  for (int t = 0; t < 32; ++t) {
    const common::Point q{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    broadcast::ClientSession session(
        dsi.program(), static_cast<uint64_t>(rng.UniformInt(0, 1 << 20)),
        broadcast::ErrorModel{0.7, broadcast::ErrorMode::kPerBucketLoss},
        common::Rng(t + 1));
    core::DsiClient client(dsi, &session);
    const auto result = client.KnnQuery(q, kK);
    promoted += client.bounds_promoted();
    ASSERT_TRUE(client.stats().completed) << "query " << t;

    std::vector<double> got;
    std::vector<double> want;
    for (const auto& o : result) got.push_back(common::Distance(q, o.location));
    for (const auto& o : objects) {
      want.push_back(common::Distance(q, o.location));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    want.resize(kK);
    EXPECT_EQ(got, want) << "query " << t;
  }
  EXPECT_GT(promoted, 0u);
}

// ---------------------------------------------------------------------------
// Equidistant kNN answers come back in ascending id on every family. Four
// objects at exactly the same distance from q sit in four Hilbert cells and
// four R-tree leaf slots; every one of the 24 ways to give them the ids
// 0..3 is tried, so an answer ordered among ties by any rank — Hilbert, STR
// or retrieval order — comes back out of id order for some of them.
// ---------------------------------------------------------------------------
TEST(ConformanceRegression, KnnTiesComeBackInIdOrder) {
  const common::Point sites[] = {{0.25, 0.5}, {0.75, 0.5}, {0.5, 0.25},
                                 {0.5, 0.75}};
  const common::Point q{0.5, 0.5};
  std::vector<uint32_t> perm = {0, 1, 2, 3};
  do {
    std::vector<datasets::SpatialObject> objects = {
        {4, {0.05, 0.05}}, {5, {0.95, 0.95}}};
    for (size_t i = 0; i < 4; ++i) objects.push_back({perm[i], sites[i]});
    const test::Families fam(objects, /*m=*/1, /*capacity=*/64,
                             /*order=*/6);
    for (const air::AirIndexHandle* handle : fam.handles()) {
      broadcast::ClientSession session(handle->program(), 7,
                                       broadcast::ErrorModel{},
                                       common::Rng(2));
      const auto client = handle->MakeClient(&session);
      std::vector<uint32_t> ids;
      for (const auto& o : client->KnnQuery(q, 4)) ids.push_back(o.id);
      EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 2, 3}))
          << handle->family() << " with site ids " << perm[0] << perm[1]
          << perm[2] << perm[3];
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
}

// ---------------------------------------------------------------------------
// A reproducer line is the flag table printed, so parsing it back through
// SetCaseFlag must give the very case it printed: for the sweep's cases and
// for one case with every field off its default (a field the table loses
// comes back as its default and fails here).
// ---------------------------------------------------------------------------
sim::ConformanceCase ParseReproducer(const std::string& line) {
  std::istringstream in(line);
  std::string token;
  in >> token;
  EXPECT_EQ(token, "conformance_fuzz");
  in >> token;
  EXPECT_EQ(token, "--repro");
  sim::ConformanceCase c;
  while (in >> token) {
    const size_t eq = token.find('=');
    EXPECT_EQ(sim::SetCaseFlag(token.substr(0, eq), token.substr(eq + 1), &c),
              sim::CaseFlag::kSet)
        << token;
  }
  return c;
}

TEST(ConformanceFlags, ReproducerParsesBackToItsCase) {
  std::vector<sim::ConformanceCase> cases;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    cases.push_back(sim::MakeConformanceCase(seed));
  }
  sim::ConformanceCase off;  // every field off its default
  off.seed = 991;
  off.n = 333;
  off.order = 9;
  off.capacity = 257;
  off.clustered = true;
  off.m = 3;
  off.object_factor = 0;
  off.chunk_size = 4;
  off.theta = 0.1 + 0.2;  // needs all 17 digits to round-trip
  off.error_mode = broadcast::ErrorMode::kBurstLoss;
  off.workers = 3;
  off.window_queries = 0;
  off.knn_points = 5;
  off.k = 11;
  off.duplicates = true;
  off.generations = 4;
  off.updates_per_gen = 9;
  off.gen_cycles = 5;
  off.code_group = 3;
  off.code_parity = 2;
  off.trajectory_clients = 6;
  off.trajectory_steps = 1;
  off.churn_rate = 1.0 / 3.0;
  off.num_disks = 3;
  off.disk_skew = 1.0 / 7.0;
  off.degenerate = false;
  cases.push_back(off);
  for (const sim::ConformanceCase& c : cases) {
    const std::string line = sim::FormatReproducer(c);
    EXPECT_TRUE(ParseReproducer(line) == c) << line;
  }
}

TEST(ConformanceFlags, ValuesParseWholeOrNotAtAll) {
  sim::ConformanceCase c;
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"--theta", "abc"},
           {"--theta", "0.5x"},
           {"--theta", "nan"},
           {"--n", "-3"},
           {"--n", ""},
           {"--m", "4294967296"},
           {"--clustered", "2"},
           {"--error-mode", "bogus"}}) {
    EXPECT_EQ(sim::SetCaseFlag(flag, value, &c), sim::CaseFlag::kBadValue)
        << flag << "=" << value;
  }
  EXPECT_TRUE(c == sim::ConformanceCase{});  // nothing half-set
  EXPECT_EQ(sim::SetCaseFlag("--nope", "1", &c), sim::CaseFlag::kUnknown);
  EXPECT_EQ(sim::SetCaseFlag("--clients", "4", &c), sim::CaseFlag::kSet);
  EXPECT_EQ(c.trajectory_clients, 4u);
  EXPECT_EQ(sim::SetCaseFlag("--error-mode", "burst", &c),
            sim::CaseFlag::kSet);
  EXPECT_EQ(c.error_mode, broadcast::ErrorMode::kBurstLoss);
}

// Sweep mode pins every case flag it is given, not only the axes the CI
// sweeps use: --m=3 reaches every swept case, whose other fields stay
// seed-determined.
TEST(ConformanceFlags, SweepPinsAnyCaseFlag) {
  sim::SweepPins pins;
  pins.flags = {{"--m", "3"}};
  for (uint64_t seed = 0; seed < 200; ++seed) {
    sim::ConformanceCase want = sim::MakeConformanceCase(seed);
    want.m = 3;
    EXPECT_TRUE(pins.CaseFor(seed) == want) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dsi
