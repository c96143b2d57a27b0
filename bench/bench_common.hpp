#pragma once

/// \file bench_common.hpp
/// \brief Shared setup for the figure/table reproduction binaries: dataset
/// construction, family broadcasts, and command-line knobs.
///
/// Every bench accepts:
///   --queries=N   queries per data point (default 80)
///   --objects=N   dataset cardinality (default 10000, the paper's UNIFORM)
///   --seed=S      dataset and workload seed (default 42)
///   --real        use the REAL-substitute dataset (5848 clustered points)
/// A value must parse whole: --queries=abc exits 2.
/// Metrics are printed in the paper's units: bytes (scaled per column).

#include <array>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "air/family.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/conformance.hpp"
#include "sim/runner.hpp"
#include "sim/table.hpp"
#include "sim/workload.hpp"

namespace dsi::bench {

struct Options {
  size_t queries = 80;
  size_t objects = 10000;
  bool real = false;
  uint64_t seed = 42;
};

/// If \p arg is `NAME=VALUE` for \p name, parses VALUE into \p out with the
/// strict flag parser (sim::ParseFlagValue); a bad value exits 2.
template <class T>
void ParseFlag(std::string_view arg, const char* name, T* out) {
  const std::string prefix = std::string(name) + "=";
  if (!arg.starts_with(prefix)) return;
  const std::string value(arg.substr(prefix.size()));
  if (sim::ParseFlagValue(value, out)) return;
  std::fprintf(stderr, "invalid value for %s: '%s'\n", name, value.c_str());
  std::exit(2);
}

/// The common flags over \p opt's defaults; other arguments are left to the
/// bench's own ParseFlag calls.
inline Options ParseOptions(int argc, char** argv, Options opt = {}) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--real") opt.real = true;
    ParseFlag(arg, "--queries", &opt.queries);
    ParseFlag(arg, "--objects", &opt.objects);
    ParseFlag(arg, "--seed", &opt.seed);
  }
  return opt;
}

inline std::vector<datasets::SpatialObject> MakeDataset(const Options& opt) {
  return opt.real ? datasets::MakeRealLike()
                  : datasets::MakeUniform(opt.objects,
                                          datasets::UnitUniverse(), opt.seed);
}

/// Curve order sized to the dataset (the paper scales curve order with
/// density).
inline int OrderFor(const Options& opt) {
  return hilbert::ChooseOrder(opt.real ? 5848 : opt.objects);
}

inline core::DsiConfig DsiReorganized() { return {.num_segments = 2}; }

inline core::DsiConfig DsiOriginal() { return core::DsiConfig{}; }

/// The packet capacities of the evaluation; the R-tree cannot be built
/// below air::MinPacketCapacity(Family::kRtree), so not at 32.
inline const std::vector<size_t>& Capacities() {
  static const std::vector<size_t> caps{32, 64, 128, 256, 512};
  return caps;
}

/// The name a table prints for \p family: "DSI", "Rtree", "HCI" or "Exp".
inline const char* Label(air::Family family) {
  static constexpr const char* kLabels[] = {"DSI", "Rtree", "HCI", "Exp"};
  return kLabels[static_cast<size_t>(family)];
}

/// \p family's static broadcast of \p objects (one generation), built the
/// way every family broadcast is. DSI defaults to the paper's reorganized
/// broadcast. Read it through handle(0).
inline air::FamilyBroadcast Broadcast(
    air::Family family, const std::vector<datasets::SpatialObject>& objects,
    const hilbert::SpaceMapper& mapper, size_t capacity,
    const core::DsiConfig& dsi = DsiReorganized()) {
  return air::FamilyBroadcast(family, air::Generations{{objects}, {}},
                              mapper, capacity, dsi);
}

/// The families of the paper's comparison figures, in column order.
inline constexpr air::Family kCompared[] = {
    air::Family::kDsi, air::Family::kRtree, air::Family::kHci};

/// One entry per kCompared family, empty where the family cannot build at
/// the capacity.
template <class T>
using PerCompared = std::array<std::optional<T>, std::size(kCompared)>;

inline PerCompared<air::FamilyBroadcast> ComparedBroadcasts(
    const std::vector<datasets::SpatialObject>& objects,
    const hilbert::SpaceMapper& mapper, size_t capacity) {
  PerCompared<air::FamilyBroadcast> out;
  for (size_t f = 0; f < out.size(); ++f) {
    if (capacity < air::MinPacketCapacity(kCompared[f])) continue;
    out[f].emplace(Broadcast(kCompared[f], objects, mapper, capacity));
  }
  return out;
}

inline PerCompared<sim::AvgMetrics> RunCompared(
    const PerCompared<air::FamilyBroadcast>& broadcasts,
    const sim::Workload& workload, const sim::RunOptions& options) {
  PerCompared<sim::AvgMetrics> out;
  for (size_t f = 0; f < out.size(); ++f) {
    if (!broadcasts[f]) continue;
    out[f] = sim::RunWorkload(broadcasts[f]->handle(0), workload, options);
  }
  return out;
}

/// One row of Lat(DSI, Rtree, HCI) then Tun(...) in bytes x10^3; "n/a" for
/// a family not built.
template <class X>
void PrintCompared(const sim::TablePrinter& t, const X& x,
                   const PerCompared<sim::AvgMetrics>& m) {
  const auto cell = [&](size_t f, double sim::AvgMetrics::*metric) {
    if (!m[f]) return std::string("n/a");
    std::ostringstream s;
    s << std::fixed << std::setprecision(1) << (*m[f]).*metric / 1e3;
    return s.str();
  };
  constexpr auto kLat = &sim::AvgMetrics::latency_bytes;
  constexpr auto kTun = &sim::AvgMetrics::tuning_bytes;
  t.PrintRow(x, cell(0, kLat), cell(1, kLat), cell(2, kLat), cell(0, kTun),
             cell(1, kTun), cell(2, kTun));
}

/// Run options for bench data points: seeded, sharded over all cores
/// (results are bit-identical for any worker count).
inline sim::RunOptions Par(uint64_t seed) {
  return sim::RunOptions{seed, /*workers=*/0};
}

}  // namespace dsi::bench
