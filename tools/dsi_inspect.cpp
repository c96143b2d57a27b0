/// dsi_inspect — command-line inspector for DSI broadcast programs.
///
/// Builds a broadcast for a synthetic dataset and prints the program
/// anatomy: cycle composition, index overhead, table layout (with a real
/// serialized example via the wire codecs), and the reorganization
/// schedule. Useful to sanity-check configurations before running
/// experiments.
///
/// Usage: dsi_inspect [--objects=N] [--capacity=B] [--segments=M]
///                    [--object-factor=NO] [--base=R] [--real]
///
/// Every value must parse whole (sim::ParseFlagValue): --objects=abc exits
/// 1 with "invalid value for --objects: 'abc'".

#include <cstdio>
#include <cstring>
#include <string>

#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "dsi/layout.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/conformance.hpp"
#include "wire/codecs.hpp"

int main(int argc, char** argv) {
  using namespace dsi;
  size_t objects_n = 10000;
  size_t capacity = 64;
  core::DsiConfig config;
  config.num_segments = 2;
  bool real = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    using sim::ParseFlagValue;
    bool ok = true;
    if (key == "--objects") {
      ok = ParseFlagValue(value, &objects_n);
    } else if (key == "--capacity") {
      ok = ParseFlagValue(value, &capacity);
    } else if (key == "--segments") {
      ok = ParseFlagValue(value, &config.num_segments);
    } else if (key == "--object-factor") {
      ok = ParseFlagValue(value, &config.object_factor);
    } else if (key == "--base") {
      ok = ParseFlagValue(value, &config.index_base);
    } else if (arg == "--real") {
      real = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value for %s: '%s'\n", key.c_str(),
                   value.c_str());
      return 1;
    }
  }

  const auto objects = real ? datasets::MakeRealLike()
                            : datasets::MakeUniform(
                                  objects_n, datasets::UnitUniverse(), 42);
  const int order = hilbert::ChooseOrder(objects.size());
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), order);
  const core::DsiIndex index(objects, mapper, capacity, config);
  const auto& prog = index.program();

  std::printf("DSI broadcast inspection\n");
  std::printf("  dataset            %zu objects (%s)\n", objects.size(),
              real ? "REAL-like" : "UNIFORM");
  std::printf("  Hilbert order      %d (%lu x %lu cells)\n", order,
              mapper.curve().side(), mapper.curve().side());
  std::printf("  packet capacity    %zu B\n", capacity);
  std::printf("  index base r       %u\n", index.config().index_base);
  std::printf("  segments m         %u\n", index.config().num_segments);
  std::printf("  object factor      %u\n", index.object_factor());
  std::printf("  frames             %u\n", index.num_frames());
  std::printf("  entries per table  %u\n", index.entries_per_table());
  std::printf("  table size         %u B (%lu packet(s), HC field %u B)\n",
              index.table_bytes(),
              (index.table_bytes() + capacity - 1) / capacity,
              index.table_hc_bytes());

  const uint64_t index_bytes =
      static_cast<uint64_t>(index.num_frames()) * index.table_bytes();
  const uint64_t data_bytes =
      static_cast<uint64_t>(objects.size()) * common::kDataObjectBytes;
  std::printf("  cycle              %lu packets = %.2f MB (%zu buckets)\n",
              prog.cycle_packets(), prog.cycle_bytes() / 1e6,
              prog.num_buckets());
  std::printf("  index overhead     %.2f%% of payload (%.1f KiB vs %.1f "
              "KiB data)\n",
              100.0 * static_cast<double>(index_bytes) /
                  static_cast<double>(data_bytes),
              index_bytes / 1024.0, data_bytes / 1024.0);

  // Reorganization schedule summary.
  const core::ReorgLayout layout(index.num_frames(),
                                 index.config().num_segments);
  std::printf("  schedule           ");
  for (uint32_t s = 0; s < layout.m; ++s) {
    std::printf("seg%u: %u frames (head HC %lu)%s", s,
                layout.SegmentLength(s), index.segment_head_hcs()[s],
                s + 1 < layout.m ? ", " : "\n");
  }

  // One serialized table, exactly as it would go on air.
  const core::DsiTableView table = index.TableAt(0);
  const auto bytes = wire::EncodeDsiTable(table, index.segment_head_hcs(),
                                          index.table_hc_bytes());
  std::printf("\n  table@position 0 (own HC %lu), %zu bytes on air:\n",
              table.own_hc_min, bytes.size());
  for (size_t i = 0; i < table.entries.size(); ++i) {
    std::printf("    entry %2zu: +%-6u -> position %-6u HC' %lu\n", i,
                (table.entries[i].position + index.num_frames() -
                 table.position) %
                    index.num_frames(),
                table.entries[i].position, table.entries[i].hc_min);
  }
  return 0;
}
