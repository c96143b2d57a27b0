/// Ablation: the two classic index-allocation schemes of Imielinski et
/// al. [9] for the tree baselines — (1, m) (whole index replicated m
/// times) vs. distributed indexing (path replication only). The paper's
/// Section 2.2 recounts that "the distributed index scheme is more
/// efficient than (1, m) in terms of access latency" because the m
/// duplicated index segments stretch the broadcast cycle; this bench
/// verifies that on our substrate for both R-tree and HCI.

#include <iostream>

#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "bench_common.hpp"

// Hand-built indexes: air::FamilyBroadcast takes no tree-layout parameters.

int main(int argc, char** argv) {
  using namespace dsi;
  const bench::Options opt = bench::ParseOptions(argc, argv);
  const auto objects = bench::MakeDataset(opt);
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(),
                                    bench::OrderFor(opt));
  constexpr size_t kCapacity = 64;
  const auto windows = sim::MakeWindowWorkload(
      opt.queries, 0.1, datasets::UnitUniverse(), opt.seed + 1);

  std::cout << "Ablation: (1,m) vs. distributed index allocation "
            << "(capacity=64B, " << objects.size() << " objects, window "
            << "ratio 0.1)\n\n";
  std::cout << "Latency/tuning in bytes x10^3; cycle in bytes x10^6:\n";
  sim::TablePrinter t({"Layout", "Cycle", "Lat(Rtree)", "Tun(Rtree)",
                       "Lat(HCI)", "Tun(HCI)"});
  t.PrintHeader();

  struct Case {
    const char* name;
    broadcast::TreeLayout layout;
    uint32_t param;
  };
  const Case cases[] = {
      {"(1,1)", broadcast::TreeLayout::kOneM, 1},
      {"(1,4)", broadcast::TreeLayout::kOneM, 4},
      {"(1,16)", broadcast::TreeLayout::kOneM, 16},
      {"distributed", broadcast::TreeLayout::kDistributed, 16},
  };
  const auto workload = sim::Workload::Window(windows);
  for (const Case& c : cases) {
    const rtree::RtreeIndex rt(objects, kCapacity, c.param, c.layout);
    const hci::HciIndex hci(objects, mapper, kCapacity, c.param, c.layout);
    const auto mr = sim::RunWorkload(air::RtreeHandle(rt), workload,
                                     bench::Par(opt.seed + 2));
    const auto mh = sim::RunWorkload(air::HciHandle(hci), workload,
                                     bench::Par(opt.seed + 2));
    t.PrintRow(c.name, rt.program().cycle_bytes() / 1e6,
               mr.latency_bytes / 1e3, mr.tuning_bytes / 1e3,
               mh.latency_bytes / 1e3, mh.tuning_bytes / 1e3);
  }
  std::cout << "\nExpected: (1,m) with large m pays for the duplicated "
               "index with a longer cycle (higher latency); distributed "
               "indexing gets frequent index access points at a fraction "
               "of the replication cost, matching the classic result the "
               "paper builds on.\n";
  return 0;
}
