/// broadcastd — the live broadcast daemon.
///
/// Cycles one index family's broadcast program over a real socket on a
/// real timer: any number of clients (tools/live_client or a
/// transport::StreamTransport embedded elsewhere) connect, receive the
/// build recipe + timetable, and then the bucket stream from their tune-in
/// instant, generation republications and coded-parity interleaves
/// included. SIGINT/SIGTERM trigger a clean final-cycle shutdown: every
/// connection finishes its current cycle, receives a kShutdown frame at
/// the boundary, and the daemon exits 0.
///
/// Usage: broadcastd --listen=tcp:PORT|unix:PATH
///                   [--family=dsi|rtree|hci|expindex] [--n=N] [--seed=S]
///                   [--capacity=B] [--order=O] [--m=M]
///                   [--generations=G] [--updates=U] [--gen-cycles=C]
///                   [--code-group=GRP] [--code-parity=P]
///                   [--pps=PACKETS_PER_SECOND]   (0 = unthrottled)
///
/// Prints the bound endpoint ("listening on tcp:PORT") once serving, so
/// scripts can wait for readiness on stdout. A recipe its clients would
/// reject (wire::RecipeError) is refused with exit 1 before anything is
/// built. So is a value that does not parse whole (sim::ParseFlagValue):
/// --n=abc, --n=12abc and --n=-1 exit 1 with "invalid value for --n: ...".

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "air/family.hpp"
#include "sim/conformance.hpp"
#include "transport/broadcast_daemon.hpp"
#include "wire/framing.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace dsi;
  wire::HelloPayload recipe;
  recipe.seed = 42;
  recipe.num_objects = 500;
  std::string listen;
  double pps = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    using sim::ParseFlagValue;
    bool ok = true;
    if (key == "--listen") {
      listen = value;
    } else if (key == "--family") {
      const std::optional<air::Family> family = air::ParseFamily(value);
      if (!family) {
        std::fprintf(stderr, "unknown family: %s\n", arg.c_str());
        return 1;
      }
      recipe.family = *family;
    } else if (key == "--n") {
      ok = ParseFlagValue(value, &recipe.num_objects);
    } else if (key == "--seed") {
      ok = ParseFlagValue(value, &recipe.seed);
    } else if (key == "--capacity") {
      ok = ParseFlagValue(value, &recipe.packet_capacity);
    } else if (key == "--order") {
      ok = ParseFlagValue(value, &recipe.hilbert_order);
    } else if (key == "--m") {
      ok = ParseFlagValue(value, &recipe.num_segments);
    } else if (key == "--generations") {
      ok = ParseFlagValue(value, &recipe.num_generations);
    } else if (key == "--updates") {
      ok = ParseFlagValue(value, &recipe.updates_per_gen);
    } else if (key == "--gen-cycles") {
      ok = ParseFlagValue(value, &recipe.gen_cycles);
    } else if (key == "--code-group") {
      ok = ParseFlagValue(value, &recipe.coding_group);
    } else if (key == "--code-parity") {
      ok = ParseFlagValue(value, &recipe.coding_parity);
    } else if (key == "--pps") {
      ok = ParseFlagValue(value, &pps);
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
  if (listen.empty()) {
    std::fprintf(stderr,
                 "broadcastd: --listen=tcp:PORT or --listen=unix:PATH is "
                 "required\n");
    return 1;
  }
  // The clients' own hello check, applied before anything is built.
  const std::string recipe_error = wire::RecipeError(recipe);
  if (!recipe_error.empty()) {
    std::fprintf(stderr, "broadcastd: invalid recipe: %s\n",
                 recipe_error.c_str());
    return 1;
  }

  transport::BroadcastDaemon daemon(recipe, pps);
  std::string error;
  if (!daemon.Listen(listen, &error)) {
    std::fprintf(stderr, "broadcastd: %s\n", error.c_str());
    return 1;
  }

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  daemon.Start();

  const transport::Endpoint& ep = daemon.endpoint();
  if (ep.kind == transport::Endpoint::Kind::kTcp) {
    std::printf("listening on tcp:%u\n", static_cast<unsigned>(ep.port));
  } else {
    std::printf("listening on unix:%s\n", ep.path.c_str());
  }
  std::printf("family=%u n=%u seed=%llu generations=%u coding=%u+%u pps=%g\n",
              static_cast<unsigned>(recipe.family), recipe.num_objects,
              static_cast<unsigned long long>(recipe.seed),
              recipe.num_generations, recipe.coding_group,
              recipe.coding_parity, pps);
  std::fflush(stdout);

  // Serve until a stop signal; pause() returns on any signal delivery.
  while (g_stop == 0) {
    ::pause();
  }
  std::printf("broadcastd: stop signal — finishing the current cycle\n");
  std::fflush(stdout);
  daemon.Stop();
  return 0;
}
