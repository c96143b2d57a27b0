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
/// built.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "air/family.hpp"
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
    if (arg.rfind("--listen=", 0) == 0) {
      listen = arg.substr(9);
    } else if (arg.rfind("--family=", 0) == 0) {
      const std::optional<air::Family> family = air::ParseFamily(arg.substr(9));
      if (!family) {
        std::fprintf(stderr, "unknown family: %s\n", arg.c_str());
        return 1;
      }
      recipe.family = *family;
    } else if (arg.rfind("--n=", 0) == 0) {
      recipe.num_objects = static_cast<uint32_t>(std::stoul(arg.substr(4)));
    } else if (arg.rfind("--seed=", 0) == 0) {
      recipe.seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--capacity=", 0) == 0) {
      recipe.packet_capacity = static_cast<uint32_t>(std::stoul(arg.substr(11)));
    } else if (arg.rfind("--order=", 0) == 0) {
      recipe.hilbert_order = static_cast<uint32_t>(std::stoul(arg.substr(8)));
    } else if (arg.rfind("--m=", 0) == 0) {
      recipe.num_segments = static_cast<uint32_t>(std::stoul(arg.substr(4)));
    } else if (arg.rfind("--generations=", 0) == 0) {
      recipe.num_generations = static_cast<uint32_t>(std::stoul(arg.substr(14)));
    } else if (arg.rfind("--updates=", 0) == 0) {
      recipe.updates_per_gen = static_cast<uint32_t>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--gen-cycles=", 0) == 0) {
      recipe.gen_cycles = std::stoull(arg.substr(13));
    } else if (arg.rfind("--code-group=", 0) == 0) {
      recipe.coding_group = static_cast<uint32_t>(std::stoul(arg.substr(13)));
    } else if (arg.rfind("--code-parity=", 0) == 0) {
      recipe.coding_parity = static_cast<uint32_t>(std::stoul(arg.substr(14)));
    } else if (arg.rfind("--pps=", 0) == 0) {
      pps = std::stod(arg.substr(6));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
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
