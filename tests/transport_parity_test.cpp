// Sim/Stream transport parity: a ClientSession driven through a real
// socket (StreamTransport <- BroadcastDaemon over loopback) must produce
// results AND byte metrics bit-identical to the same session driven
// through SimTransport over the same hello and tune-in. This is the
// load-bearing invariant of the transport split — the paper's byte
// metrics may not depend on which substrate carries the packets.
//
// Also pinned here: the degenerate channel paths (mid-cycle join, empty
// program, generation switch while the radio is off), a unix listener
// that accepts as soon as its path exists, the protocol-version
// rejection, frame reassembly from dribbled and torn streams, the paced
// daemon's air-time discipline, the daemon's clean final-cycle shutdown
// semantics, the reaping of finished connections, the parity planes
// against a bit-serial GF(2^8) reference, and every generation's live
// bucket content decoded back to that generation's own index.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "air/air_index.hpp"
#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "broadcast/client.hpp"
#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "sim/runner.hpp"
#include "transport/broadcast_daemon.hpp"
#include "transport/live_source.hpp"
#include "transport/socket.hpp"
#include "transport/stream_transport.hpp"
#include "transport/transport.hpp"
#include "wire/codecs.hpp"
#include "wire/framing.hpp"

namespace dsi {
namespace {

struct Outcome {
  std::vector<uint32_t> ids;
  uint64_t latency_bytes = 0;
  uint64_t tuning_bytes = 0;
  uint64_t final_generation = 0;
  bool completed = true;

  bool operator==(const Outcome&) const = default;
};

/// One window + one kNN query on a single continuous session over
/// \p channel — the exact sequence both substrates replay.
Outcome RunPair(const transport::LiveSource& source,
                transport::Transport& channel, uint64_t tune_in, double theta,
                uint64_t seed) {
  broadcast::ClientSession session(
      channel, tune_in,
      broadcast::ErrorModel{theta, broadcast::ErrorMode::kPerReadLoss},
      common::Rng(seed));
  session.InitialProbe();

  common::Rng qrng(seed * 0x9E37 + 0xA11CE);
  const common::Rect u = datasets::UnitUniverse();
  const common::Point center{qrng.Uniform(u.min_x, u.max_x),
                             qrng.Uniform(u.min_y, u.max_y)};
  const common::Rect window =
      common::MakeClippedWindow(center, 0.25 * u.Width(), u);
  const common::Point q{qrng.Uniform(u.min_x, u.max_x),
                        qrng.Uniform(u.min_y, u.max_y)};

  Outcome out;
  sim::detail::WarmClient warm;
  for (int which = 0; which < 2; ++which) {
    const sim::detail::ClientAnswer a = sim::detail::RunWarmClient(
        source.handles(), session, &warm, [&](air::AirClient& client) {
          return which == 0 ? client.WindowQuery(window)
                            : client.KnnQuery(q, 4);
        });
    for (const auto& obj : a.answer) out.ids.push_back(obj.id);
    out.completed = out.completed && a.completed;
  }
  std::sort(out.ids.begin(), out.ids.end());
  const broadcast::Metrics m = session.metrics();
  out.latency_bytes = m.access_latency_bytes;
  out.tuning_bytes = m.tuning_bytes;
  out.final_generation = session.generation();
  return out;
}

wire::HelloPayload MakeRecipe(wire::FamilyId family, uint32_t n,
                              uint32_t generations, uint32_t updates,
                              uint32_t group, uint32_t parity) {
  wire::HelloPayload recipe;
  recipe.family = family;
  recipe.seed = 1234;
  recipe.num_objects = n;
  recipe.packet_capacity = 64;
  recipe.hilbert_order = 6;
  recipe.num_segments = 2;
  recipe.num_generations = generations;
  recipe.updates_per_gen = updates;
  recipe.gen_cycles = 2;
  recipe.coding_group = group;
  recipe.coding_parity = parity;
  return recipe;
}

/// Serves one connection at exactly \p tune_in_want (fresh daemon per call
/// so the unthrottled stream of a previous connection cannot push the air
/// position past the intended join instant) and asserts the live run is
/// bit-identical to its simulator replay. Returns the live outcome.
Outcome CheckParityAt(const wire::HelloPayload& recipe, uint64_t tune_in_want,
                      double theta, uint64_t seed) {
  transport::BroadcastDaemon daemon(recipe, /*packets_per_second=*/0.0);
  std::string error;
  EXPECT_TRUE(daemon.Listen("tcp:0", &error)) << error;
  daemon.Start();
  daemon.AdvanceAirTo(tune_in_want);

  transport::StreamTransport::Options options;
  options.timeout_ms = 20000;
  std::unique_ptr<transport::StreamTransport> stream =
      transport::StreamTransport::Connect(
          "tcp:" + std::to_string(daemon.endpoint().port), options, &error);
  EXPECT_NE(stream, nullptr) << error;
  if (stream == nullptr) {
    daemon.Stop();
    return Outcome{};
  }
  EXPECT_EQ(stream->tune_in_packet(), tune_in_want);

  const uint64_t tune_in = stream->tune_in_packet();
  const Outcome live = RunPair(stream->source(), *stream, tune_in, theta, seed);

  // Simulator replay over the CLIENT-side rebuild (shared LiveSource):
  // same tune-in, same rng, same query sequence.
  transport::SimTransport sim(stream->source().schedule());
  const Outcome simulated =
      RunPair(stream->source(), sim, tune_in, theta, seed);

  EXPECT_TRUE(live == simulated)
      << "tune-in " << tune_in << ": live {" << live.ids.size()
      << " results, " << live.latency_bytes << "/" << live.tuning_bytes
      << " B, gen " << live.final_generation << "} vs sim {"
      << simulated.ids.size() << " results, " << simulated.latency_bytes
      << "/" << simulated.tuning_bytes << " B, gen "
      << simulated.final_generation << "}";

  // The byte metrics are substrate-independent; the wall side channel is
  // not — the live transport actually moved frames, the simulator none.
  EXPECT_GT(stream->wall().frames, 0u);
  EXPECT_GT(stream->wall().frame_bytes, 0u);
  EXPECT_EQ(sim.wall().frames, 0u);

  stream.reset();  // Drop the connection before joining its server thread.
  daemon.Stop();
  return live;
}

TEST(TransportParity, StaticBroadcastAllFamilies) {
  for (const wire::FamilyId family :
       {wire::FamilyId::kDsi, wire::FamilyId::kRtree, wire::FamilyId::kHci,
        wire::FamilyId::kExpIndex}) {
    CheckParityAt(MakeRecipe(family, 150, 1, 0, 0, 0), /*tune_in_want=*/0,
                  /*theta=*/0.0, /*seed=*/77);
    CheckParityAt(MakeRecipe(family, 150, 1, 0, 0, 0), /*tune_in_want=*/137,
                  /*theta=*/0.0, /*seed=*/78);  // mid-cycle join
  }
}

TEST(TransportParity, LossyChannelClientSideCoins) {
  // Loss coins are drawn client-side from the session rng, so parity must
  // hold on a lossy channel too.
  CheckParityAt(MakeRecipe(wire::FamilyId::kDsi, 120, 1, 0, 0, 0), 42, 0.3, 5);
  CheckParityAt(MakeRecipe(wire::FamilyId::kHci, 120, 1, 0, 0, 0), 42, 0.3, 6);
}

TEST(TransportParity, CodedBroadcastParityInterleaves) {
  CheckParityAt(MakeRecipe(wire::FamilyId::kDsi, 100, 1, 0, 4, 1), 0, 0.25, 7);
  CheckParityAt(MakeRecipe(wire::FamilyId::kDsi, 100, 1, 0, 4, 1), 311, 0.25,
                8);
  CheckParityAt(MakeRecipe(wire::FamilyId::kRtree, 100, 1, 0, 3, 2), 99, 0.25,
                9);
}

TEST(TransportParity, GenerationalRepublication) {
  // Mid-cycle joins in every generation plus a join right before a switch
  // instant: the session crosses republications and must resynchronize
  // identically on both substrates.
  const wire::HelloPayload recipe =
      MakeRecipe(wire::FamilyId::kDsi, 120, 3, 15, 0, 0);
  const transport::LiveSource probe(recipe);
  const broadcast::GenerationSchedule& schedule = probe.schedule();
  CheckParityAt(recipe, schedule.start_packet(1) / 2, 0.0, 11);
  CheckParityAt(recipe, schedule.start_packet(1) - 3, 0.0, 12);
  CheckParityAt(recipe, schedule.start_packet(2) + 7, 0.0, 13);

  const wire::HelloPayload coded =
      MakeRecipe(wire::FamilyId::kExpIndex, 90, 2, 10, 3, 1);
  CheckParityAt(coded, 5, 0.2, 14);
}

TEST(TransportParity, GenerationSwitchWhileDisconnectedDozing) {
  // A session that tunes in just before a republication dozes across the
  // switch with the radio off (frames discarded unvalidated) and must
  // resynchronize to the new generation on BOTH substrates. The parity
  // comparison runs inside CheckParityAt; here we additionally assert the
  // crossing actually happened so the case cannot silently degrade.
  const wire::HelloPayload recipe =
      MakeRecipe(wire::FamilyId::kHci, 100, 2, 12, 0, 0);
  const transport::LiveSource probe(recipe);
  const Outcome live =
      CheckParityAt(recipe, probe.schedule().start_packet(1) - 2, 0.0, 15);
  EXPECT_EQ(live.final_generation, 1u);
}

TEST(TransportParity, UnixSocketEndpoint) {
  const std::string path = testing::TempDir() + "/dsi_parity.sock";
  const wire::HelloPayload recipe =
      MakeRecipe(wire::FamilyId::kRtree, 80, 1, 0, 0, 0);
  transport::BroadcastDaemon daemon(recipe, 0.0);
  std::string error;
  ASSERT_TRUE(daemon.Listen("unix:" + path, &error)) << error;
  daemon.Start();

  transport::StreamTransport::Options options;
  options.timeout_ms = 20000;
  std::unique_ptr<transport::StreamTransport> stream =
      transport::StreamTransport::Connect("unix:" + path, options, &error);
  ASSERT_NE(stream, nullptr) << error;
  const uint64_t tune_in = stream->tune_in_packet();
  const Outcome live = RunPair(stream->source(), *stream, tune_in, 0.0, 21);
  transport::SimTransport sim(stream->source().schedule());
  EXPECT_TRUE(live == RunPair(stream->source(), sim, tune_in, 0.0, 21));
  stream.reset();
  daemon.Stop();
}

TEST(TransportParity, UnixListenerAcceptsOnceItsPathExists) {
  // A fresh directory, so a leftover temporary file would show.
  std::string dir = testing::TempDir() + "/dsi_listen_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  transport::Endpoint ep;
  std::string error;
  ASSERT_TRUE(transport::ParseEndpoint("unix:" + dir + "/d.sock", &ep, &error))
      << error;
  transport::SocketFd listener = transport::ListenOn(&ep, &error);
  ASSERT_TRUE(listener.valid()) << error;
  struct stat st {};
  ASSERT_EQ(::stat(ep.path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISSOCK(st.st_mode));
  transport::SocketFd conn = transport::ConnectTo(ep, 5000, &error);
  EXPECT_TRUE(conn.valid()) << error;
  std::vector<std::string> entries;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    entries.push_back(e.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"d.sock"});

  // A path that fits a socket address but not with the temporary suffix.
  const size_t fill = 104 - dir.size() - 1;
  transport::Endpoint long_ep;
  ASSERT_TRUE(transport::ParseEndpoint(
      "unix:" + dir + "/" + std::string(fill, 'x'), &long_ep, &error))
      << error;
  EXPECT_FALSE(transport::ListenOn(&long_ep, &error).valid());
  EXPECT_NE(error.find("path too long"), std::string::npos) << error;

  conn.Close();
  listener.Close();
  std::filesystem::remove_all(dir);
}

TEST(TransportParity, EmptyProgramRefusedCleanly) {
  // Zero objects -> zero-cycle program: the daemon must refuse to serve it
  // (a ClientSession over it would be UB) instead of hanging a client.
  wire::HelloPayload recipe = MakeRecipe(wire::FamilyId::kDsi, 0, 1, 0, 0, 0);
  transport::BroadcastDaemon daemon(recipe, 0.0);
  std::string error;
  EXPECT_FALSE(daemon.Listen("tcp:0", &error));
  EXPECT_NE(error.find("empty broadcast"), std::string::npos) << error;
}

/// Connects a client to a fake daemon that runs \p serve on the accepted
/// connection and closes it. Returns the client (null, with \p error set,
/// when the handshake failed).
template <typename Serve>
std::unique_ptr<transport::StreamTransport> ConnectToFakeDaemon(
    Serve serve, std::string* error) {
  transport::Endpoint ep;
  EXPECT_TRUE(transport::ParseEndpoint("tcp:0", &ep, error));
  transport::SocketFd listener = transport::ListenOn(&ep, error);
  EXPECT_TRUE(listener.valid()) << *error;

  std::thread fake([&listener, &serve] {
    transport::SocketFd conn =
        transport::AcceptOn(listener, /*timeout_ms=*/10000);
    if (conn.valid()) serve(conn);
  });
  transport::StreamTransport::Options options;
  options.timeout_ms = 10000;
  std::unique_ptr<transport::StreamTransport> stream =
      transport::StreamTransport::Connect("tcp:" + std::to_string(ep.port),
                                          options, error);
  fake.join();
  return stream;
}

/// A hello frame whose version field is corrupted (bytes 4-5, after magic).
std::vector<uint8_t> WrongVersionHello() {
  std::vector<uint8_t> frame;
  wire::AppendFrame(wire::FrameType::kHello,
                    wire::EncodeHello(wire::HelloPayload{}), &frame);
  frame[4] ^= 0x01;
  return frame;
}

TEST(TransportParity, VersionMismatchRejectedWithClearError) {
  // A fake daemon speaking a different protocol version: the client must
  // fail the handshake with an explicit version message, not hang or parse.
  std::string error;
  EXPECT_EQ(ConnectToFakeDaemon(
                [](const transport::SocketFd& conn) {
                  const std::vector<uint8_t> frame = WrongVersionHello();
                  transport::SendAll(conn, frame.data(), frame.size());
                },
                &error),
            nullptr);
  EXPECT_NE(error.find("incompatible protocol version"), std::string::npos)
      << error;
}

TEST(TransportParity, DribbledHelloStillRejectsVersion) {
  // One byte per send: the client reassembles the header across refills of
  // its receive buffer before it judges the version.
  std::string error;
  EXPECT_EQ(ConnectToFakeDaemon(
                [](const transport::SocketFd& conn) {
                  for (const uint8_t byte : WrongVersionHello()) {
                    // Stops once the client has rejected the header.
                    if (!transport::SendAll(conn, &byte, 1)) return;
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                  }
                },
                &error),
            nullptr);
  EXPECT_NE(error.find("incompatible protocol version"), std::string::npos)
      << error;
}

TEST(TransportParity, TornFrameIsAnErrorNotAHang) {
  // A header promising a payload, then a close: a clear torn-frame error,
  // whether none or some of the payload arrived.
  std::vector<uint8_t> frame;
  wire::AppendFrame(wire::FrameType::kHello,
                    wire::EncodeHello(MakeRecipe(wire::FamilyId::kDsi, 60, 1,
                                                 0, 0, 0)),
                    &frame);
  const size_t half_payload = (wire::kFrameHeaderBytes + frame.size()) / 2;
  for (const size_t sent : {wire::kFrameHeaderBytes, half_payload}) {
    std::string error;
    EXPECT_EQ(ConnectToFakeDaemon(
                  [&](const transport::SocketFd& conn) {
                    transport::SendAll(conn, frame.data(), sent);
                  },
                  &error),
              nullptr);
    EXPECT_NE(error.find("torn frame"), std::string::npos)
        << "after " << sent << " bytes: " << error;
  }
}

TEST(TransportParity, BucketFramePastTheProgramRejected) {
  // A well-formed handshake, then a bucket frame naming a slot the
  // announced program does not have: a drift error, not an out-of-range
  // read.
  const wire::HelloPayload recipe =
      MakeRecipe(wire::FamilyId::kDsi, 60, 1, 0, 0, 0);
  const transport::LiveSource source(recipe);
  std::vector<uint8_t> stream_bytes;
  wire::AppendFrame(wire::FrameType::kHello, wire::EncodeHello(recipe),
                    &stream_bytes);
  wire::ProgramMeta meta;
  meta.end_packet = source.schedule().end_packet(0);
  wire::AppendFrame(wire::FrameType::kProgram,
                    wire::EncodeProgramAnnouncement(meta, source.program(0)),
                    &stream_bytes);
  wire::BucketFields bogus;
  bogus.phys_slot = source.program(0).num_buckets();
  wire::AppendBucketFrameHead(bogus, 0, &stream_bytes);

  std::string error;
  std::unique_ptr<transport::StreamTransport> stream = ConnectToFakeDaemon(
      [&](const transport::SocketFd& conn) {
        transport::SendAll(conn, stream_bytes.data(), stream_bytes.size());
      },
      &error);
  ASSERT_NE(stream, nullptr) << error;
  EXPECT_THROW(stream->Doze(0, 1), transport::TransportError);
}

TEST(TransportParity, CleanShutdownEndsAtCycleBoundary) {
  const wire::HelloPayload recipe =
      MakeRecipe(wire::FamilyId::kDsi, 60, 1, 0, 0, 0);
  transport::BroadcastDaemon daemon(recipe, 0.0);
  std::string error;
  ASSERT_TRUE(daemon.Listen("tcp:0", &error)) << error;
  daemon.Start();

  transport::StreamTransport::Options options;
  options.timeout_ms = 20000;
  std::unique_ptr<transport::StreamTransport> stream =
      transport::StreamTransport::Connect(
          "tcp:" + std::to_string(daemon.endpoint().port), options, &error);
  ASSERT_NE(stream, nullptr) << error;

  // Stop() joins the connection thread, which may be blocked in send()
  // until the client drains — so stop and drain concurrently.
  std::thread stopper([&daemon] { daemon.Stop(); });
  stream->Doze(stream->tune_in_packet(),
               stream->tune_in_packet() + (1ull << 40));
  stopper.join();

  ASSERT_TRUE(stream->shutdown_seen());
  const uint64_t cycle = stream->source().program(0).cycle_packets();
  EXPECT_EQ(stream->final_packet() % cycle, 0u);
  // Past the boundary the channel is a clean, explicit error — never a
  // hang or a torn bucket.
  EXPECT_THROW(stream->Listen(stream->final_packet(), 1),
               transport::TransportError);
}

TEST(TransportParity, PacedDaemonNeverDeliversEarly) {
  // A paced daemon batches frames but may not hand one to the socket before
  // its air time: dozing across kPackets takes at least their air time,
  // less the frame that ends the doze (it starts at most one bucket before
  // the target) and one packet (the tune-in is the clock's floor).
  constexpr double kPps = 20000;
  constexpr uint64_t kPackets = 4000;  // 0.2 s of air
  const wire::HelloPayload recipe =
      MakeRecipe(wire::FamilyId::kDsi, 60, 1, 0, 4, 1);
  transport::BroadcastDaemon daemon(recipe, kPps);
  std::string error;
  ASSERT_TRUE(daemon.Listen("tcp:0", &error)) << error;
  daemon.Start();

  const auto t0 = std::chrono::steady_clock::now();
  transport::StreamTransport::Options options;
  options.timeout_ms = 20000;
  std::unique_ptr<transport::StreamTransport> stream =
      transport::StreamTransport::Connect(
          "tcp:" + std::to_string(daemon.endpoint().port), options, &error);
  ASSERT_NE(stream, nullptr) << error;
  const broadcast::BroadcastProgram& program = stream->source().program(0);
  uint64_t largest = 0;
  for (size_t s = 0; s < program.num_buckets(); ++s) {
    largest = std::max(largest, program.bucket(s).packets);
  }
  const uint64_t tune_in = stream->tune_in_packet();
  stream->Doze(tune_in, tune_in + kPackets);
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_GE(elapsed_s, static_cast<double>(kPackets - largest - 1) / kPps);

  // Stop under pacing still finishes the current cycle.
  std::thread stopper([&daemon] { daemon.Stop(); });
  stream->Doze(tune_in + kPackets, tune_in + (1ull << 40));
  stopper.join();
  ASSERT_TRUE(stream->shutdown_seen());
  EXPECT_EQ(stream->final_packet() % program.cycle_packets(), 0u);
}

/// Bit-serial GF(2^8) multiply (AES polynomial 0x11B).
uint8_t ReferenceGfMul(uint8_t a, uint8_t b) {
  uint8_t out = 0;
  for (int bit = 0; bit < 8; ++bit) {
    if ((b >> bit) & 1) out ^= a;
    a = static_cast<uint8_t>((a << 1) ^ ((a & 0x80) != 0 ? 0x1B : 0));
  }
  return out;
}

TEST(TransportParity, ParityPlanesMatchBitSerialReference) {
  // Daemon and client share the parity kernel, so the live tests cannot
  // catch a wrong product. Rebuild every plane here: plane j weights group
  // member i, zero-padded to the plane, by 2^(j*i) over GF(2^8).
  for (const wire::FamilyId family :
       {wire::FamilyId::kDsi, wire::FamilyId::kRtree, wire::FamilyId::kHci,
        wire::FamilyId::kExpIndex}) {
    for (const auto& [group, parity] :
         {std::pair{4u, 1u}, std::pair{3u, 2u}, std::pair{2u, 3u}}) {
      const transport::LiveSource source(
          MakeRecipe(family, 80, 1, 0, group, parity));
      const broadcast::BroadcastProgram& p = source.program(0);
      size_t weighted_planes = 0;
      for (size_t slot = 0; slot < p.num_buckets(); ++slot) {
        const broadcast::Bucket& bucket = p.bucket(slot);
        if (bucket.kind != broadcast::BucketKind::kParity) continue;
        const broadcast::BroadcastProgram::GroupRun run = p.GroupOf(slot);
        const size_t plane = slot - run.first - run.data;
        std::vector<uint8_t> want(bucket.size_bytes, 0);
        for (size_t m = 0; m < run.data; ++m) {
          uint8_t coeff = 1;
          for (size_t k = 0; k < plane * m; ++k) {
            coeff = ReferenceGfMul(coeff, 2);
          }
          if (coeff != 1) ++weighted_planes;
          std::vector<uint8_t> member =
              source.BucketContent(0, run.first + m);
          ASSERT_LE(member.size(), want.size());
          member.resize(want.size(), 0);
          for (size_t i = 0; i < want.size(); ++i) {
            want[i] ^= ReferenceGfMul(coeff, member[i]);
          }
        }
        EXPECT_EQ(source.BucketContent(0, slot), want)
            << "family " << static_cast<int>(family) << ", (" << group << ","
            << parity << ") code, slot " << slot;
      }
      if (parity > 1) {
        EXPECT_GT(weighted_planes, 0u);
      }
    }
  }
}

/// The payload-ordered object array of \p handle's family: the objects its
/// data buckets carry, indexed by Bucket::payload.
const std::vector<datasets::SpatialObject>& PayloadObjects(
    const air::AirIndexHandle& handle) {
  if (const auto* h = dynamic_cast<const air::DsiHandle*>(&handle)) {
    return h->index().sorted_objects();
  }
  if (const auto* h = dynamic_cast<const air::RtreeHandle*>(&handle)) {
    return h->index().str_objects();
  }
  if (const auto* h = dynamic_cast<const air::HciHandle*>(&handle)) {
    return h->index().sorted_objects();
  }
  return dynamic_cast<const air::ExpHandle&>(handle).sorted_objects();
}

/// Decodes the content of one non-parity bucket of \p handle's program
/// with the codec its kind calls for and compares it with the index's own
/// table, node or object for the bucket's payload.
void ExpectContentDecodesToIndex(const air::AirIndexHandle& handle,
                                 const broadcast::Bucket& bucket,
                                 const std::vector<uint8_t>& content,
                                 std::vector<uint32_t>* data_ids) {
  ASSERT_EQ(content.size(), bucket.size_bytes);
  const uint32_t payload = bucket.payload;
  switch (bucket.kind) {
    case broadcast::BucketKind::kDataObject: {
      datasets::SpatialObject got;
      ASSERT_TRUE(wire::DecodeDataObject(content, &got));
      const datasets::SpatialObject& want = PayloadObjects(handle)[payload];
      EXPECT_EQ(got.id, want.id);
      EXPECT_EQ(got.location, want.location);
      data_ids->push_back(got.id);
      break;
    }
    case broadcast::BucketKind::kDsiFrameTable:
      if (const auto* h = dynamic_cast<const air::DsiHandle*>(&handle)) {
        const core::DsiIndex& index = h->index();
        const core::DsiTableView want = index.TableAt(payload);
        core::DsiTableView got;
        std::vector<uint64_t> heads;
        ASSERT_TRUE(wire::DecodeDsiTable(
            content, index.table_hc_bytes(), index.config().num_segments,
            static_cast<uint32_t>(want.entries.size()), payload, &got,
            &heads));
        EXPECT_EQ(got.own_hc_min, want.own_hc_min);
        ASSERT_EQ(got.entries.size(), want.entries.size());
        for (size_t i = 0; i < want.entries.size(); ++i) {
          EXPECT_EQ(got.entries[i].hc_min, want.entries[i].hc_min);
          EXPECT_EQ(got.entries[i].position, want.entries[i].position);
        }
        if (index.config().num_segments > 1) {
          EXPECT_EQ(heads, index.segment_head_hcs());
        }
      } else {
        const expindex::ExpIndex& index =
            dynamic_cast<const air::ExpHandle&>(handle).index();
        const std::vector<expindex::ExpTableEntry> want =
            index.TableAt(payload);
        uint64_t own_min_key = 0;
        std::vector<expindex::ExpTableEntry> got;
        ASSERT_TRUE(wire::DecodeExpTable(
            content, index.config().key_bytes,
            static_cast<uint32_t>(want.size()), &own_min_key, &got));
        EXPECT_EQ(own_min_key, index.ChunkMinKey(payload));
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].min_key, want[i].min_key);
          EXPECT_EQ(got[i].position, want[i].position);
        }
      }
      break;
    case broadcast::BucketKind::kIndexNode:
      if (const auto* h = dynamic_cast<const air::RtreeHandle*>(&handle)) {
        const std::span<const rtree::Rtree::Entry> want =
            h->index().tree().entries(payload);
        std::vector<rtree::Rtree::Entry> got;
        ASSERT_TRUE(wire::DecodeRtreeNode(content, &got));
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].mbr, want[i].mbr);
          EXPECT_EQ(got[i].child, want[i].child);
        }
      } else {
        const std::vector<bptree::BptEntry>& want =
            dynamic_cast<const air::HciHandle&>(handle).index().tree().entries(
                payload);
        std::vector<bptree::BptEntry> got;
        ASSERT_TRUE(wire::DecodeBptNode(content, &got));
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].key, want[i].key);
          EXPECT_EQ(got[i].child, want[i].child);
        }
      }
      break;
    case broadcast::BucketKind::kParity:
      FAIL() << "parity bucket passed as data";
  }
}

TEST(TransportParity, LiveContentDecodesToEachGenerationsIndex) {
  // Daemon and client share one LiveSource, so the live tests cannot see a
  // mis-wired generation or a swapped node encoder. Decode every data
  // bucket of every generation's on-air cycle back to that generation's
  // own index, and check each cycle carries exactly its generation's
  // objects.
  for (const wire::FamilyId family :
       {wire::FamilyId::kDsi, wire::FamilyId::kRtree, wire::FamilyId::kHci,
        wire::FamilyId::kExpIndex}) {
    for (const auto& [group, parity] : {std::pair{0u, 0u}, std::pair{4u, 1u}}) {
      SCOPED_TRACE("family " + std::to_string(static_cast<int>(family)) +
                   ", (" + std::to_string(group) + "," +
                   std::to_string(parity) + ") code");
      const transport::LiveSource source(
          MakeRecipe(family, 150, 3, 20, group, parity));
      ASSERT_EQ(source.num_generations(), 3u);
      for (size_t g = 0; g < source.num_generations(); ++g) {
        const broadcast::BroadcastProgram& p = source.program(g);
        std::vector<uint32_t> data_ids;
        size_t index_buckets = 0;
        for (size_t slot = 0; slot < p.num_buckets(); ++slot) {
          const broadcast::Bucket& bucket = p.bucket(slot);
          if (bucket.kind == broadcast::BucketKind::kParity) continue;
          if (bucket.kind != broadcast::BucketKind::kDataObject) {
            ++index_buckets;
          }
          ExpectContentDecodesToIndex(source.handle(g), bucket,
                                      source.BucketContent(g, slot),
                                      &data_ids);
        }
        EXPECT_GT(index_buckets, 0u) << "generation " << g;
        std::sort(data_ids.begin(), data_ids.end());
        data_ids.erase(std::unique(data_ids.begin(), data_ids.end()),
                       data_ids.end());
        std::vector<uint32_t> want_ids;
        for (const auto& o : source.objects(g)) want_ids.push_back(o.id);
        std::sort(want_ids.begin(), want_ids.end());
        EXPECT_EQ(data_ids, want_ids) << "generation " << g;
      }
    }
  }
}

TEST(TransportParity, FinishedConnectionsAreReaped) {
  // A long-lived daemon must not keep one dead thread per past connection:
  // the accept loop joins each finished connection within its poll
  // interval.
  const wire::HelloPayload recipe =
      MakeRecipe(wire::FamilyId::kDsi, 60, 1, 0, 0, 0);
  transport::BroadcastDaemon daemon(recipe, 0.0);
  std::string error;
  ASSERT_TRUE(daemon.Listen("tcp:0", &error)) << error;
  daemon.Start();
  transport::StreamTransport::Options options;
  options.timeout_ms = 20000;
  for (int i = 0; i < 32; ++i) {
    std::unique_ptr<transport::StreamTransport> stream =
        transport::StreamTransport::Connect(
            "tcp:" + std::to_string(daemon.endpoint().port), options, &error);
    ASSERT_NE(stream, nullptr) << error;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (daemon.connection_threads() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(daemon.connection_threads(), 1u);
  daemon.Stop();
}

TEST(TransportParity, ConcurrentStopJoinsOnce) {
  // Two racing Stop() calls plus the destructor's own: only the first may
  // join the accept thread; joining it twice throws std::system_error (or
  // is UB), which would terminate the process here.
  const wire::HelloPayload recipe =
      MakeRecipe(wire::FamilyId::kDsi, 60, 1, 0, 0, 0);
  for (int round = 0; round < 20; ++round) {
    transport::BroadcastDaemon daemon(recipe, 0.0);
    std::string error;
    ASSERT_TRUE(daemon.Listen("tcp:0", &error)) << error;
    daemon.Start();
    std::thread a([&daemon] { daemon.Stop(); });
    std::thread b([&daemon] { daemon.Stop(); });
    a.join();
    b.join();
  }
}

}  // namespace
}  // namespace dsi
