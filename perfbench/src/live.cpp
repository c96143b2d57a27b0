/// \file live.cpp
/// \brief Workload live-loopback: an in-process BroadcastDaemon streaming
/// unthrottled (pps = 0) on a unix socket, and two StreamTransport clients,
/// each on its own thread, answering alternating window / 5NN queries.
///
/// The broadcast recipe: DSI (m = 2), 2000 objects, packet capacity 64,
/// (4, 1) erasure coding, 3 generations of 20 updates each; the clients
/// lose bucket instances at theta = 0.1 (kPerBucketLoss). Both connections
/// validate every received bucket against their own rebuild. The daemon
/// runs unthrottled so the run times the program, not a pacing timer.
///
/// Deterministic tune-ins: before each Connect the daemon's air position is
/// advanced to a seed-derived packet, so frame counts and byte metrics
/// repeat exactly; a connection that lands elsewhere fails the run.
///
/// Checks: every query stream is replayed through SimTransport and must
/// match bit for bit (answers and byte metrics); a TransportError is a
/// failed query; each connection's frame count must cover the airings its
/// session's span covers, with at most a few read ahead, and equal the
/// pinned count at the pinned seed.

#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "air/dsi_handle.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/seed_mix.hpp"
#include "transport/broadcast_daemon.hpp"
#include "transport/stream_transport.hpp"
#include "transport/transport.hpp"
#include "wire/framing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dsi;

constexpr uint32_t kObjects = 2000;
constexpr size_t kConnections = 2;
constexpr size_t kQueriesPerConnection = 400;
/// Queries per connection in the traced simulator sample (p99 keeps 10).
constexpr size_t kTracedQueries = 1000;
constexpr double kTheta = 0.1;
constexpr size_t kK = 5;
constexpr double kWindowSide = 0.1;
constexpr int kSetups = 5;
constexpr int kTimeoutMs = 20000;

/// Frames received per connection at kPinnedSeed.
constexpr uint64_t kPinnedFrames[kConnections] = {1418959, 1280404};
/// Frames a receiver may hold beyond its session's final packet.
constexpr uint64_t kMaxReadAhead = 8;

wire::HelloPayload Recipe(uint64_t seed) {
  wire::HelloPayload r;
  r.family = wire::FamilyId::kDsi;
  r.seed = seed;
  r.num_objects = kObjects;
  r.packet_capacity = 64;
  r.hilbert_order = static_cast<uint32_t>(hilbert::ChooseOrder(kObjects));
  r.num_segments = 2;
  r.coding_group = 4;
  r.coding_parity = 1;
  r.num_generations = 3;
  r.updates_per_gen = 20;
  r.gen_cycles = 4;
  return r;
}

struct QuerySpec {
  bool window = false;
  common::Rect rect;
  common::Point point;
};

/// Alternating window / kNN queries, seed-determined per connection.
std::vector<QuerySpec> MakeQueries(uint64_t seed, size_t conn, size_t n) {
  const common::Rect u = datasets::UnitUniverse();
  common::Rng rng(sim::MixSeed(seed, 100 + conn));
  std::vector<QuerySpec> out(n);
  for (size_t i = 0; i < n; ++i) {
    const common::Point p{rng.Uniform(u.min_x, u.max_x),
                          rng.Uniform(u.min_y, u.max_y)};
    out[i].window = i % 2 == 0;
    out[i].point = p;
    out[i].rect = common::MakeClippedWindow(p, kWindowSide * u.Width(), u);
  }
  return out;
}

struct Outcome {
  bool window = false;
  std::vector<uint32_t> ids;
  broadcast::Metrics after;
  broadcast::Metrics delta;
  bool completed = true;
  uint64_t ns = 0;
  size_t event_begin = 0, event_end = 0;
  double radius = 0;  ///< kNN: distance to the k-th answer.
};

/// One session answering \p queries in order on \p channel; a continuous
/// client per generation, rebuilt on republication (live_client's loop).
/// Throws transport::TransportError on a live channel failure.
std::vector<Outcome> RunStream(const transport::LiveSource& source,
                               transport::Transport& channel, uint64_t tune_in,
                               uint64_t session_seed,
                               const std::vector<QuerySpec>& queries,
                               std::vector<broadcast::TraceEvent>* trace,
                               SpanRecorder* rec, uint64_t* end_packet) {
  broadcast::ClientSession session(
      channel, tune_in,
      broadcast::ErrorModel{kTheta, broadcast::ErrorMode::kPerBucketLoss},
      common::Rng(session_seed));
  if (trace != nullptr) session.set_trace(trace);
  {
    SpanRecorder::Scope span(*rec, "session.InitialProbe");
    session.InitialProbe();
  }
  uint64_t gen = session.generation();
  std::unique_ptr<air::AirClient> client =
      source.handle(gen).MakeContinuousClient(&session);
  std::vector<Outcome> out;
  out.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const QuerySpec& q = queries[i];
    Outcome o;
    o.window = q.window;
    o.event_begin = trace != nullptr ? trace->size() : 0;
    const uint64_t t0 = NowNs();
    SpanRecorder::Scope span(*rec, "air.query", i);
    const broadcast::Metrics before = session.metrics();
    std::vector<datasets::SpatialObject> answer;
    for (;;) {
      if (session.generation() != gen) {
        gen = session.generation();
        client = source.handle(gen).MakeContinuousClient(&session);
      }
      client->BeginQuery();
      if (q.window) {
        SpanRecorder::Scope search(*rec, "air.WindowQuery", i);
        answer = client->WindowQuery(q.rect);
      } else {
        SpanRecorder::Scope search(*rec, "air.KnnQuery", i);
        answer = client->KnnQuery(q.point, kK);
      }
      if (!client->stats().stale) break;
    }
    o.after = session.metrics();
    o.ns = NowNs() - t0;
    o.event_end = trace != nullptr ? trace->size() : 0;
    o.delta.access_latency_bytes =
        o.after.access_latency_bytes - before.access_latency_bytes;
    o.delta.tuning_bytes = o.after.tuning_bytes - before.tuning_bytes;
    o.delta.repaired = o.after.repaired - before.repaired;
    o.completed = client->stats().completed;
    for (const auto& obj : answer) {
      o.ids.push_back(obj.id);
      if (!q.window) {
        o.radius = std::max(o.radius, common::Distance(q.point, obj.location));
      }
    }
    std::sort(o.ids.begin(), o.ids.end());
    out.push_back(std::move(o));
  }
  if (end_packet != nullptr) *end_packet = session.now_packets();
  return out;
}

bool SameOutcome(const Outcome& a, const Outcome& b) {
  return a.ids == b.ids && SameMetrics(a.delta, b.delta) &&
         a.completed == b.completed;
}

/// Airings a receiver that tuned in at \p tune_in and stopped at
/// \p end_packet must have been streamed: the airing covering the tune-in
/// packet through the last one starting before \p end_packet.
uint64_t ExpectedFrames(const broadcast::GenerationSchedule& schedule,
                        uint64_t tune_in, uint64_t end_packet) {
  uint64_t frames = 0;
  uint64_t pos = tune_in;
  while (true) {
    const size_t gen = schedule.GenerationAt(pos);
    const broadcast::BroadcastProgram& program = schedule.program(gen);
    const uint64_t gen_start = schedule.start_packet(gen);
    const uint64_t gen_end = schedule.end_packet(gen);
    const uint64_t cycle = program.cycle_packets();
    const uint64_t base = gen_start + ((pos - gen_start) / cycle) * cycle;
    const broadcast::Bucket& b =
        program.bucket(program.SlotAtPacket((pos - gen_start) % cycle));
    const uint64_t start = base + b.start_packet;
    if (start >= end_packet) return frames;
    ++frames;
    pos = std::min(start + b.packets, gen_end);
  }
}

/// One served broadcast with its connected clients.
struct Loopback {
  std::unique_ptr<transport::BroadcastDaemon> daemon;
  std::vector<std::unique_ptr<transport::StreamTransport>> streams;
  std::vector<uint64_t> tune_in;
  double source_build_s = 0;
  std::vector<double> connect_ms;

  void Close() {
    streams.clear();  // drop the connections before joining their servers
    if (daemon != nullptr) daemon->Stop();
    daemon.reset();
  }
};

/// Builds the daemon and connects every client at its fixed tune-in.
/// Returns false (after reporting) when the loopback cannot be set up.
bool Open(const wire::HelloPayload& recipe, const std::string& endpoint,
          uint64_t seed, Loopback* lb, Report* report, SpanRecorder* rec) {
  uint64_t t0 = NowNs();
  {
    SpanRecorder::Scope span(*rec, "transport.BroadcastDaemon");
    lb->daemon = std::make_unique<transport::BroadcastDaemon>(recipe, 0.0);
  }
  lb->source_build_s = SecondsSince(t0);
  std::string error;
  if (!lb->daemon->Listen(endpoint, &error)) {
    report->Fail("live-loopback: daemon cannot listen: " + error);
    return false;
  }
  lb->daemon->Start();
  const uint64_t cycle = lb->daemon->source().program(0).cycle_packets();
  const uint64_t first = sim::MixSeed(seed, 30) % cycle;
  transport::StreamTransport::Options options;
  options.timeout_ms = kTimeoutMs;
  for (size_t j = 0; j < kConnections; ++j) {
    // Connections join two cycles apart: far beyond what the earlier
    // connection's socket buffer lets the daemon stream ahead.
    const uint64_t want = first + 2 * cycle * j;
    lb->daemon->AdvanceAirTo(want);
    t0 = NowNs();
    std::unique_ptr<transport::StreamTransport> s;
    {
      SpanRecorder::Scope span(*rec, "transport.StreamTransport::Connect");
      s = transport::StreamTransport::Connect(endpoint, options, &error);
    }
    lb->connect_ms.push_back(SecondsSince(t0) * 1e3);
    if (s == nullptr) {
      report->Fail("live-loopback: connect failed: " + error);
      return false;
    }
    if (s->tune_in_packet() != want) {
      report->Fail("live-loopback: connection " + std::to_string(j) +
                   " tuned in at packet " + std::to_string(s->tune_in_packet()) +
                   " instead of " + std::to_string(want));
    }
    lb->tune_in.push_back(s->tune_in_packet());
    lb->streams.push_back(std::move(s));
  }
  return true;
}

/// Wire-layer costs over one cycle of generation 0's on-air program:
/// content assembly (data and parity buckets), frame encode and decode.
void MeasureWire(const transport::LiveSource& source, Report* report,
                 SpanRecorder* rec) {
  SpanRecorder::Scope span(*rec, "wire.microbench");
  const broadcast::BroadcastProgram& p = source.program(0);
  double data_ns = 0, parity_ns = 0, enc_ns = 0, dec_ns = 0, bytes = 0;
  double n_data = 0, n_parity = 0, n = 0;
  std::vector<uint8_t> framed;
  for (size_t slot = 0; slot < p.num_buckets(); ++slot) {
    const broadcast::Bucket& b = p.bucket(slot);
    uint64_t t0 = NowNs();
    wire::BucketFrame frame;
    frame.generation = 0;
    frame.phys_slot = slot;
    frame.start_packet = b.start_packet;
    frame.kind = b.kind;
    frame.payload_id = b.payload;
    frame.content = source.BucketContent(0, slot);
    const double content_ns = static_cast<double>(NowNs() - t0);
    if (b.kind == broadcast::BucketKind::kParity) {
      parity_ns += content_ns;
      n_parity += 1;
    } else {
      data_ns += content_ns;
      n_data += 1;
    }
    t0 = NowNs();
    framed.clear();
    wire::AppendFrame(wire::FrameType::kBucket, wire::EncodeBucketFrame(frame),
                      &framed);
    enc_ns += static_cast<double>(NowNs() - t0);
    t0 = NowNs();
    wire::FrameHeader header;
    wire::BucketFrame back;
    const bool ok =
        wire::DecodeFrameHeader(framed.data(), framed.size(), &header) ==
            wire::FrameStatus::kOk &&
        wire::DecodeBucketFrame(
            std::vector<uint8_t>(framed.begin() + wire::kFrameHeaderBytes,
                                 framed.end()),
            &back);
    dec_ns += static_cast<double>(NowNs() - t0);
    if (!ok || back.content != frame.content) {
      report->Fail("live-loopback: frame of slot " + std::to_string(slot) +
                   " does not decode to its content");
    }
    bytes += static_cast<double>(framed.size());
    n += 1;
  }
  report->Set("wire.content_ns_data", n_data > 0 ? data_ns / n_data : 0.0);
  report->Set("wire.content_ns_parity",
              n_parity > 0 ? parity_ns / n_parity : 0.0);
  report->Set("wire.encode_frame_ns", enc_ns / n);
  report->Set("wire.decode_frame_ns", dec_ns / n);
  report->Set("wire.bytes_per_frame", bytes / n);
}

}  // namespace

void RunLive(const Args& args, Report* report, SpanRecorder* rec) {
  const wire::HelloPayload recipe = Recipe(args.seed);
  const std::string endpoint = "unix:" + args.out_dir + "/live-" +
                               std::to_string(::getpid()) + ".sock";

  for (int i = 0; i < kCalibrationsBefore; ++i) report->host().Sample();
  std::vector<double> setup_s, build_s, connect_ms;
  Loopback lb;
  for (int s = 0; s < kSetups; ++s) {
    report->host().Sample();
    lb.Close();
    lb = Loopback{};
    SpanRecorder::Scope span(*rec, "setup");
    const uint64_t t0 = NowNs();
    if (!Open(recipe, endpoint, args.seed, &lb, report, rec)) {
      lb.Close();
      return;
    }
    setup_s.push_back(SecondsSince(t0));
    build_s.push_back(lb.source_build_s);
    connect_ms.insert(connect_ms.end(), lb.connect_ms.begin(),
                      lb.connect_ms.end());
  }

  // Query phase: one thread per connection.
  std::vector<std::vector<QuerySpec>> queries;
  std::vector<uint64_t> session_seed;
  for (size_t j = 0; j < kConnections; ++j) {
    queries.push_back(MakeQueries(args.seed, j, kQueriesPerConnection));
    session_seed.push_back(sim::MixSeed(args.seed, 40 + j));
  }
  std::vector<std::vector<Outcome>> live(kConnections);
  std::vector<uint64_t> live_end(kConnections, 0);
  std::vector<double> conn_s(kConnections, 0);
  std::vector<std::string> errors(kConnections);
  const uint64_t phase0 = NowNs();
  {
    std::vector<std::thread> threads;
    for (size_t j = 0; j < kConnections; ++j) {
      threads.emplace_back([&, j] {
        SpanRecorder off(false);
        const uint64_t t0 = NowNs();
        try {
          live[j] = RunStream(lb.streams[j]->source(), *lb.streams[j],
                              lb.tune_in[j], session_seed[j], queries[j],
                              nullptr, &off, &live_end[j]);
        } catch (const std::exception& e) {  // TransportError included
          errors[j] = e.what();
        }
        conn_s[j] = SecondsSince(t0);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double phase_s = SecondsSince(phase0);
  for (int i = 0; i < kCalibrationsBefore; ++i) report->host().Sample();

  // Checks: transport errors, frame counts, bit-identical simulator replay.
  uint64_t frames = 0, wait_ns = 0, repaired = 0;
  std::vector<double> window_ns, knn_ns;
  double sim_ns = 0;
  for (size_t j = 0; j < kConnections; ++j) {
    report->Attempt(kQueriesPerConnection);
    if (!errors[j].empty()) {
      report->Fail("live-loopback: connection " + std::to_string(j) + ": " +
                   errors[j],
                   kQueriesPerConnection - live[j].size());
      continue;
    }
    const transport::WallStats wall = lb.streams[j]->wall();
    frames += wall.frames;
    wait_ns += wall.wait_nanos;
    const uint64_t expected = ExpectedFrames(
        lb.streams[j]->source().schedule(), lb.tune_in[j], live_end[j]);
    Note("live-loopback: connection %zu tuned in at %llu, %llu frames "
         "(%llu expected), %.1f ms blocked",
         j, static_cast<unsigned long long>(lb.tune_in[j]),
         static_cast<unsigned long long>(wall.frames),
         static_cast<unsigned long long>(expected), wall.wait_nanos * 1e-6);
    // Any seed: the receiver was streamed every airing its session's span
    // covers, plus the few the stream transport read ahead (the exact count
    // is pinned at kPinnedSeed).
    if (wall.frames < expected || wall.frames > expected + kMaxReadAhead) {
      report->Fail("live-loopback: connection " + std::to_string(j) +
                   " frame count outside the airings its session covered");
    }
    if (args.seed == kPinnedSeed && wall.frames != kPinnedFrames[j]) {
      report->Fail("live-loopback: frame count differs from the pinned value");
    }
    transport::SimTransport sim(lb.streams[j]->source().schedule());
    SpanRecorder off(false);
    const uint64_t t0 = NowNs();
    const std::vector<Outcome> replay =
        RunStream(lb.streams[j]->source(), sim, lb.tune_in[j],
                  session_seed[j], queries[j], nullptr, &off, nullptr);
    sim_ns += static_cast<double>(NowNs() - t0);
    for (size_t i = 0; i < live[j].size(); ++i) {
      if (!SameOutcome(live[j][i], replay[i])) {
        report->Fail("live-loopback: connection " + std::to_string(j) +
                     " query " + std::to_string(i) +
                     " differs from its simulator replay");
      }
      const Outcome& o = live[j][i];
      (o.window ? window_ns : knn_ns).push_back(static_cast<double>(o.ns));
      repaired += o.delta.repaired;
      if (!o.completed) report->Fail("live-loopback: query incomplete");
    }
  }

  const double nq = static_cast<double>(window_ns.size() + knn_ns.size());
  report->SetTime("setup_s", Median(setup_s));
  report->SetRate("ops_per_s", nq / phase_s);
  // Like the one-shot cells: the geometric mean over the two query kinds
  // of each kind's percentile. The kinds cost very different numbers of
  // frames, so a percentile of the pooled times would sit in the gap
  // between them and jump with the draw.
  report->SetTime("op_ms_p50", GeoMean({Percentile(window_ns, 50),
                                        Percentile(knn_ns, 50)}) * 1e-6);
  report->SetTime("op_ms_p95", GeoMean({Percentile(window_ns, 95),
                                        Percentile(knn_ns, 95)}) * 1e-6);
  Note("live-loopback: setup median of %d; %.0f queries in %.3f s, %llu "
       "frames (%.0f frames/s)",
       kSetups, nq, phase_s, static_cast<unsigned long long>(frames),
       static_cast<double>(frames) / phase_s);
  Note("  window: p50 %.3f ms, p95 %.3f ms of %zu; knn: p50 %.3f ms, p95 "
       "%.3f ms of %zu",
       Percentile(window_ns, 50) * 1e-6, Percentile(window_ns, 95) * 1e-6,
       window_ns.size(), Percentile(knn_ns, 50) * 1e-6,
       Percentile(knn_ns, 95) * 1e-6, knn_ns.size());

  double conn_total_s = 0;
  for (double s : conn_s) conn_total_s += s;
  report->Set("transport.source_build_s", Median(build_s));
  report->Set("transport.connect_ms", Median(connect_ms));
  report->Set("transport.wait_frac",
              static_cast<double>(wait_ns) * 1e-9 / conn_total_s);
  report->Set("transport.frames_per_query", static_cast<double>(frames) / nq);
  report->Set("live.frames_per_s", static_cast<double>(frames) / phase_s);
  report->Set("session.repairs_per_query", static_cast<double>(repaired) / nq);
  auto kind_qps = [](const std::vector<double>& ns) {
    double total = 0;
    for (double x : ns) total += x;
    return total > 0 ? static_cast<double>(ns.size()) / (total * 1e-9) : 0.0;
  };
  report->Set("dsi.window_qps", kind_qps(window_ns));
  report->Set("dsi.knn_qps", kind_qps(knn_ns));

  if (args.trace) {
    MeasureWire(lb.daemon->source(), report, rec);

    // Traced simulator sample of the same recipe: longer query streams on
    // each connection's rebuilt broadcast, split into planning, session
    // and search the way the one-shot cells are.
    struct Acc {
      std::vector<double> ns;
      double session = 0, search = 0, listens = 0;
      double object_reads = 0, answers = 0;
    };
    Acc acc[2];  // window, knn
    double plan_w = 0, n_w = 0, ranges_w = 0, plan_c = 0, n_c = 0;
    double replay_ns = 0, replay_reads = 0, traced_head = 0;
    size_t mismatches = 0;
    std::vector<hilbert::HcRange> buf;
    for (size_t j = 0; j < kConnections; ++j) {
      const transport::LiveSource& source = lb.streams[j]->source();
      const std::vector<QuerySpec> long_queries =
          MakeQueries(args.seed, j, kTracedQueries);
      transport::SimTransport sim(source.schedule());
      std::vector<broadcast::TraceEvent> events;
      SpanRecorder::Scope sample(*rec, "cell.traced_sample");
      const std::vector<Outcome> traced =
          RunStream(source, sim, lb.tune_in[j], session_seed[j], long_queries,
                    &events, rec, nullptr);
      broadcast::ClientSession bare(
          sim, lb.tune_in[j],
          broadcast::ErrorModel{kTheta, broadcast::ErrorMode::kPerBucketLoss},
          common::Rng(session_seed[j]));
      bare.InitialProbe();
      for (size_t i = 0; i < traced.size(); ++i) {
        const Outcome& o = traced[i];
        if (i < live[j].size() && !SameOutcome(o, live[j][i])) {
          report->Fail("live-loopback: traced query " + std::to_string(i) +
                       " differs from the live one");
        }
        if (i < live[j].size()) traced_head += static_cast<double>(o.ns);
        QueryCost cost;
        cost.query_ns = o.ns;
        {
          SpanRecorder::Scope span(*rec, "session.replay", i);
          const uint64_t t0 = NowNs();
          replay_reads += static_cast<double>(
              ReplayListens(bare, events, o.event_begin, o.event_end));
          cost.session_ns = NowNs() - t0;
        }
        if (!SameMetrics(bare.metrics(), o.after)) ++mismatches;
        const QuerySpec& q = long_queries[i];
        {
          SpanRecorder::Scope span(*rec, "hilbert.plan", i);
          if (q.window) {
            size_t n = 0;
            cost.plan_ns = PlanWindow(source.mapper(), q.rect, &buf, &n);
            plan_w += static_cast<double>(cost.plan_ns);
            ranges_w += static_cast<double>(n);
            n_w += 1;
          } else {
            cost.plan_ns = PlanCircle(source.mapper(), q.point, o.radius, &buf);
            plan_c += static_cast<double>(cost.plan_ns);
            n_c += 1;
          }
        }
        replay_ns += static_cast<double>(cost.session_ns);
        Acc& a = acc[q.window ? 0 : 1];
        a.ns.push_back(static_cast<double>(o.ns));
        a.session += static_cast<double>(cost.session_ns);
        a.search += static_cast<double>(cost.search_ns());
        a.listens += static_cast<double>(
            CountEvents(events, o.event_begin, o.event_end).listens);
        const auto [data_reads, useful] = UsefulDsiReads(
            events, o.event_begin, o.event_end, source.schedule(),
            [&](size_t g) -> const core::DsiIndex& {
              return static_cast<const air::DsiHandle&>(source.handle(g))
                  .index();
            },
            o.ids);
        a.object_reads += static_cast<double>(data_reads);
        a.answers += static_cast<double>(useful);
      }
      report->Attempt(traced.size());
    }
    if (mismatches > 0) {
      report->Fail("live-loopback: " + std::to_string(mismatches) +
                       " replayed queries did not reproduce their byte metrics",
                   mismatches);
    }
    const char* cells[2] = {"dsi.window", "dsi.knn"};
    for (int k = 0; k < 2; ++k) {
      const Acc& a = acc[k];
      const double n = static_cast<double>(a.ns.size());
      const std::string c = cells[k];
      report->Set(c + ".query_us_p50", Percentile(a.ns, 50) * 1e-3);
      report->Set(c + ".query_us_p99",
                  Percentile(a.ns, TailPercentile(a.ns.size())) * 1e-3);
      report->Set(c + ".search_self_us", a.search / n * 1e-3);
      report->Set(c + ".session_self_us", a.session / n * 1e-3);
      report->Set(c + ".reads_per_query", a.listens / n);
      report->Set(c + ".useful_read_frac",
                  a.object_reads > 0 ? a.answers / a.object_reads : 0.0);
    }
    report->Set("hilbert.window_decomp_ns", plan_w / n_w);
    report->Set("hilbert.ranges_per_window", ranges_w / n_w);
    report->Set("hilbert.circle_decomp_ns", plan_c / n_c);
    report->Set("session.replay_ns_per_read", replay_ns / replay_reads);
    report->Set("trace.overhead_frac", traced_head / sim_ns - 1.0);
    Note("tracing overhead: the traced simulator replay of the live queries "
         "took %.2f%% longer than the untraced one",
         (traced_head / sim_ns - 1.0) * 100.0);
  }
  lb.Close();
}

}  // namespace perfbench
