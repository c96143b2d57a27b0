#pragma once

/// \file workloads.hpp
/// \brief The three benchmark workloads and the attribution helpers they
/// share.
///
///  * oneshot-1e5   — the paper's static one-shot queries at 10^5 objects,
///                    four families x {window, kNN} (oneshot.cpp);
///  * city-dyn      — churned moving window clients over a republished,
///                    multi-disk, lossy DSI broadcast (city.cpp);
///  * live-loopback — an in-process unthrottled daemon and two stream
///                    clients on a unix socket (live.cpp).
///
/// Query-cost attribution (traced runs only): a sampled query runs with
/// ClientSession::set_trace on; its recorded listens are replayed through a
/// bare session with the same tune-in, error model and rng (the session's
/// own cost, which must reproduce the query's byte metrics exactly); its
/// window — or, for kNN, the circle at the k-th result distance — is
/// decomposed again (the planning cost); what remains of the query time is
/// the family's search logic.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/client.hpp"
#include "broadcast/generation.hpp"
#include "common/geometry.hpp"
#include "dsi/index.hpp"
#include "hilbert/space_mapper.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 30;
  bool trace = false;
  /// Directory (inside the checkout) for the span file and the socket.
  std::string out_dir = ".";
};

/// The seed whose byte metrics are pinned in the workload sources; any
/// other seed is checked against brute force and self-consistency only.
inline constexpr uint64_t kPinnedSeed = 1;

/// Host calibration samples taken before a workload's set-up (the rounds
/// take one each as they go).
inline constexpr int kCalibrationsBefore = 3;

void RunOneshot(const Args& args, Report* report, SpanRecorder* rec);
void RunCity(const Args& args, Report* report, SpanRecorder* rec);
void RunLive(const Args& args, Report* report, SpanRecorder* rec);

/// Runs \p f inside span \p span; returns its wall time in seconds.
template <typename F>
double Timed(SpanRecorder* rec, const char* span, F&& f) {
  SpanRecorder::Scope scope(*rec, span);
  const uint64_t t0 = NowNs();
  f();
  return SecondsSince(t0);
}

// --- attribution -------------------------------------------------------------

/// One query's traced cost split. search = query - session - plan, so the
/// three parts sum to the query time by construction (search may come out
/// negative when the replay costs more than the query did).
struct QueryCost {
  uint64_t query_ns = 0;
  uint64_t session_ns = 0;
  uint64_t plan_ns = 0;
  int64_t search_ns() const {
    return static_cast<int64_t>(query_ns) - static_cast<int64_t>(session_ns) -
           static_cast<int64_t>(plan_ns);
  }
};

inline bool SameMetrics(const dsi::broadcast::Metrics& a,
                        const dsi::broadcast::Metrics& b) {
  return a.access_latency_bytes == b.access_latency_bytes &&
         a.tuning_bytes == b.tuning_bytes && a.repaired == b.repaired;
}

/// Replays the listens of \p events[begin, end) through \p bare: every
/// kListen event becomes one ReadBucket of its slot (dozing, loss coins,
/// repair and generation re-sync happen inside the session exactly as they
/// did for the query). Returns the number of reads replayed.
inline size_t ReplayListens(
    dsi::broadcast::ClientSession& bare,
    const std::vector<dsi::broadcast::TraceEvent>& events, size_t begin,
    size_t end) {
  size_t reads = 0;
  for (size_t i = begin; i < end; ++i) {
    if (events[i].kind == dsi::broadcast::TraceEvent::Kind::kListen) {
      bare.ReadBucket(events[i].slot);
      ++reads;
    }
  }
  return reads;
}

/// Counts of one trace segment.
struct TraceCounts {
  size_t listens = 0;
  size_t lost = 0;
};

inline TraceCounts CountEvents(
    const std::vector<dsi::broadcast::TraceEvent>& events, size_t begin,
    size_t end) {
  TraceCounts c;
  for (size_t i = begin; i < end; ++i) {
    const auto kind = events[i].kind;
    if (kind == dsi::broadcast::TraceEvent::Kind::kListen) {
      ++c.listens;
      if (events[i].lost) ++c.lost;
    }
  }
  return c;
}

/// Data reads of one traced DSI segment and how many of them carried an
/// object of the answer (\p ids, sorted). Each intact listen is resolved
/// in the generation on air at its start packet: \p index_of(g) is that
/// generation's index, whose data slots carry sorted-object ranks.
template <typename IndexOf>
std::pair<size_t, size_t> UsefulDsiReads(
    const std::vector<dsi::broadcast::TraceEvent>& events, size_t begin,
    size_t end, const dsi::broadcast::GenerationSchedule& schedule,
    IndexOf&& index_of, const std::vector<uint32_t>& ids) {
  size_t data_reads = 0;
  size_t useful = 0;
  for (size_t i = begin; i < end; ++i) {
    const dsi::broadcast::TraceEvent& e = events[i];
    if (e.kind != dsi::broadcast::TraceEvent::Kind::kListen || e.lost) continue;
    const dsi::core::DsiIndex& index =
        index_of(schedule.GenerationAt(e.start_packet));
    const dsi::broadcast::Bucket& b = index.program().bucket(e.slot);
    if (b.kind != dsi::broadcast::BucketKind::kDataObject) continue;
    ++data_reads;
    const uint32_t id = index.sorted_objects()[b.payload].id;
    if (std::binary_search(ids.begin(), ids.end(), id)) ++useful;
  }
  return {data_reads, useful};
}

/// Re-plans a window query; returns the decomposition time in ns and the
/// range count through \p ranges.
inline uint64_t PlanWindow(const dsi::hilbert::SpaceMapper& mapper,
                           const dsi::common::Rect& window,
                           std::vector<dsi::hilbert::HcRange>* buf,
                           size_t* ranges) {
  const uint64_t t0 = NowNs();
  mapper.WindowToRanges(window, buf);
  const uint64_t dt = NowNs() - t0;
  *ranges = buf->size();
  return dt;
}

/// Re-plans a kNN query as the circle at its k-th result distance.
inline uint64_t PlanCircle(const dsi::hilbert::SpaceMapper& mapper,
                           const dsi::common::Point& q, double radius,
                           std::vector<dsi::hilbert::HcRange>* buf) {
  const uint64_t t0 = NowNs();
  mapper.CircleToRanges(q, radius, buf);
  return NowNs() - t0;
}

}  // namespace perfbench
