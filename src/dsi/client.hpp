#pragma once

/// \file client.hpp
/// \brief Client-side DSI query processing (Sections 3.2 - 3.5).
///
/// A DsiClient drives a broadcast::ClientSession: every piece of index or
/// object information it uses is paid for by listening to the corresponding
/// bucket. The implementation generalizes the paper's algorithms so one
/// machinery handles the original (m = 1) and reorganized (m >= 2)
/// broadcasts:
///
///  * Knowledge: (broadcast position -> min-HC) pairs learned from received
///    index tables, kept per segment; within a segment HC grows with
///    position, so knowledge brackets the HC content of unvisited frames.
///  * Targets: the HC values the query must still confirm (window target
///    segments, or the cells under the current kNN search circle).
///  * Coverage: once a frame's objects are all retrieved and the next frame
///    boundary is known, its HC span is confirmed and removed from targets.
///  * Navigation: energy-efficient forwarding (EEF) emerges from the hop
///    rule "follow the farthest table entry whose skipped gap provably
///    cannot intersect the pending targets"; the aggressive kNN strategy
///    instead hops to the advertised frame spatially closest to the query
///    point, accepting next-cycle revisits (Section 3.4).
///
/// Link errors: a lost table is recovered by reading the next frame's table
/// (the fully distributed structure at work); a lost object bucket simply
/// leaves its frame's span unconfirmed, so the loop revisits it next cycle.
///
/// Hot-path design: the pending targets and the kNN radius are kept state,
/// updated where they change instead of rebuilt per hop. A window or point
/// query subtracts its coverage from its targets once, then removes each
/// newly confirmed span in place (PendingTargets, ranges shape). A kNN query
/// never decomposes its circle: the hop rules ask whether a gap of the
/// coverage reaches a cell of the disc (PendingTargets, disc shape), and the
/// radius is the k-th element of an ordered multiset of candidate bounds
/// that learning, retrieval and coverage update (KnnSearch). Knowledge is a
/// per-segment bitmap with a summary word per 64 bitmap words, so the
/// bracket lookups skip empty stretches in a few word operations. Debug
/// builds recompute the pending state the slow way on every hop and assert
/// that the kept state matches.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "broadcast/client.hpp"
#include "common/geometry.hpp"
#include "dsi/index.hpp"
#include "dsi/layout.hpp"
#include "hilbert/interval_set.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::core {

/// kNN search-space strategies of Section 3.4.
enum class KnnStrategy {
  kConservative,  ///< Visit every frame that may hold a candidate.
  kAggressive,    ///< Hop toward the query point; revisit skipped ranges.
};

/// Per-query diagnostics (metrics proper come from the ClientSession).
struct QueryStats {
  uint64_t tables_read = 0;
  uint64_t objects_read = 0;
  uint64_t buckets_lost = 0;
  uint64_t hops = 0;
  bool completed = true;  ///< False if the query was aborted.
  /// True if the broadcast was republished mid-query: every learned table,
  /// SegmentKnowledge entry and coverage interval referred to the dead
  /// layout, so the client aborted with partial results. Re-issue the query
  /// with a fresh client bound to the new generation's index.
  bool stale = false;
};

/// Flat (offset -> min-HC) knowledge for one broadcast segment. Offsets are
/// dense in [0, segment length), so knowledge is a direct-indexed value
/// array plus a presence bitmap: recording is O(1). A summary word per 64
/// bitmap words (one bit per non-empty word) lets the predecessor/successor
/// queries the navigation rules ask per hop skip empty stretches in a few
/// word operations instead of scanning the bitmap word by word.
class SegmentKnowledge {
 public:
  /// \param length Segment length in frames; offsets are < length. The
  /// value array is left uninitialized — the bitmap is the source of truth.
  void Init(uint32_t length) {
    length_ = length;
    words_ = (length + 63) / 64;
    hc_.reset(new uint64_t[length_ > 0 ? length_ : 1]);
    bits_.assign(words_ + (words_ + 63) / 64, 0);
  }

  /// Records \p hc at \p off; true if the offset was not known before.
  bool Record(uint32_t off, uint64_t hc) {
    const uint64_t bit = uint64_t{1} << (off % 64);
    const bool fresh = (bits_[off / 64] & bit) == 0;
    bits_[off / 64] |= bit;
    bits_[words_ + off / 4096] |= uint64_t{1} << ((off / 64) % 64);
    hc_[off] = hc;
    return fresh;
  }

  /// Value of the last known offset <= \p off, or nullopt.
  std::optional<uint64_t> FloorValue(uint32_t off) const {
    size_t w = off / 64;
    uint64_t word = bits_[w] & ((uint64_t{2} << (off % 64)) - 1);
    if (word == 0) {
      w = LastNonEmptyWordBelow(w);
      if (w == kNone) return std::nullopt;
      word = bits_[w];
    }
    return hc_[w * 64 + (63 - std::countl_zero(word))];
  }

  /// Value of the first known offset > \p off, or nullopt.
  std::optional<uint64_t> CeilAboveValue(uint32_t off) const {
    size_t w = off / 64;
    uint64_t word = bits_[w] & ~((uint64_t{2} << (off % 64)) - 1);
    if (word == 0) {
      w = FirstNonEmptyWordAbove(w);
      if (w == kNone) return std::nullopt;
      word = bits_[w];
    }
    return hc_[w * 64 + std::countr_zero(word)];
  }

  /// Exact-offset lookup.
  std::optional<uint64_t> Find(uint32_t off) const {
    if ((bits_[off / 64] >> (off % 64)) & 1) return hc_[off];
    return std::nullopt;
  }

  /// Invokes \p f(offset, hc) for every known entry, ascending by offset.
  template <class F>
  void ForEachKnown(F&& f) const {
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t word = bits_[w]; word != 0; word &= word - 1) {
        const uint32_t off =
            static_cast<uint32_t>(w * 64 + std::countr_zero(word));
        f(off, hc_[off]);
      }
    }
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Index of the last non-empty bitmap word below \p w, or kNone.
  size_t LastNonEmptyWordBelow(size_t w) const {
    if (w == 0) return kNone;
    const size_t below = w - 1;
    size_t s = below / 64;
    uint64_t word = bits_[words_ + s] & ((uint64_t{2} << (below % 64)) - 1);
    while (word == 0) {
      if (s == 0) return kNone;
      word = bits_[words_ + --s];
    }
    return s * 64 + (63 - std::countl_zero(word));
  }

  /// Index of the first non-empty bitmap word above \p w, or kNone.
  size_t FirstNonEmptyWordAbove(size_t w) const {
    const size_t above = w + 1;
    if (above >= words_) return kNone;
    size_t s = above / 64;
    uint64_t word = bits_[words_ + s] & ~((uint64_t{1} << (above % 64)) - 1);
    while (word == 0) {
      if (words_ + ++s >= bits_.size()) return kNone;
      word = bits_[words_ + s];
    }
    return s * 64 + std::countr_zero(word);
  }

  uint32_t length_ = 0;
  size_t words_ = 0;                // presence bitmap words
  std::unique_ptr<uint64_t[]> hc_;  // by offset; valid where the bit is set
  // The presence bitmap (one bit per offset, words_ words) followed by its
  // summary (one bit per non-empty bitmap word), in one allocation.
  std::vector<uint64_t> bits_;
};

/// The HC values a running DSI query must still confirm: its targets minus
/// the client's confirmed coverage. The hop rules ask it only two things —
/// may a span of HC values hold a pending target, and is anything pending
/// at all — and it answers them in one of two shapes, both kept current as
/// coverage grows instead of being rebuilt per hop:
///
///  * Ranges (window and point queries, whose targets are fixed): the
///    normalized vector targets − coverage, computed once per query; each
///    newly confirmed span is subtracted in place (removing points from
///    maximal runs leaves maximal runs, so the vector stays normalized).
///  * Disc (kNN, whose search circle follows the radius): the disc and the
///    coverage itself, never decomposed. A span may hold a target iff some
///    gap of the coverage inside it reaches a cell of the disc
///    (SpaceMapper::DiscHitsCurveRange). Nothing assumes the disc only
///    shrinks — under loss the radius can grow.
class PendingTargets {
 public:
  /// The disc shape's state, owned by the running kNN query.
  struct Disc {
    const hilbert::SpaceMapper* mapper = nullptr;
    const hilbert::IntervalSet* covered = nullptr;  // read live
    common::Point center{};
    double radius = 0.0;
    /// Debug reference: the decomposed disc minus the coverage, recomputed
    /// the slow way; every MayIntersect answer until the next coverage
    /// growth is asserted against it. Unused under NDEBUG.
    std::vector<hilbert::HcRange> reference;
    bool reference_fresh = false;
  };

  /// Ranges shape: \p targets (normalized) minus \p covered.
  void AssignRanges(const std::vector<hilbert::HcRange>& targets,
                    const hilbert::IntervalSet& covered);
  /// Disc shape over \p disc, which must outlive the query (or the next
  /// Assign). Its coverage is read live, so coverage growth needs no
  /// notification, and the owner may move its radius between questions.
  void AssignDisc(Disc* disc);

  /// Coverage grew by \p r: drops it from the kept ranges (the disc shape
  /// keeps none).
  void Subtract(const hilbert::HcRange& r);

  /// May some pending HC value lie in [\p lo, \p hi_excl)? Inline for the
  /// ranges shape, which the multi-disk hop walk asks once per frame.
  bool MayIntersect(uint64_t lo, uint64_t hi_excl) const {
    return disc_ == nullptr ? RangesIntersect(ranges_, lo, hi_excl)
                            : DiscMayIntersect(lo, hi_excl);
  }
  /// Nothing left to confirm.
  bool Empty() const;

  /// The kept ranges (ranges shape only).
  const std::vector<hilbert::HcRange>& ranges() const { return ranges_; }

 private:
  /// Does the normalized vector \p ranges meet [\p lo, \p hi_excl)?
  static bool RangesIntersect(const std::vector<hilbert::HcRange>& ranges,
                              uint64_t lo, uint64_t hi_excl) {
    if (lo >= hi_excl) return false;
    auto it = std::lower_bound(
        ranges.begin(), ranges.end(), lo,
        [](const hilbert::HcRange& r, uint64_t v) { return r.hi < v; });
    return it != ranges.end() && it->lo < hi_excl;
  }
  bool DiscMayIntersect(uint64_t lo, uint64_t hi_excl) const;

  std::vector<hilbert::HcRange> ranges_;
  Disc* disc_ = nullptr;  // disc shape iff non-null
};

/// Query execution against a DSI broadcast. One client serves one query —
/// or, kept alive on the same session, a stream of them (the paper's
/// moving client re-issuing queries as it travels): SegmentKnowledge, the
/// learned-table bitmap, confirmed coverage and retrieved objects all
/// describe the broadcast content itself, so they stay valid across
/// queries within one generation and shrink each follow-up search. Call
/// BeginQuery() before every re-evaluation; when session->generation()
/// advances, the knowledge describes a dead layout — discard the client
/// and build a fresh one against the new generation's index.
class DsiClient {
 public:
  /// \param session A fresh session (InitialProbe not yet called); the
  /// client performs the probe itself.
  DsiClient(const DsiIndex& index, broadcast::ClientSession* session);

  /// Arms the next query of a continuous client: clears the per-query
  /// completed/stale flags (the search loop re-arms its own watchdog).
  /// Learned knowledge is kept — it is what makes the warm client cheap.
  void BeginQuery() {
    stats_.completed = true;
    stats_.stale = false;
  }

  /// Point query via EEF: returns every object whose HC value equals that
  /// of the cell containing \p p, i.e. all objects located in that cell.
  std::vector<datasets::SpatialObject> PointQuery(const common::Point& p);

  /// Window query (Algorithm 1): all objects inside \p window.
  std::vector<datasets::SpatialObject> WindowQuery(const common::Rect& window);

  /// kNN query (Algorithm 2 / Section 3.4).
  std::vector<datasets::SpatialObject> KnnQuery(
      const common::Point& q, size_t k,
      KnnStrategy strategy = KnnStrategy::kConservative);

  const QueryStats& stats() const { return stats_; }

 private:
  // --- on-air reads -------------------------------------------------------
  /// Dozes to the next table at/after the session's current slot, reads it
  /// into table_ (skipping ahead frame by frame past link errors), learns
  /// its content. Returns false only if the watchdog expires.
  bool ReadNextTable();
  /// Dozes to the table of \p position and reads it into table_ (with loss
  /// recovery, which may land on a *different*, later table).
  bool ReadTableAt(uint32_t position);
  /// Reads all object buckets of the frame at \p position (whose table was
  /// just read, own min-HC \p own_hc); records retrieved objects and
  /// confirms coverage when complete.
  void ReadFrameObjects(uint32_t position, uint64_t own_hc);

  // --- knowledge ----------------------------------------------------------
  void Learn(const DsiTableView& table);
  /// The single place coverage grows: adds \p r to covered_ and updates the
  /// kept pending state (ranges, kNN adverts) to match.
  void AddCoverage(const hilbert::HcRange& r);
  /// Adds the advertised min-HC \p hc to the running kNN query's radius
  /// bounds unless coverage already superseded it.
  void LearnAdvert(uint64_t hc);
  uint64_t SegmentDomainLo(uint32_t seg) const;
  uint64_t SegmentDomainHiExcl(uint32_t seg) const;
  /// Largest known min-HC at offset <= off in segment (domain lo if none).
  uint64_t LowerBoundHc(uint32_t seg, uint32_t off) const;
  /// Smallest known min-HC at offset > off in segment (domain hi if none).
  uint64_t UpperBoundHcExcl(uint32_t seg, uint32_t off) const;
  /// Exact min-HC of the next frame in the segment, if known (domain hi
  /// when \p off is the segment's last frame).
  std::optional<uint64_t> NextFrameHcExcl(uint32_t seg, uint32_t off) const;

  // --- retrieved objects ---------------------------------------------------
  /// Ranks (= ids into index_.sorted_objects()) retrieved so far, sorted.
  /// Object payloads are never copied: the simulated read is paid through
  /// the session and the data comes from the server-side store.
  bool Retrieved(uint32_t rank) const;
  void MarkRetrieved(uint32_t rank);

  // --- relevance reasoning -------------------------------------------------
  /// May the frame at \p position hold objects in \p pending?
  bool FrameMayIntersect(uint32_t position,
                         const PendingTargets& pending) const;
  /// May any frame at a position strictly inside the cyclic gap
  /// (\p from_pos, \p to_pos) hold objects in \p pending?
  bool GapMayIntersect(uint32_t from_pos, uint32_t to_pos,
                       const PendingTargets& pending) const;

  // --- navigation ----------------------------------------------------------
  /// Farthest entry whose skipped gap provably misses \p pending.
  uint32_t SelectConservativeHop(const DsiTableView& table,
                                 const PendingTargets& pending) const;
  /// Entry whose advertised frame is spatially closest to \p q among those
  /// not already covered; falls back to the conservative rule.
  uint32_t SelectAggressiveHop(const DsiTableView& table,
                               const PendingTargets& pending,
                               const common::Point& q) const;

  /// Shared search loop: sweeps frames until pending_ — armed by the
  /// caller for this query (AssignRanges, or AssignDisc plus knn_) — is
  /// empty. Coverage growth updates pending_ in place (AddCoverage); the
  /// kNN radius is re-read from knn_ after every learning step. Aggressive
  /// kNN passes \p spatial_goal.
  void RunSearch(const common::Point* spatial_goal);
  /// Re-reads the kNN radius into the search disc after a learning step;
  /// in Debug builds also recomputes the pending state from scratch and
  /// asserts that the kept state matches.
  void RefreshPending();
#ifndef NDEBUG
  /// The old per-hop rebuild, kept as the Debug reference: the k-th
  /// smallest candidate bound over a full scan of retrieved objects and
  /// uncovered adverts.
  double FullScanKnnRadius() const;
#endif

  bool WatchdogExpired() const;
  /// The session advanced past the generation this client's knowledge was
  /// learned from (dynamic broadcasts): checked after every failed read,
  /// since every stored slot number and HC bracket is then meaningless.
  bool SessionStale() const;

  const DsiIndex& index_;
  broadcast::ClientSession* session_;
  ReorgLayout layout_;
  uint64_t generation_ = 0;  // broadcast generation the knowledge refers to
  uint64_t hc_cells_;  // total number of HC values (domain size)

  // Learned knowledge: per segment, sorted (offset, min-HC) entries.
  std::vector<SegmentKnowledge> known_;
  // Broadcast positions whose table was already learned (table content is
  // deterministic per position, so re-reads skip the record pass).
  std::vector<bool> learned_tables_;
  // Frames whose objects are all retrieved and whose span is confirmed:
  // nothing left to learn there, so the multi-disk nearest-frame hop must
  // not revisit them (a hot done-frame with a still-loose upper HC bound
  // would otherwise win the wait race forever — the bound only tightens by
  // reading OTHER tables).
  std::vector<bool> frames_done_;
  bool heads_known_ = false;

  hilbert::IntervalSet covered_;
  std::vector<uint32_t> retrieved_ranks_;  // sorted object ranks
  QueryStats stats_;
  uint64_t deadline_packets_ = 0;

  /// State of the running kNN query: its search disc (center q) and the
  /// disc's radius, the k-th smallest element of an ordered multiset of
  /// candidate upper bounds — the exact distance of every retrieved object
  /// and the cell max-distance of every advertised min-HC not yet covered.
  /// Learn adds an advert when it first records its offset, MarkRetrieved
  /// adds the exact distance, AddCoverage retires the adverts it covers
  /// (distinct frames never share a min-HC, so adverts are keyed by HC). A
  /// frame whose first object arrived but whose others were lost counts
  /// that object twice until it completes, so the radius can grow under
  /// loss.
  struct KnnSearch {
    size_t k = 0;
    PendingTargets::Disc disc;
    std::multiset<double> bounds;
    std::map<uint64_t, std::multiset<double>::iterator> adverts;  // by HC

    double Radius() const;
    /// Drops the adverts whose HC lies in \p r (now covered).
    void Retire(const hilbert::HcRange& r);
  };
  std::unique_ptr<KnnSearch> knn_;  // set only while a kNN query runs

  // Per-query search state, reused across queries: the most recently
  // received table, the target ranges of a window or point query and
  // what of them (or of the kNN disc) is still pending.
  DsiTableView table_;
  std::vector<hilbert::HcRange> targets_;
  PendingTargets pending_;
};

}  // namespace dsi::core
