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
/// coverage reaches a cell of the disc (PendingTargets, disc shape). Its
/// radius is the k-th smallest candidate bound, kept in a vector sorted by
/// bound that holds only the bounds that can matter; an advert learned at
/// or above the radius is parked in an unordered vector instead, and is
/// promoted only if the radius grows past it (KnnBounds). Retrieved objects
/// are a bitmap over object ranks, read back in rank order. Tables are read
/// in place: the client keeps only the current table's position and reads
/// entry i through DsiIndex::EntryPosition and FrameMinHcAtPosition, so no
/// table is built per read. The EEF hop tests the farthest entry, then
/// gallops up from entry 0 and bisects: entry reaches 1, r, r², ... are all
/// below the frame count, so the skipped gaps are nested, the entries whose
/// gap provably misses the targets form a prefix, and the farthest of them
/// is found in a logarithmic number of gap tests — three when a window
/// query's dense sweep picks entry 1. Knowledge is a per-segment bitmap
/// with a summary word per 64 bitmap words, so the bracket lookups skip
/// empty stretches in a few word operations. Debug builds recompute the
/// pending state and the hop the slow way on every hop and assert that the
/// kept state matches.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "air/air_index.hpp"
#include "broadcast/client.hpp"
#include "common/geometry.hpp"
#include "common/two_level_bitmap.hpp"
#include "dsi/index.hpp"
#include "dsi/layout.hpp"
#include "hilbert/interval_set.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::core {

/// (offset -> min-HC) knowledge for one broadcast segment: a presence
/// bitmap (common::TwoLevelBitmap) over the segment's dense offsets. The
/// value of a known offset is read in place from the index's by-position
/// array, so clients keep no copy. Recording is one bit, and the
/// predecessor/successor queries the navigation rules ask per hop skip
/// empty stretches in a few word operations.
class SegmentKnowledge {
 public:
  /// \param length Segment length in frames; offsets are < length.
  /// \param values The segment's min-HC values in place: offset o's value
  /// is values[o * stride] (a DSI segment s of m airs offset o at position
  /// o*m + s, so values is the by-position array plus s and stride is m).
  void Init(uint32_t length, const uint64_t* values, uint32_t stride) {
    values_ = values;
    stride_ = stride;
    known_.Reset(length);
  }

  /// Marks \p off known; true if it was not known before.
  bool Record(uint32_t off) { return known_.set(off); }

  /// Value of the last known offset <= \p off, or nullopt.
  std::optional<uint64_t> FloorValue(uint32_t off) const {
    const size_t at = known_.PrevAtOrBelow(off);
    if (at == common::TwoLevelBitmap::kNone) return std::nullopt;
    return Value(at);
  }

  /// Value of the first known offset > \p off, or nullopt.
  std::optional<uint64_t> CeilAboveValue(uint32_t off) const {
    const size_t at = known_.NextAtOrAfter(size_t{off} + 1);
    if (at == common::TwoLevelBitmap::kNone) return std::nullopt;
    return Value(at);
  }

  /// Exact-offset lookup.
  std::optional<uint64_t> Find(uint32_t off) const {
    if (known_.test(off)) return Value(off);
    return std::nullopt;
  }

  /// Invokes \p f(offset, hc) for every known entry, ascending by offset.
  template <class F>
  void ForEachKnown(F&& f) const {
    known_.ForEach(
        [&](size_t off) { f(static_cast<uint32_t>(off), Value(off)); });
  }

 private:
  uint64_t Value(size_t off) const { return values_[off * stride_]; }

  const uint64_t* values_ = nullptr;  // read only where known_ is set
  uint32_t stride_ = 1;
  common::TwoLevelBitmap known_;
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
    /// Where a descent last found a disc cell, inside the gap it asked.
    /// Empty() asks that gap (or the next one, if coverage has since
    /// reached it) before the others: it usually still holds the cell.
    /// Empty() is one boolean over all gaps, so the order never changes an
    /// answer.
    uint64_t last_hit = 0;
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
  /// Disc shape: is nothing pending, asking the gap of Disc::last_hit first?
  bool DiscEmpty() const;

  std::vector<hilbert::HcRange> ranges_;
  Disc* disc_ = nullptr;  // disc shape iff non-null
};

/// The radius of a running kNN query: the k-th smallest of its candidate
/// upper bounds — the exact distance of every retrieved object and the cell
/// max-distance of every advertised min-HC not yet covered. Adverts are
/// keyed by HC (distinct frames never share a min-HC); objects carry the
/// sentinel kObjectHc and are never retired. A frame whose first object
/// arrived but whose others were lost counts that object twice until it
/// completes, so the radius can grow under loss.
///
/// Most adverts are learned at or above the radius and can never be the
/// k-th smallest while it stays put, so only the bounds below it go into
/// the live vector, sorted by bound; the rest are parked in an unordered
/// vector that tracks its minimum. Invariant: every parked bound is >=
/// radius, so the live vector's k-th smallest is the k-th smallest over all
/// uncovered bounds. Adding can only lower the radius. Retiring can raise
/// it (only loss makes it grow); then the parked bounds now below it are
/// promoted in ascending bound order, covered ones dropped, for as long as
/// they stay below the radius that each promotion may lower. The "nothing
/// to promote" check is one comparison with the parked minimum, so the
/// parked vector is scanned only when the radius grows past it.
class KnnBounds {
 public:
  /// HC of an object's bound: outside every HC range, so never retired.
  static constexpr uint64_t kObjectHc = UINT64_MAX;

  explicit KnnBounds(size_t k) : k_(k) {}

  size_t k() const { return k_; }
  /// The k-th smallest uncovered bound (infinity if there are fewer).
  double radius() const { return radius_; }

  /// Adds a retrieved object's exact distance \p bound.
  void AddObject(double bound) { Insert({bound, kObjectHc}); }
  /// Adds the uncovered advert \p hc with bound \p bound, or parks it.
  void AddAdvert(uint64_t hc, double bound);
  /// Coverage grew by \p r (already added to \p covered): drops the adverts
  /// whose HC lies in \p r and promotes the uncovered parked bounds the
  /// radius grew past; returns how many.
  uint64_t Retire(const hilbert::HcRange& r,
                  const hilbert::IntervalSet& covered);

 private:
  struct Bound {
    double bound;
    uint64_t hc;
  };
  /// Adds \p b to the live vector and lowers the radius to match.
  void Insert(const Bound& b);
  double KthBound() const {
    return live_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : live_[k_ - 1].bound;
  }

  size_t k_;
  std::vector<Bound> live_;    // ascending by bound
  std::vector<Bound> parked_;  // unordered; every bound >= radius_
  double parked_min_ = std::numeric_limits<double>::infinity();
  double radius_ = std::numeric_limits<double>::infinity();
};

/// Query execution against a DSI broadcast. One client serves one query —
/// or, kept alive on the same session, a stream of them (the paper's
/// moving client re-issuing queries as it travels): SegmentKnowledge, the
/// learned-table bitmap, confirmed coverage and retrieved objects all
/// describe the broadcast content itself, so they stay valid across
/// queries within one generation and shrink each follow-up search. Call
/// BeginQuery() before every re-evaluation; when session->generation()
/// advances, the knowledge describes a dead layout — discard the client
/// and build a fresh one against the new generation's index. Every search
/// arms the session's watchdog budget (200 on-air cycles per disk).
class DsiClient final : public air::AirClient {
 public:
  /// \param session A fresh session (InitialProbe not yet called); the
  /// client performs the probe itself.
  DsiClient(const DsiIndex& index, broadcast::ClientSession* session);

  /// Arms the next query of a continuous client: clears the per-query
  /// completed/stale flags (each search re-arms the session's watchdog
  /// budget).
  /// Learned knowledge is kept — it is what makes the warm client cheap.
  void BeginQuery() override {
    stats_.completed = true;
    stats_.stale = false;
  }

  /// Point query via EEF: returns every object whose HC value equals that
  /// of the cell containing \p p, i.e. all objects located in that cell.
  std::vector<datasets::SpatialObject> PointQuery(const common::Point& p);

  /// Window query (Algorithm 1): all objects inside \p window.
  std::vector<datasets::SpatialObject> WindowQuery(
      const common::Rect& window) override;

  /// kNN query (Algorithm 2) with either search-space strategy of
  /// Section 3.4.
  std::vector<datasets::SpatialObject> KnnQuery(
      const common::Point& q, size_t k, air::KnnStrategy strategy) override;
  using AirClient::KnnQuery;

  /// Index tables read count as index_reads.
  const air::ClientStats& stats() const override { return stats_; }
  /// Hops taken over the client's lifetime (every query it served).
  uint64_t hops() const { return hops_; }
  /// Parked kNN bounds moved into the live radius bounds because the radius
  /// grew past them (only loss makes the radius grow), over the client's
  /// lifetime.
  uint64_t bounds_promoted() const { return bounds_promoted_; }

 private:
  // --- on-air reads -------------------------------------------------------
  /// Dozes to the next table at/after the session's current slot, reads it
  /// (skipping ahead frame by frame past link errors), sets table_pos_ and
  /// learns its content. Returns false only if the watchdog expires.
  bool ReadNextTable();
  /// Dozes to the table of \p position and reads it (with loss recovery,
  /// which may land on a *different*, later table).
  bool ReadTableAt(uint32_t position);
  /// Reads all object buckets of the frame at \p position (whose table was
  /// just read, own min-HC \p own_hc); records retrieved objects and
  /// confirms coverage when complete.
  void ReadFrameObjects(uint32_t position, uint64_t own_hc);

  // --- knowledge ----------------------------------------------------------
  /// Records the table carried by the frame at \p position, entries read
  /// in place from the index.
  void Learn(uint32_t position);
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
  /// Adds \p rank to the retrieved set (and its distance to a running kNN
  /// query's bounds).
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
  /// Target of the farthest entry of the table at \p position whose
  /// skipped gap provably misses \p pending.
  uint32_t SelectConservativeHop(uint32_t position,
                                 const PendingTargets& pending) const;
#ifndef NDEBUG
  /// The old farthest-first linear scan, kept as the Debug reference for
  /// the galloping pick.
  uint32_t LinearConservativeHop(uint32_t position,
                                 const PendingTargets& pending) const;
#endif
  /// Target of the entry of the table at \p position whose advertised frame
  /// is spatially closest to \p q among those not already covered; falls
  /// back to the conservative rule.
  uint32_t SelectAggressiveHop(uint32_t position,
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

  /// The session advanced past the generation this client's knowledge was
  /// learned from (dynamic broadcasts): checked after every failed read,
  /// since every stored slot number and HC bracket is then meaningless.
  bool SessionStale() const;

  const DsiIndex& index_;
  broadcast::ClientSession* session_;
  ReorgLayout layout_;
  uint64_t generation_ = 0;  // broadcast generation the knowledge refers to
  uint64_t hc_cells_;  // total number of HC values (domain size)

  // Learned knowledge: per segment, which offsets' min-HC values are known.
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
  /// Ranks (= ids into index_.sorted_objects()) retrieved so far. Object
  /// payloads are never copied: the simulated read is paid through the
  /// session and the data comes from the server-side store.
  common::TwoLevelBitmap retrieved_;
  air::ClientStats stats_;
  uint64_t hops_ = 0;
  uint64_t bounds_promoted_ = 0;

  /// State of the running kNN query: its search disc (center q) and the
  /// bounds that set the disc's radius. MarkRetrieved adds an object's
  /// exact distance, Learn adds an advert when it first records its offset,
  /// and AddCoverage retires the adverts it covers.
  struct KnnSearch {
    explicit KnnSearch(size_t k) : bounds(k) {}
    PendingTargets::Disc disc;  // disc.covered is the client's coverage
    KnnBounds bounds;
  };
  std::unique_ptr<KnnSearch> knn_;  // set only while a kNN query runs

  // Per-query search state, reused across queries: the position of the
  // most recently received table, the target ranges of a window or point
  // query and what of them (or of the kNN disc) is still pending.
  uint32_t table_pos_ = 0;
  std::vector<hilbert::HcRange> targets_;
  PendingTargets pending_;
};

}  // namespace dsi::core
