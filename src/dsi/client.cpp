#include "dsi/client.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

namespace dsi::core {

namespace {

/// Watchdog: abort queries that fail to finish within this many broadcast
/// cycles (only reachable under extreme link-error rates). On a multi-disk
/// cycle the budget additionally scales with the disk count: the flat
/// sweep retries every pending frame once per cycle, but the permuted
/// layout serializes endgame retries (each lost cold frame costs its own
/// doze to a once-per-cycle airing), so worst-case recovery stretches by
/// about that factor.
constexpr uint64_t kWatchdogCycles = 200;

/// Aggressive kNN falls back to the conservative hop rule after this many
/// cycles so skipped ranges are eventually swept deterministically (the
/// paper's running example finishes in ~1.5 cycles).
constexpr uint64_t kAggressiveFallbackCycles = 2;

}  // namespace

// ---------------------------------------------------------------------------
// Pending targets
// ---------------------------------------------------------------------------

void PendingTargets::AssignRanges(const std::vector<hilbert::HcRange>& targets,
                                  const hilbert::IntervalSet& covered) {
  covered.SubtractInto(targets, &ranges_);
  disc_ = nullptr;
}

void PendingTargets::AssignDisc(Disc* disc) {
  ranges_.clear();
  disc_ = disc;
}

void PendingTargets::Subtract(const hilbert::HcRange& r) {
  if (disc_ != nullptr) {
    disc_->reference_fresh = false;
    return;
  }
  // Ranges overlapping r form one run [first, last); at most its two ends
  // survive, trimmed to the parts outside r.
  auto first = std::lower_bound(
      ranges_.begin(), ranges_.end(), r.lo,
      [](const hilbert::HcRange& a, uint64_t v) { return a.hi < v; });
  auto last = first;
  while (last != ranges_.end() && last->lo <= r.hi) ++last;
  if (first == last) return;
  hilbert::HcRange keep[2];
  size_t n = 0;
  if (first->lo < r.lo) keep[n++] = {first->lo, r.lo - 1};
  if (std::prev(last)->hi > r.hi) keep[n++] = {r.hi + 1, std::prev(last)->hi};
  if (n <= static_cast<size_t>(last - first)) {
    ranges_.erase(std::copy(keep, keep + n, first), last);
  } else {  // r splits one range in two
    *first = keep[0];
    ranges_.insert(std::next(first), keep[1]);
  }
}

bool PendingTargets::DiscMayIntersect(uint64_t lo, uint64_t hi_excl) const {
  if (lo >= hi_excl) return false;
  const uint64_t hi = hi_excl - 1;
  const Disc& d = *disc_;
  // Walk the gaps of the coverage inside [lo, hi]; each asks the disc.
  const std::vector<hilbert::HcRange>& cov = d.covered->ranges();
  auto it = std::lower_bound(
      cov.begin(), cov.end(), lo,
      [](const hilbert::HcRange& a, uint64_t v) { return a.hi < v; });
  bool hit = false;
  for (uint64_t cur = lo; cur <= hi; cur = it++->hi + 1) {
    if (it == cov.end() || it->lo > hi) {
      hit = d.mapper->DiscHitsCurveRange(d.center, d.radius, cur, hi);
      break;
    }
    if (it->lo > cur &&
        d.mapper->DiscHitsCurveRange(d.center, d.radius, cur, it->lo - 1)) {
      hit = true;
      break;
    }
  }
  assert(d.reference_fresh && hit == RangesIntersect(d.reference, lo, hi_excl));
  return hit;
}

bool PendingTargets::Empty() const {
  if (disc_ == nullptr) return ranges_.empty();
  return !MayIntersect(0, disc_->mapper->curve().num_cells());
}

DsiClient::DsiClient(const DsiIndex& index, broadcast::ClientSession* session)
    : index_(index),
      session_(session),
      layout_(index.num_frames(), index.config().num_segments),
      hc_cells_(index.mapper().curve().num_cells()),
      known_(layout_.m),
      learned_tables_(index.num_frames(), false),
      frames_done_(index.num_frames(), false) {
  for (uint32_t s = 0; s < layout_.m; ++s) {
    known_[s].Init(layout_.SegmentLength(s));
  }
}

// ---------------------------------------------------------------------------
// Public queries
// ---------------------------------------------------------------------------

std::vector<datasets::SpatialObject> DsiClient::PointQuery(
    const common::Point& p) {
  const uint64_t h = index_.mapper().PointToIndex(p);
  targets_.assign(1, hilbert::HcRange{h, h});
  pending_.AssignRanges(targets_, covered_);
  RunSearch(nullptr);
  std::vector<datasets::SpatialObject> out;
  for (const uint32_t rank : retrieved_ranks_) {
    if (index_.object_hc(rank) == h) {
      out.push_back(index_.sorted_objects()[rank]);
    }
  }
  return out;
}

std::vector<datasets::SpatialObject> DsiClient::WindowQuery(
    const common::Rect& window) {
  index_.mapper().WindowToRanges(window, &targets_);
  pending_.AssignRanges(targets_, covered_);
  RunSearch(nullptr);
  std::vector<datasets::SpatialObject> out;
  for (const uint32_t rank : retrieved_ranks_) {
    const datasets::SpatialObject& obj = index_.sorted_objects()[rank];
    if (window.Contains(obj.location)) out.push_back(obj);
  }
  return out;
}

std::vector<datasets::SpatialObject> DsiClient::KnnQuery(
    const common::Point& q, size_t k, KnnStrategy strategy) {
  if (k == 0) return {};  // degenerate: the empty set, no listening needed

  // Seed the radius bounds from what a warm client already knows; from
  // here on Learn, MarkRetrieved and AddCoverage keep them current.
  knn_ = std::make_unique<KnnSearch>();
  knn_->k = k;
  knn_->disc.mapper = &index_.mapper();
  knn_->disc.covered = &covered_;
  knn_->disc.center = q;
  for (const uint32_t rank : retrieved_ranks_) {
    knn_->bounds.insert(
        common::Distance(q, index_.sorted_objects()[rank].location));
  }
  for (const SegmentKnowledge& seg : known_) {
    seg.ForEachKnown([&](uint32_t, uint64_t hc) { LearnAdvert(hc); });
  }
  pending_.AssignDisc(&knn_->disc);

  RunSearch(strategy == KnnStrategy::kAggressive ? &q : nullptr);
  pending_ = PendingTargets();  // drop the pointer into the state freed next
  knn_.reset();

  // Answer: the k nearest retrieved objects.
  std::vector<datasets::SpatialObject> out;
  out.reserve(retrieved_ranks_.size());
  for (const uint32_t rank : retrieved_ranks_) {
    out.push_back(index_.sorted_objects()[rank]);
  }
  std::sort(out.begin(), out.end(),
            [&](const datasets::SpatialObject& a,
                const datasets::SpatialObject& b) {
              const double da = common::SquaredDistance(q, a.location);
              const double db = common::SquaredDistance(q, b.location);
              return da != db ? da < db : a.id < b.id;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

double DsiClient::KnnSearch::Radius() const {
  if (bounds.size() < k) return std::numeric_limits<double>::infinity();
  return *std::next(bounds.begin(), static_cast<ptrdiff_t>(k - 1));
}

void DsiClient::KnnSearch::Retire(const hilbert::HcRange& r) {
  const auto first = adverts.lower_bound(r.lo);
  const auto last = adverts.upper_bound(r.hi);
  for (auto it = first; it != last; ++it) bounds.erase(it->second);
  adverts.erase(first, last);
}

void DsiClient::LearnAdvert(uint64_t hc) {
  if (covered_.Intersects(hilbert::HcRange{hc, hc})) return;
  const double bound =
      index_.mapper().MaxDistanceToIndex(knn_->disc.center, hc);
  knn_->adverts.emplace(hc, knn_->bounds.insert(bound));
}

// ---------------------------------------------------------------------------
// Search driver
// ---------------------------------------------------------------------------

void DsiClient::RunSearch(const common::Point* spatial_goal) {
  session_->InitialProbe();
  generation_ = session_->generation();
  deadline_packets_ = session_->now_packets() +
                      kWatchdogCycles * session_->program().num_disks() *
                          session_->program().cycle_packets();
  const uint64_t aggressive_deadline =
      session_->now_packets() +
      kAggressiveFallbackCycles * index_.program().cycle_packets();

  if (!ReadNextTable()) {
    stats_.completed = false;
    return;
  }

  while (true) {
    RefreshPending();
    if (pending_.Empty()) return;

    if (FrameMayIntersect(table_.position, pending_)) {
      ReadFrameObjects(table_.position, table_.own_hc_min);
      if (stats_.stale) {
        stats_.completed = false;
        return;
      }
      RefreshPending();
      if (pending_.Empty()) return;
    }

    if (WatchdogExpired()) {
      stats_.completed = false;
      return;
    }

    const bool aggressive =
        spatial_goal != nullptr &&
        session_->now_packets() < aggressive_deadline;
    const uint32_t next_pos =
        aggressive ? SelectAggressiveHop(table_, pending_, *spatial_goal)
                   : SelectConservativeHop(table_, pending_);
    ++stats_.hops;
    if (!ReadTableAt(next_pos)) {
      stats_.completed = false;
      return;
    }
  }
}

void DsiClient::RefreshPending() {
  if (knn_) knn_->disc.radius = knn_->Radius();
#ifndef NDEBUG
  if (!knn_) {
    std::vector<hilbert::HcRange> reference;
    covered_.SubtractInto(targets_, &reference);
    assert(reference == pending_.ranges());
    return;
  }
  PendingTargets::Disc& disc = knn_->disc;
  assert(disc.radius == FullScanKnnRadius());
  covered_.SubtractInto(
      index_.mapper().CircleToRanges(disc.center, disc.radius),
      &disc.reference);
  disc.reference_fresh = true;
#endif
}

#ifndef NDEBUG
double DsiClient::FullScanKnnRadius() const {
  const common::Point& q = knn_->disc.center;
  std::vector<double> uppers;
  for (const uint32_t rank : retrieved_ranks_) {
    uppers.push_back(
        common::Distance(q, index_.sorted_objects()[rank].location));
  }
  for (const SegmentKnowledge& seg : known_) {
    seg.ForEachKnown([&](uint32_t, uint64_t hc) {
      if (!covered_.Intersects(hilbert::HcRange{hc, hc})) {
        uppers.push_back(index_.mapper().MaxDistanceToIndex(q, hc));
      }
    });
  }
  if (uppers.size() < knn_->k) return std::numeric_limits<double>::infinity();
  std::nth_element(uppers.begin(), uppers.begin() + (knn_->k - 1),
                   uppers.end());
  return uppers[knn_->k - 1];
}
#endif

bool DsiClient::WatchdogExpired() const {
  return session_->now_packets() >= deadline_packets_;
}

bool DsiClient::SessionStale() const {
  return session_->generation() != generation_;
}

// ---------------------------------------------------------------------------
// On-air reads
// ---------------------------------------------------------------------------

bool DsiClient::ReadNextTable() {
  const auto& program = index_.program();
  const size_t nb = program.num_buckets();
  while (!WatchdogExpired()) {
    // Find the next table bucket at or after the session's position. The
    // scan is structural: every on-air packet carries the offset to the
    // next index table in its header. On a coded multi-disk cycle logical
    // order does not track airing order, so take the table airing soonest
    // instead of the logically next one, which may be tiers away. Uncoded
    // multi-disk cycles still resume in logical order: their lossy bytes
    // are pinned by the disk goldens and the city-dyn benchmark (ROADMAP).
    size_t slot = session_->current_slot();
    const broadcast::BroadcastProgram& on_air = session_->program();
    if (on_air.multi_disk() && on_air.coded()) {
      const std::optional<size_t> next =
          session_->FirstAiringWhere([&](size_t s) {
            return program.bucket(s).kind ==
                   broadcast::BucketKind::kDsiFrameTable;
          });
      if (!next) return false;  // no table in program
      slot = *next;
    }
    size_t guard = 0;
    while (program.bucket(slot).kind != broadcast::BucketKind::kDsiFrameTable) {
      slot = (slot + 1) % nb;
      if (++guard > nb) return false;  // no table in program
    }
    if (session_->ReadBucket(slot)) {
      ++stats_.tables_read;
      index_.TableAt(program.bucket(slot).payload, &table_);
      Learn(table_);
      return true;
    }
    if (SessionStale()) {
      // Republished mid-query: the slot vocabulary just died with the old
      // layout — no further reads under it.
      stats_.stale = true;
      return false;
    }
    ++stats_.buckets_lost;
    // Link error: resume from the next frame's table (fully distributed
    // recovery, Section 5).
  }
  return false;
}

bool DsiClient::ReadTableAt(uint32_t position) {
  if (session_->ReadBucket(index_.TableSlot(position))) {
    ++stats_.tables_read;
    index_.TableAt(position, &table_);
    Learn(table_);
    return true;
  }
  if (SessionStale()) {
    stats_.stale = true;
    return false;
  }
  ++stats_.buckets_lost;
  return ReadNextTable();
}

void DsiClient::ReadFrameObjects(uint32_t position, uint64_t own_hc) {
  const DsiIndex::FrameObjects fo = index_.ObjectsAt(position);
  bool all_present = true;
  uint64_t max_hc = own_hc;
  for (uint32_t i = 0; i < fo.count; ++i) {
    const uint32_t rank = fo.first_rank + i;
    if (!Retrieved(rank)) {
      if (session_->ReadBucket(fo.first_slot + i)) {
        MarkRetrieved(rank);
        ++stats_.objects_read;
      } else {
        if (SessionStale()) {
          stats_.stale = true;
          return;
        }
        ++stats_.buckets_lost;
        all_present = false;
        continue;
      }
    }
    max_hc = std::max(max_hc, index_.object_hc(rank));
  }
  if (!all_present) return;  // span unconfirmed; revisited next cycle

  // Confirm the frame's HC span. Frames never split equal-HC runs, so all
  // dataset objects with HC in [own_hc, max_hc] live in this frame; if the
  // next frame boundary is known the whole [own_hc, next) span is confirmed.
  const uint32_t seg = layout_.SegmentOfPosition(position);
  const uint32_t off = layout_.OffsetOfPosition(position);
  if (const std::optional<uint64_t> next = NextFrameHcExcl(seg, off)) {
    assert(*next > own_hc);
    AddCoverage(hilbert::HcRange{own_hc, *next - 1});
  } else {
    AddCoverage(hilbert::HcRange{own_hc, max_hc});
  }
  frames_done_[position] = true;
}

// ---------------------------------------------------------------------------
// Knowledge
// ---------------------------------------------------------------------------

void DsiClient::Learn(const DsiTableView& table) {
  if (!heads_known_) {
    heads_known_ = true;  // every table carries the segment head HC values
    // The head of segment 0 is the global minimum HC value: no object can
    // have a smaller one, so that prefix of the HC space is vacuously
    // covered.
    const uint64_t head0 = index_.segment_head_hcs().front();
    if (head0 > 0) AddCoverage(hilbert::HcRange{0, head0 - 1});
  }
  // A table's content is a pure function of its broadcast position, so
  // re-reading one (the EEF loop revisits tables constantly) teaches
  // nothing new — skip the entry recording wholesale.
  if (learned_tables_[table.position]) return;
  learned_tables_[table.position] = true;
  auto record = [&](uint32_t pos, uint64_t hc) {
    const bool fresh = known_[layout_.SegmentOfPosition(pos)].Record(
        layout_.OffsetOfPosition(pos), hc);
    if (knn_ && fresh) LearnAdvert(hc);
  };
  record(table.position, table.own_hc_min);
  for (const DsiTableEntry& e : table.entries) record(e.position, e.hc_min);
}

void DsiClient::AddCoverage(const hilbert::HcRange& r) {
  covered_.Add(r);
  pending_.Subtract(r);
  if (knn_) knn_->Retire(r);
}

uint64_t DsiClient::SegmentDomainLo(uint32_t seg) const {
  assert(heads_known_);
  return index_.segment_head_hcs()[seg];
}

uint64_t DsiClient::SegmentDomainHiExcl(uint32_t seg) const {
  assert(heads_known_);
  return seg + 1 < layout_.m ? index_.segment_head_hcs()[seg + 1] : hc_cells_;
}

uint64_t DsiClient::LowerBoundHc(uint32_t seg, uint32_t off) const {
  if (const auto v = known_[seg].FloorValue(off)) return *v;
  return SegmentDomainLo(seg);
}

uint64_t DsiClient::UpperBoundHcExcl(uint32_t seg, uint32_t off) const {
  if (const auto v = known_[seg].CeilAboveValue(off)) return *v;
  return SegmentDomainHiExcl(seg);
}

std::optional<uint64_t> DsiClient::NextFrameHcExcl(uint32_t seg,
                                                   uint32_t off) const {
  if (off + 1 >= layout_.SegmentLength(seg)) return SegmentDomainHiExcl(seg);
  return known_[seg].Find(off + 1);
}

// ---------------------------------------------------------------------------
// Retrieved objects
// ---------------------------------------------------------------------------

bool DsiClient::Retrieved(uint32_t rank) const {
  return std::binary_search(retrieved_ranks_.begin(), retrieved_ranks_.end(),
                            rank);
}

void DsiClient::MarkRetrieved(uint32_t rank) {
  auto it = std::lower_bound(retrieved_ranks_.begin(), retrieved_ranks_.end(),
                             rank);
  assert(it == retrieved_ranks_.end() || *it != rank);
  retrieved_ranks_.insert(it, rank);
  if (knn_) {
    knn_->bounds.insert(common::Distance(
        knn_->disc.center, index_.sorted_objects()[rank].location));
  }
}

// ---------------------------------------------------------------------------
// Relevance reasoning
// ---------------------------------------------------------------------------

bool DsiClient::FrameMayIntersect(uint32_t position,
                                  const PendingTargets& pending) const {
  const uint32_t seg = layout_.SegmentOfPosition(position);
  const uint32_t off = layout_.OffsetOfPosition(position);
  const uint64_t lo = LowerBoundHc(seg, off);
  const uint64_t hi_excl = UpperBoundHcExcl(seg, off);
  return pending.MayIntersect(lo, hi_excl);
}

bool DsiClient::GapMayIntersect(uint32_t from_pos, uint32_t to_pos,
                                const PendingTargets& pending) const {
  const uint32_t n = layout_.num_frames;
  const uint32_t gap = (to_pos + n - from_pos) % n;
  if (gap <= 1) return false;  // empty gap

  // Positions strictly between, as one or two linear windows.
  const uint32_t lo = (from_pos + 1) % n;
  const uint32_t hi = (to_pos + n - 1) % n;
  struct Window {
    uint32_t a, b;
  };
  Window windows[2];
  int nw = 0;
  if (lo <= hi) {
    windows[nw++] = {lo, hi};
  } else {
    windows[nw++] = {lo, n - 1};
    windows[nw++] = {0, hi};
  }

  for (int w = 0; w < nw; ++w) {
    const uint32_t a = windows[w].a;
    const uint32_t b = windows[w].b;
    for (uint32_t s = 0; s < layout_.m; ++s) {
      // Full-round positions of segment s are o*m + s for o in [0, base).
      if (layout_.base > 0) {
        const uint32_t o_lo = a <= s ? 0 : (a - s + layout_.m - 1) / layout_.m;
        const uint32_t o_hi_raw = b < s ? 0 : (b - s) / layout_.m;
        const bool has = b >= s && o_lo <= o_hi_raw && o_lo < layout_.base;
        if (has) {
          const uint32_t o_hi = std::min(o_hi_raw, layout_.base - 1);
          if (o_lo <= o_hi &&
              pending.MayIntersect(LowerBoundHc(s, o_lo),
                                   UpperBoundHcExcl(s, o_hi))) {
            return true;
          }
        }
      }
      // Tail round: position base*m + s exists iff s < extra.
      if (s < layout_.extra) {
        const uint32_t pt = layout_.base * layout_.m + s;
        if (a <= pt && pt <= b &&
            pending.MayIntersect(LowerBoundHc(s, layout_.base),
                                 UpperBoundHcExcl(s, layout_.base))) {
          return true;
        }
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Navigation
// ---------------------------------------------------------------------------

uint32_t DsiClient::SelectConservativeHop(
    const DsiTableView& table, const PendingTargets& pending) const {
  // A single-frame broadcast has an empty table (no frame to point at);
  // the only possible hop is the frame itself, next cycle — reachable when
  // a link error left part of the lone frame unretrieved.
  if (table.entries.empty()) return table.position;
  // Multi-disk cycles: frame position no longer tracks on-air order, so
  // the farthest-qualifying-gap rule below — tuned for a sequential sweep
  // — would pay an arbitrary doze on every hop. Visit instead the
  // possibly-relevant frame whose table airs soonest, over EVERY frame of
  // the cycle, not just the current table's exponential entries: the entry
  // list aims logarithmically far in logical order, and bouncing to a
  // listed-but-cold frame when an unlisted hot one airs first costs a doze
  // per hop. The walk goes over the on-air cycle's tables from now and
  // stops at the first candidate, so it tests only the frames airing
  // before it. Relevance uses only learned bounds (loose for unheard
  // frames) and the table airings are structural layout knowledge, the
  // same the flat client uses to resolve entry pointers. Confirmed-done
  // frames are excluded — they have nothing left to teach, and a hot one
  // whose loose upper bound still brushes pending would win the wait race
  // forever. Every pending target lies inside some not-done frame's
  // conservative bounds, so the walk always finds a candidate while
  // pending is non-empty; false positives tighten on read and the set
  // shrinks monotonically.
  if (session_->program().multi_disk()) {
    const broadcast::BroadcastProgram& program = index_.program();
    const std::optional<size_t> slot =
        session_->FirstAiringWhere([&](size_t s) {
          const broadcast::Bucket& b = program.bucket(s);
          return b.kind == broadcast::BucketKind::kDsiFrameTable &&
                 !frames_done_[b.payload] &&
                 FrameMayIntersect(b.payload, pending);
        });
    if (slot) return program.bucket(*slot).payload;
  }
  // Farthest entry whose skipped gap provably cannot hold pending targets.
  for (auto it = table.entries.rbegin(); it != table.entries.rend(); ++it) {
    if (!GapMayIntersect(table.position, it->position, pending)) {
      return it->position;
    }
  }
  // Entry 0 always qualifies (empty gap); defensive fallback.
  return table.entries.front().position;
}

uint32_t DsiClient::SelectAggressiveHop(const DsiTableView& table,
                                        const PendingTargets& pending,
                                        const common::Point& q) const {
  if (table.entries.empty()) return table.position;  // single-frame broadcast
  // Paper rule: follow the entry pointing to the frame closest to the query
  // point (fast search-space convergence; skipped ranges wrap to the next
  // cycle). Only frames that may still matter qualify — once the local
  // region is resolved the search degenerates to the conservative sweep
  // ("sequentially retrieving all the data objects located within the
  // search space", Section 3.4). Ties prefer the farther reach.
  double best = std::numeric_limits<double>::infinity();
  uint32_t best_pos = table.entries.front().position;
  bool found = false;
  for (auto it = table.entries.rbegin(); it != table.entries.rend(); ++it) {
    if (!FrameMayIntersect(it->position, pending)) continue;
    const double d = index_.mapper().MinDistanceToIndex(q, it->hc_min);
    if (d < best) {
      best = d;
      best_pos = it->position;
      found = true;
    }
  }
  return found ? best_pos : SelectConservativeHop(table, pending);
}

}  // namespace dsi::core
