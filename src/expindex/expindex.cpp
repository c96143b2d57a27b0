#include "expindex/expindex.hpp"

#include "broadcast/airing_order.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dsi::expindex {

namespace {

constexpr uint64_t kWatchdogCycles = 200;

}  // namespace

ExpIndex::ExpIndex(std::vector<uint64_t> keys, size_t packet_capacity,
                   const ExpConfig& config)
    : config_(config), keys_(std::move(keys)), program_(packet_capacity) {
  // An empty key set builds an empty (zero-cycle) program; RunWorkload
  // guards it — never construct a ClientSession over it.
  assert(config_.index_base >= 2);
  assert(config_.chunk_size >= 1);
  std::sort(keys_.begin(), keys_.end());
  const auto n = static_cast<uint32_t>(keys_.size());

  // Chunk formation: nominal chunk_size keys, never splitting equal-key
  // runs (same tie discipline as DSI frames; keeps chunk minima strictly
  // increasing so containment reasoning is exact).
  uint32_t start = 0;
  while (start < n) {
    chunk_first_.push_back(start);
    uint32_t end = std::min(n, start + config_.chunk_size);
    while (end < n && keys_[end] == keys_[end - 1]) ++end;
    start = end;
  }
  chunk_first_.push_back(n);
  num_chunks_ = static_cast<uint32_t>(chunk_first_.size() - 1);

  for (uint64_t reach = 1; reach < num_chunks_;
       reach *= config_.index_base) {
    reach_.push_back(static_cast<uint32_t>(reach));
  }
  table_bytes_ =
      config_.key_bytes +
      entries_per_table() * (config_.key_bytes + common::kPointerBytes);

  table_slot_.resize(num_chunks_);
  first_item_slot_.resize(num_chunks_);
  for (uint32_t pos = 0; pos < num_chunks_; ++pos) {
    table_slot_[pos] = program_.AddBucket(
        broadcast::BucketKind::kDsiFrameTable, pos, table_bytes_);
    first_item_slot_[pos] = program_.num_buckets();
    for (uint32_t i = chunk_first_[pos]; i < chunk_first_[pos + 1]; ++i) {
      program_.AddBucket(broadcast::BucketKind::kDataObject, i,
                         config_.item_bytes);
    }
  }
  program_.Finalize();
}

std::vector<ExpTableEntry> ExpIndex::TableAt(uint32_t position) const {
  std::vector<ExpTableEntry> entries;
  entries.reserve(entries_per_table());
  for (uint32_t i = 0; i < entries_per_table(); ++i) {
    entries.push_back(EntryAt(position, i));
  }
  return entries;
}

ExpIndex::ChunkItems ExpIndex::ItemsAt(uint32_t position) const {
  assert(position < num_chunks_);
  ChunkItems ci;
  ci.first_slot = first_item_slot_[position];
  ci.first_rank = chunk_first_[position];
  ci.count = chunk_first_[position + 1] - chunk_first_[position];
  return ci;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

ExpClient::ExpClient(const ExpIndex& index, broadcast::ClientSession* session,
                     bool reuse_knowledge)
    : index_(index), session_(session), reuse_(reuse_knowledge) {
  session_->InitialProbe();
  generation_ = session_->generation();
  if (reuse_) {
    table_known_.assign(index_.num_chunks(), 0);
    key_known_.assign(index_.sorted_keys().size(), 0);
  }
}

bool ExpClient::SessionStale() const {
  return session_->generation() != generation_;
}

std::optional<uint32_t> ExpClient::ReadNextTable() {
  const auto& program = index_.program();
  const size_t nb = program.num_buckets();
  auto is_table = [&](size_t s) {
    return program.bucket(s).kind == broadcast::BucketKind::kDsiFrameTable;
  };
  while (!session_->WatchdogExpired()) {
    size_t slot;
    if (session_->program().multi_disk()) {
      // Logical slot order no longer tracks airing order: take the chunk
      // table airing soonest — the literal "next table the radio hears" —
      // instead of the logically next one, which may be tiers away.
      const std::optional<size_t> next = session_->FirstAiringWhere(is_table);
      if (!next) return std::nullopt;
      slot = *next;
    } else {
      slot = session_->current_slot();
      size_t guard = 0;
      while (!is_table(slot)) {
        slot = slot + 1 < nb ? slot + 1 : 0;
        if (++guard > nb) return std::nullopt;
      }
    }
    const uint32_t pos = program.bucket(slot).payload;
    // A continuous client that already holds this table reasons over it in
    // memory — no listen, no doze.
    if (reuse_ && table_known_[pos] != 0) return pos;
    if (session_->ReadBucket(slot)) {
      ++stats_.index_reads;
      if (reuse_) table_known_[pos] = 1;
      return pos;
    }
    if (SessionStale()) {
      stats_.stale = true;
      return std::nullopt;
    }
    ++stats_.buckets_lost;
  }
  return std::nullopt;
}

std::optional<uint32_t> ExpClient::Forward(uint32_t from, uint64_t key) {
  // Cyclic key arithmetic: rel(x) = x - anchor (unsigned wraparound) gives
  // the forward distance along the sorted-and-wrapped key axis.
  const uint32_t entries = index_.entries_per_table();
  uint32_t pos = from;
  while (!session_->WatchdogExpired()) {
    if (entries == 0) return pos;  // single-chunk broadcast
    const uint64_t cur_min = index_.ChunkMinKey(pos);
    const uint64_t rel_key = key - cur_min;
    // Containment: key before the next chunk's minimum.
    if (rel_key < index_.EntryAt(pos, 0).min_key - cur_min) return pos;
    // Farthest entry that does not overshoot. On a multi-disk cycle the
    // two farthest qualifying entries compete on airing wait: the runner-up
    // sits at half the leader's exponential distance, so taking it still
    // cuts the remaining distance geometrically (the chain stays
    // logarithmic), and it often airs a whole tier sooner than a leader
    // that would cost a cross-tier doze. Entry 0 does not overshoot
    // (checked above), so the scan stops there at the latest.
    uint32_t farthest = entries - 1;
    while (farthest > 0 &&
           index_.EntryAt(pos, farthest).min_key - cur_min > rel_key) {
      --farthest;
    }
    uint32_t next = index_.EntryAt(pos, farthest).position;
    if (session_->program().multi_disk() && farthest > 0) {
      const uint32_t runner_up = index_.EntryAt(pos, farthest - 1).position;
      if (session_->PacketsUntil(index_.TableSlot(runner_up)) <
          session_->PacketsUntil(index_.TableSlot(next))) {
        next = runner_up;
      }
    }
    // Hop: read the chosen chunk's table (loss recovery may land later;
    // that is fine — forwarding re-evaluates from wherever it lands). A
    // remembered table makes the hop instantaneous.
    if (reuse_ && table_known_[next] != 0) {
      pos = next;
      continue;
    }
    if (session_->ReadBucket(index_.TableSlot(next))) {
      ++stats_.index_reads;
      if (reuse_) table_known_[next] = 1;
      pos = next;
    } else {
      if (SessionStale()) {
        stats_.stale = true;
        return std::nullopt;
      }
      ++stats_.buckets_lost;
      const auto recovered = ReadNextTable();
      if (!recovered) return std::nullopt;
      pos = *recovered;
    }
  }
  return std::nullopt;
}

std::vector<uint32_t> ExpClient::Lookup(uint64_t key) {
  auto out = RangeQuery(key, key);
  return out;
}

std::vector<uint32_t> ExpClient::RangeQuery(uint64_t lo, uint64_t hi) {
  assert(lo <= hi);
  // Each 1-D query gets a fresh watchdog budget. Spatial adapters issue
  // many range scans per spatial query; time legitimately spent on earlier
  // scans must not starve a later one into a phantom abort (the watchdog
  // exists to bound a *stuck* scan, not to cap useful work).
  session_->ArmWatchdog(kWatchdogCycles);
  std::vector<uint32_t> out;
  const auto first_table = ReadNextTable();
  if (!first_table) {
    stats_.completed = false;
    return out;
  }
  const auto start = Forward(*first_table, lo);
  if (!start) {
    stats_.completed = false;
    return out;
  }

  // Sequential scan: read chunks while they can contain keys in [lo, hi].
  // One listen attempt per bucket as it streams by; losses are deferred to
  // a sweep after the walk (blocking mid-scan would waste a full cycle per
  // lost bucket and, under heavy loss, turn bounded work into a watchdog
  // abort). The walk itself is bounded by one lap of the cycle.
  uint32_t pos = *start;
  bool have_table = true;  // Forward() received the start chunk's table
  uint32_t visited = 0;
  broadcast::AiringSet missing;  // lost items; a pick's id is the rank
  while (visited < index_.num_chunks()) {
    ++visited;
    // Retrieve this chunk's items — all of them: only the chunk minimum is
    // known before listening, the item keys come with the payloads — then
    // filter by key.
    const auto items = index_.ItemsAt(pos);
    for (uint32_t i = 0; i < items.count; ++i) {
      const uint32_t rank = items.first_rank + i;
      // A continuous client already holding this item's key filters it in
      // memory; the radio stays off until the next unknown bucket.
      if (reuse_ && key_known_[rank] != 0) {
        const uint64_t key = index_.sorted_keys()[rank];
        if (key >= lo && key <= hi) out.push_back(rank);
        continue;
      }
      if (session_->ReadBucket(items.first_slot + i)) {
        ++stats_.object_reads;
        if (reuse_) key_known_[rank] = 1;
        const uint64_t key = index_.sorted_keys()[rank];
        if (key >= lo && key <= hi) out.push_back(rank);
      } else {
        if (SessionStale()) {
          stats_.stale = true;
          stats_.completed = false;
          return out;  // partial: the layout the scan walked is gone
        }
        ++stats_.buckets_lost;
        missing.Insert(*session_, items.first_slot + i);
      }
    }
    // Stop check needs this chunk's table (entry 0 = the next chunk's
    // minimum). When the table was lost the scan keeps going — the next
    // chunk is structurally known, its items are filtered by key anyway,
    // and the next received table restores the check.
    if (have_table) {
      if (index_.entries_per_table() == 0) break;  // single-chunk broadcast
      // Cyclic: the next chunk starts past hi.
      if (index_.EntryAt(pos, 0).min_key - lo > hi - lo) break;
    }
    if (visited == index_.num_chunks()) break;  // full lap: nothing ahead
    const uint32_t next = pos + 1 < index_.num_chunks() ? pos + 1 : 0;
    if (reuse_ && table_known_[next] != 0) {
      have_table = true;
      pos = next;
      continue;
    }
    if (session_->ReadBucket(index_.TableSlot(next))) {
      ++stats_.index_reads;
      if (reuse_) table_known_[next] = 1;
      have_table = true;
    } else {
      if (SessionStale()) {
        stats_.stale = true;
        stats_.completed = false;
        return out;
      }
      ++stats_.buckets_lost;
      have_table = false;
    }
    pos = next;
  }
  // Sweep the lost items in passing order until none remain; every lap of
  // the cycle retries all of them.
  while (!missing.empty()) {
    if (session_->WatchdogExpired() || stats_.stale) {
      stats_.completed = false;
      return out;
    }
    const broadcast::AiringSet::Pick next = missing.Soonest(*session_);
    if (session_->ReadBucket(next.slot)) {
      ++stats_.object_reads;
      const uint32_t rank = next.id;
      if (reuse_) key_known_[rank] = 1;
      const uint64_t key = index_.sorted_keys()[rank];
      if (key >= lo && key <= hi) out.push_back(rank);
      missing.Erase(*session_, next.slot);
    } else {
      if (SessionStale()) {
        stats_.stale = true;
        stats_.completed = false;
        return out;
      }
      ++stats_.buckets_lost;
    }
  }
  return out;
}

}  // namespace dsi::expindex
