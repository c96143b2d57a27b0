#include "dsi/index.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "dsi/layout.hpp"

namespace dsi::core {

DsiIndex::DsiIndex(std::vector<datasets::SpatialObject> objects,
                   const hilbert::SpaceMapper& mapper, size_t packet_capacity,
                   const DsiConfig& config)
    : config_(config),
      mapper_(mapper),
      objects_(std::move(objects)),
      program_(packet_capacity) {
  assert(config_.index_base >= 2);
  // Sort objects by Hilbert value (ties broken by id for determinism).
  std::sort(objects_.begin(), objects_.end(),
            [&](const datasets::SpatialObject& a,
                const datasets::SpatialObject& b) {
              const uint64_t ha = mapper_.PointToIndex(a.location);
              const uint64_t hb = mapper_.PointToIndex(b.location);
              return ha != hb ? ha < hb : a.id < b.id;
            });
  object_hcs_.resize(objects_.size());
  for (size_t i = 0; i < objects_.size(); ++i) {
    object_hcs_[i] = mapper_.PointToIndex(objects_[i].location);
  }
  BuildFromSorted(packet_capacity);
}

DsiIndex::DsiIndex(SortedTag, std::vector<datasets::SpatialObject> objects,
                   const hilbert::SpaceMapper& mapper, size_t packet_capacity,
                   const DsiConfig& config)
    : config_(config),
      mapper_(mapper),
      objects_(std::move(objects)),
      program_(packet_capacity) {
  object_hcs_.resize(objects_.size());
  for (size_t i = 0; i < objects_.size(); ++i) {
    object_hcs_[i] = mapper_.PointToIndex(objects_[i].location);
    assert(i == 0 || object_hcs_[i - 1] < object_hcs_[i] ||
           (object_hcs_[i - 1] == object_hcs_[i] &&
            objects_[i - 1].id < objects_[i].id));
  }
  BuildFromSorted(packet_capacity);
}

DsiIndex DsiIndex::Republish(const DsiIndex& prev,
                             const std::vector<datasets::UpdateOp>& ops) {
  // Replay the stream against the previous generation's HC-sorted sequence:
  // each base object is either untouched (keeps its slot in the sorted
  // order), deleted, or displaced (moved — its Hilbert key changes); fresh
  // and displaced objects are sorted among themselves and merged back in.
  // One linear merge instead of a full re-sort: the incremental
  // republication cost the paper's distributed structure was built for.
  enum class State : uint8_t { kKeep, kDrop, kDisplaced };
  const std::vector<datasets::SpatialObject>& base = prev.sorted_objects();
  std::unordered_map<uint32_t, size_t> base_rank;
  base_rank.reserve(base.size());
  for (size_t i = 0; i < base.size(); ++i) base_rank.emplace(base[i].id, i);

  std::vector<State> state(base.size(), State::kKeep);
  // Fresh-id objects live here until a later op deletes or moves them.
  std::vector<datasets::SpatialObject> fresh;
  auto find_fresh = [&](uint32_t id) {
    for (size_t i = 0; i < fresh.size(); ++i) {
      if (fresh[i].id == id) return i;
    }
    return fresh.size();
  };
  std::vector<common::Point> displaced_loc(base.size());
  for (const datasets::UpdateOp& op : ops) {
    switch (op.kind) {
      case datasets::UpdateKind::kInsert:
        fresh.push_back(datasets::SpatialObject{op.id, op.location});
        break;
      case datasets::UpdateKind::kDelete: {
        if (auto it = base_rank.find(op.id); it != base_rank.end()) {
          state[it->second] = State::kDrop;
        } else if (const size_t i = find_fresh(op.id); i < fresh.size()) {
          fresh.erase(fresh.begin() + static_cast<ptrdiff_t>(i));
        }
        break;
      }
      case datasets::UpdateKind::kMove: {
        if (auto it = base_rank.find(op.id); it != base_rank.end()) {
          state[it->second] = State::kDisplaced;
          displaced_loc[it->second] = op.location;
        } else if (const size_t i = find_fresh(op.id); i < fresh.size()) {
          fresh[i].location = op.location;
        }
        break;
      }
    }
  }

  // Changed objects (fresh + displaced), sorted by the rebuild's order.
  const hilbert::SpaceMapper& mapper = prev.mapper();
  std::vector<datasets::SpatialObject> changed = std::move(fresh);
  for (size_t i = 0; i < base.size(); ++i) {
    if (state[i] == State::kDisplaced) {
      changed.push_back(datasets::SpatialObject{base[i].id, displaced_loc[i]});
    }
  }
  auto hc_id_less = [&](const datasets::SpatialObject& a,
                        const datasets::SpatialObject& b) {
    const uint64_t ha = mapper.PointToIndex(a.location);
    const uint64_t hb = mapper.PointToIndex(b.location);
    return ha != hb ? ha < hb : a.id < b.id;
  };
  std::sort(changed.begin(), changed.end(), hc_id_less);

  std::vector<datasets::SpatialObject> merged;
  merged.reserve(base.size() + changed.size());
  size_t ci = 0;
  for (size_t i = 0; i < base.size(); ++i) {
    if (state[i] != State::kKeep) continue;
    while (ci < changed.size() && hc_id_less(changed[ci], base[i])) {
      merged.push_back(changed[ci++]);
    }
    merged.push_back(base[i]);
  }
  while (ci < changed.size()) merged.push_back(changed[ci++]);

  return DsiIndex(SortedTag{}, std::move(merged), mapper,
                  prev.program().packet_capacity(), prev.config());
}

void DsiIndex::BuildFromSorted(size_t packet_capacity) {
  assert(config_.index_base >= 2);
  const auto n = static_cast<uint32_t>(objects_.size());

  // Serialized HC width in tables: packed cell index by default (2*order
  // bits), or an explicit override (16 = the paper's literal field size).
  table_hc_bytes_ =
      config_.table_hc_bytes != 0
          ? config_.table_hc_bytes
          : std::max<uint32_t>(
                1, (static_cast<uint32_t>(mapper_.curve().order()) + 3) / 4);
  const uint32_t entry_bytes = table_hc_bytes_ + common::kPointerBytes;

  // Object factor. object_factor == 0 selects the paper's packet-driven
  // derivation (one packet per table => nF = r^(entries that fit)).
  if (config_.object_factor == 0) {
    const auto cap = static_cast<uint32_t>(packet_capacity);
    const uint32_t usable = cap > table_hc_bytes_ ? cap - table_hc_bytes_ : 0;
    const uint32_t fit = std::max<uint32_t>(1, usable / entry_bytes);
    uint64_t frames = 1;
    for (uint32_t i = 0; i < fit && frames < n; ++i) {
      frames *= config_.index_base;
    }
    object_factor_ = static_cast<uint32_t>(
        n == 0 ? 1 : (n + frames - 1) / frames);
  } else {
    object_factor_ = config_.object_factor;
  }

  // Frame formation: nominal object_factor objects per frame, but a run of
  // equal HC values is never split across frames. This keeps frame min-HCs
  // strictly increasing, which clients rely on to confirm coverage of HC
  // ranges (see client.cpp). An empty object set forms zero frames and an
  // empty program (nothing to put on air).
  frame_first_rank_.clear();
  {
    uint32_t start = 0;
    while (start < n) {
      frame_first_rank_.push_back(start);
      uint32_t end = std::min(n, start + object_factor_);
      while (end < n && object_hcs_[end] == object_hcs_[end - 1]) ++end;
      start = end;
    }
    frame_first_rank_.push_back(n);
  }
  num_frames_ = static_cast<uint32_t>(frame_first_rank_.size() - 1);

  // Entries per table: all i with r^i < nF (full-cycle exponential cover).
  reach_.clear();
  for (uint64_t reach = 1; reach < num_frames_;
       reach *= config_.index_base) {
    reach_.push_back(static_cast<uint32_t>(reach));
  }

  // Broadcast reorganization (Section 3.5): round-robin interleave of m
  // balanced segments of the HC-sorted frame sequence. ReorgLayout is the
  // structural single source of truth shared with clients.
  const ReorgLayout layout(num_frames_, config_.num_segments);
  const uint32_t m = layout.m;
  rank_to_position_.assign(num_frames_, 0);
  position_to_rank_.assign(num_frames_, 0);
  min_hc_by_position_.assign(num_frames_, 0);
  for (uint32_t rank = 0; rank < num_frames_; ++rank) {
    const uint32_t pos = layout.RankToPosition(rank);
    rank_to_position_[rank] = pos;
    position_to_rank_[pos] = rank;
    min_hc_by_position_[pos] = object_hcs_[frame_first_rank_[rank]];
    assert(rank == 0 || object_hcs_[frame_first_rank_[rank]] >
                            object_hcs_[frame_first_rank_[rank - 1]]);
  }

  // Segment s's head (offset 0) airs at position s.
  segment_head_hcs_.assign(
      min_hc_by_position_.begin(),
      min_hc_by_position_.begin() + (num_frames_ > 0 ? m : 0));

  // Table byte size: own min-HC + (for reorganized broadcasts) the m
  // segment-head HC values + the exponential entries.
  table_bytes_ = table_hc_bytes_ + (m > 1 ? m * table_hc_bytes_ : 0) +
                 entries_per_table() * entry_bytes;

  // Emit the program: per position, one table bucket then the frame's
  // object buckets.
  table_slot_.resize(num_frames_);
  first_object_slot_.resize(num_frames_);
  for (uint32_t pos = 0; pos < num_frames_; ++pos) {
    const uint32_t rank = position_to_rank_[pos];
    table_slot_[pos] = program_.AddBucket(
        broadcast::BucketKind::kDsiFrameTable, pos, table_bytes_);
    first_object_slot_[pos] = program_.num_buckets();
    for (uint32_t i = frame_first_rank_[rank]; i < frame_first_rank_[rank + 1];
         ++i) {
      program_.AddBucket(broadcast::BucketKind::kDataObject, i,
                         common::kDataObjectBytes);
    }
  }
  program_.Finalize();
}

uint32_t DsiIndex::FrameRankToPosition(uint32_t rank) const {
  assert(rank < num_frames_);
  return rank_to_position_[rank];
}

uint32_t DsiIndex::PositionToFrameRank(uint32_t position) const {
  assert(position < num_frames_);
  return position_to_rank_[position];
}

DsiTableView DsiIndex::TableAt(uint32_t position) const {
  DsiTableView view;
  TableAt(position, &view);
  return view;
}

void DsiIndex::TableAt(uint32_t position, DsiTableView* out) const {
  out->position = position;
  out->own_hc_min = FrameMinHcAtPosition(position);
  out->entries.clear();
  out->entries.reserve(entries_per_table());
  for (uint32_t i = 0; i < entries_per_table(); ++i) {
    const uint32_t target = EntryPosition(position, i);
    out->entries.push_back(
        DsiTableEntry{FrameMinHcAtPosition(target), target});
  }
}

size_t DsiIndex::TableSlot(uint32_t position) const {
  assert(position < num_frames_);
  return table_slot_[position];
}

DsiIndex::FrameObjects DsiIndex::ObjectsAt(uint32_t position) const {
  assert(position < num_frames_);
  const uint32_t rank = position_to_rank_[position];
  FrameObjects fo;
  fo.first_slot = first_object_slot_[position];
  fo.first_rank = frame_first_rank_[rank];
  fo.count = frame_first_rank_[rank + 1] - frame_first_rank_[rank];
  return fo;
}

RepublishDelta DiffGenerations(const DsiIndex& prev, const DsiIndex& next) {
  RepublishDelta d;
  d.frames_total = next.num_frames();
  d.bytes_total = next.program().cycle_bytes();
  const uint64_t capacity = next.program().packet_capacity();
  // Segment heads ride every table (m > 1): a head change re-stamps them all.
  const bool heads_same = prev.segment_head_hcs() == next.segment_head_hcs();

  // Data payloads are content-addressed: the serialized bucket of an
  // unchanged (id, location) object is byte-identical wherever the layout
  // shift moved it. Both generations are HC-sorted with id tiebreaks, so
  // one sorted walk pairs survivors.
  std::unordered_map<uint32_t, common::Point> prev_loc;
  prev_loc.reserve(prev.sorted_objects().size());
  for (const datasets::SpatialObject& o : prev.sorted_objects()) {
    prev_loc.emplace(o.id, o.location);
  }

  DsiTableView prev_table;
  DsiTableView next_table;
  for (uint32_t pos = 0; pos < next.num_frames(); ++pos) {
    const bool have_prev = pos < prev.num_frames();
    bool frame_changed = false;

    bool table_same = have_prev && heads_same;
    if (table_same) {
      prev.TableAt(pos, &prev_table);
      next.TableAt(pos, &next_table);
      table_same = prev_table.own_hc_min == next_table.own_hc_min &&
                   prev_table.entries.size() == next_table.entries.size();
      for (size_t i = 0; table_same && i < next_table.entries.size(); ++i) {
        table_same = prev_table.entries[i].hc_min ==
                         next_table.entries[i].hc_min &&
                     prev_table.entries[i].position ==
                         next_table.entries[i].position;
      }
    }
    if (!table_same) {
      frame_changed = true;
      d.table_bytes_changed +=
          next.program().bucket(next.TableSlot(pos)).packets * capacity;
    }

    const DsiIndex::FrameObjects nf = next.ObjectsAt(pos);
    for (uint32_t i = 0; i < nf.count; ++i) {
      const datasets::SpatialObject& no =
          next.sorted_objects()[nf.first_rank + i];
      const auto it = prev_loc.find(no.id);
      const bool same = it != prev_loc.end() &&
                        it->second.x == no.location.x &&
                        it->second.y == no.location.y;
      if (!same) {
        frame_changed = true;
        d.data_bytes_changed +=
            next.program().bucket(nf.first_slot + i).packets * capacity;
      }
    }
    if (frame_changed) ++d.frames_changed;
  }
  d.bytes_changed = d.table_bytes_changed + d.data_bytes_changed;
  return d;
}

}  // namespace dsi::core
