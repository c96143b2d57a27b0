#pragma once

/// \file index.hpp
/// \brief Server-side construction of the Distributed Spatial Index (DSI):
/// frame formation, exponential index tables, broadcast(-reorganized)
/// program generation (Sections 3.1 and 3.5 of the paper).
///
/// Terminology:
///  * objects are sorted by Hilbert value and grouped into nF frames of
///    `object_factor` objects each; frame f's min-HC is HC'_f;
///  * the *broadcast position* p in [0, nF) is where a frame goes on air.
///    With m = 1 position == frame rank; with m-segment reorganization the
///    cycle interleaves the m equal segments (Figure 7);
///  * every frame carries an index table whose entry i points r^i positions
///    ahead and advertises that frame's min-HC.

#include <cassert>
#include <cstdint>
#include <vector>

#include "broadcast/program.hpp"
#include "common/sizes.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::core {

/// Build-time configuration of a DSI broadcast.
struct DsiConfig {
  /// Exponential index base r; the paper fixes r = 2 in the evaluation.
  uint32_t index_base = 2;

  /// Objects per frame (no). 0 selects the paper's packet-size-driven
  /// derivation (one packet per table: nF = r^(entries that fit), see
  /// Section 4); the default 1 is the paper's running assumption and is
  /// what reproduces the reported magnitudes (see EXPERIMENTS.md).
  uint32_t object_factor = 1;

  /// Number of interleaved broadcast segments m; 1 = original HC-ascending
  /// order, 2 = the reorganized broadcast used in the evaluation.
  uint32_t num_segments = 1;

  /// Bytes used to serialize one HC value inside an index table. 0 (the
  /// default) packs the cell index (2*order bits, i.e. ceil(order/4)
  /// bytes), which keeps full-cycle tables near one packet. 16 reproduces
  /// Section 4's field accounting literally; note the paper's 16-byte HC
  /// values are incompatible with its own one-packet-per-table design for
  /// any realistic frame count (see EXPERIMENTS.md for the analysis).
  uint32_t table_hc_bytes = 0;
};

/// One index-table entry as decoded by a client: the advertised min-HC of
/// the pointed frame and its broadcast position (the on-air encoding is a
/// 2-byte forward offset; positions are the decoded equivalent).
struct DsiTableEntry {
  uint64_t hc_min = 0;
  uint32_t position = 0;  ///< Broadcast position of the pointed frame.
};

/// Everything a client decodes from one received index table.
struct DsiTableView {
  uint32_t position = 0;      ///< Broadcast position of the carrying frame.
  uint64_t own_hc_min = 0;    ///< Min-HC of the carrying frame.
  std::vector<DsiTableEntry> entries;  ///< Entry i points r^i ahead.
};

/// A built DSI broadcast: frames, tables, and the broadcast program.
class DsiIndex {
 public:
  /// Builds the index and program. \p objects need not be sorted; an empty
  /// set yields an empty (zero-cycle) program that RunWorkload guards —
  /// never construct a ClientSession over it. \p mapper defines the Hilbert
  /// mapping shared with clients.
  DsiIndex(std::vector<datasets::SpatialObject> objects,
           const hilbert::SpaceMapper& mapper, size_t packet_capacity,
           const DsiConfig& config);

  /// The paper-motivated incremental republication path: derives the next
  /// generation's index from \p prev by merging \p ops into its HC-sorted
  /// object sequence — O(n + u log u) with no re-sort, the fully
  /// distributed structure's cheap-update claim made executable. The result
  /// is structurally identical to a full rebuild from the updated object
  /// set (asserted by tests); DiffGenerations quantifies how much of the
  /// cycle actually changed.
  static DsiIndex Republish(const DsiIndex& prev,
                            const std::vector<datasets::UpdateOp>& ops);

  const DsiConfig& config() const { return config_; }
  const hilbert::SpaceMapper& mapper() const { return mapper_; }
  const broadcast::BroadcastProgram& program() const { return program_; }

  uint32_t num_frames() const { return num_frames_; }
  uint32_t object_factor() const { return object_factor_; }
  uint32_t entries_per_table() const {
    return static_cast<uint32_t>(reach_.size());
  }

  /// Objects in Hilbert broadcast order (rank order).
  const std::vector<datasets::SpatialObject>& sorted_objects() const {
    return objects_;
  }
  /// Hilbert value of the rank-th sorted object.
  uint64_t object_hc(size_t rank) const { return object_hcs_[rank]; }

  /// Frame rank (HC order) -> broadcast position, and back.
  uint32_t FrameRankToPosition(uint32_t rank) const;
  uint32_t PositionToFrameRank(uint32_t position) const;

  /// Min-HC of the frame at a broadcast position: one load.
  uint64_t FrameMinHcAtPosition(uint32_t position) const {
    assert(position < num_frames_);
    return min_hc_by_position_[position];
  }

  /// Every frame's min-HC, indexed by broadcast position.
  const std::vector<uint64_t>& min_hc_by_position() const {
    return min_hc_by_position_;
  }

  /// Broadcast position that entry \p i of the table at \p position points
  /// to: r^i frames ahead, cyclically. Every reach is below num_frames(), so
  /// the wrap is one compare-subtract. The entry's advertised min-HC is
  /// FrameMinHcAtPosition of the result; this pair is the single definition
  /// of a table entry that clients read in place and TableAt assembles.
  uint32_t EntryPosition(uint32_t position, uint32_t i) const {
    assert(position < num_frames_ && i < reach_.size());
    const uint32_t target = position + reach_[i];
    return target >= num_frames_ ? target - num_frames_ : target;
  }

  /// Min-HC values of the m segment head frames (broadcast positions
  /// 0..m-1); carried in every table so clients can resolve sub-channels.
  const std::vector<uint64_t>& segment_head_hcs() const {
    return segment_head_hcs_;
  }

  /// The index table carried by the frame at \p position, as a client
  /// decodes it (wire encoders, DiffGenerations and inspection tools; the
  /// query client reads entries in place through EntryPosition).
  DsiTableView TableAt(uint32_t position) const;

  /// Assembles the table into \p out, reusing its entry storage.
  void TableAt(uint32_t position, DsiTableView* out) const;

  /// Program slot of the table bucket of the frame at \p position.
  size_t TableSlot(uint32_t position) const;

  /// Program slots of the object buckets of the frame at \p position, in
  /// on-air order; paired with the rank of each carried object.
  struct FrameObjects {
    size_t first_slot = 0;
    uint32_t first_rank = 0;
    uint32_t count = 0;
  };
  FrameObjects ObjectsAt(uint32_t position) const;

  /// Serialized size of one index table in bytes.
  uint32_t table_bytes() const { return table_bytes_; }

  /// Bytes of one serialized HC value in tables (resolved from config).
  uint32_t table_hc_bytes() const { return table_hc_bytes_; }

 private:
  struct SortedTag {};
  /// Republish fast path: \p objects already HC-sorted (ties by id).
  DsiIndex(SortedTag, std::vector<datasets::SpatialObject> objects,
           const hilbert::SpaceMapper& mapper, size_t packet_capacity,
           const DsiConfig& config);
  /// Shared build: objects_/object_hcs_ sorted and filled.
  void BuildFromSorted(size_t packet_capacity);

  DsiConfig config_;
  const hilbert::SpaceMapper& mapper_;
  std::vector<datasets::SpatialObject> objects_;  // HC-sorted
  std::vector<uint64_t> object_hcs_;              // parallel to objects_
  uint32_t num_frames_ = 0;
  uint32_t object_factor_ = 1;
  uint32_t table_bytes_ = 0;
  uint32_t table_hc_bytes_ = 0;
  std::vector<uint32_t> frame_first_rank_;  // frame rank -> first object rank
  std::vector<uint64_t> min_hc_by_position_;  // frame min-HC by position
  std::vector<uint32_t> reach_;  // entry i's reach r^i, all < num_frames_
  std::vector<uint32_t> rank_to_position_;
  std::vector<uint32_t> position_to_rank_;
  std::vector<uint64_t> segment_head_hcs_;
  std::vector<size_t> table_slot_;         // by position
  std::vector<size_t> first_object_slot_;  // by position
  broadcast::BroadcastProgram program_;
};

/// How much of the broadcast cycle a republication actually changed —
/// the server-side cost of an incremental update (only changed buckets
/// need re-serialization and cache invalidation) versus the full-rebuild
/// baseline that re-emits the whole cycle.
struct RepublishDelta {
  uint32_t frames_total = 0;    ///< Frames in the new generation.
  uint32_t frames_changed = 0;  ///< Frames with any changed bucket.
  uint64_t bytes_changed = 0;   ///< table_bytes_changed + data_bytes_changed.
  uint64_t bytes_total = 0;     ///< Full cycle bytes of the new generation.
  uint64_t table_bytes_changed = 0;  ///< Re-stamped index tables.
  uint64_t data_bytes_changed = 0;   ///< Re-serialized object payloads.
};

/// Quantifies a republication. Data buckets are compared by CONTENT — a
/// serialized object payload is identical whenever the same (id, location)
/// existed in the previous generation, so the server reuses it no matter
/// where the layout shift moved it; only inserted and moved objects cost
/// new data bytes. Index tables are compared positionally (decoded content
/// plus the segment-head preamble): they encode the layout itself, so rank
/// shifts genuinely re-stamp them — the structural price of the
/// exponential tables that this delta makes visible.
RepublishDelta DiffGenerations(const DsiIndex& prev, const DsiIndex& next);

}  // namespace dsi::core
