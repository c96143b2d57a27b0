#pragma once

/// \file expindex.hpp
/// \brief The exponential index of Xu, Lee & Tang (MobiSys'04), cited by
/// the paper as the closest 1-D relative of DSI ("ideas of indexing the
/// attribute ranges of exponentially increasing number of data objects...
/// exponential index"): a fully distributed air index over a single sorted
/// attribute. Every chunk of the broadcast carries a table whose entry i
/// describes the key range starting r^(i-1) chunks ahead.
///
/// DSI is precisely this structure lifted to two dimensions through the
/// Hilbert mapping (plus the broadcast reorganization); the bench
/// `related_exponential_index` shows the two coincide on 1-D-equivalent
/// workloads. Implemented here as an independent library over opaque
/// uint64 keys.
///
/// Clients read table entries in place (ExpIndex::EntryAt, entry i of the
/// table at a chunk position): forwarding and the scan's stop check build
/// no table per read, and entry targets wrap by compare-subtract against
/// precomputed reaches instead of a modulo by the chunk count.

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "broadcast/client.hpp"
#include "broadcast/program.hpp"
#include "common/sizes.hpp"

namespace dsi::expindex {

/// Build parameters.
struct ExpConfig {
  uint32_t index_base = 2;   ///< r: entry i covers r^(i-1)..r^i - 1 chunks.
  uint32_t chunk_size = 1;   ///< Data items per chunk (the paper's "chunk").
  uint32_t key_bytes = 8;    ///< Serialized key width in tables.
  uint32_t item_bytes = common::kDataObjectBytes;  ///< Payload per item.
};

/// One decoded table entry: the minimum key of the chunk \p chunks_ahead
/// positions ahead of the carrying chunk.
struct ExpTableEntry {
  uint64_t min_key = 0;
  uint32_t position = 0;  ///< Absolute chunk position within the cycle.
};

/// Server-side exponential-index broadcast over sorted keys.
class ExpIndex {
 public:
  /// \param keys Item keys; sorted internally (stable ids = input ranks
  /// after sorting).
  ExpIndex(std::vector<uint64_t> keys, size_t packet_capacity,
           const ExpConfig& config);

  const ExpConfig& config() const { return config_; }
  const broadcast::BroadcastProgram& program() const { return program_; }
  uint32_t num_chunks() const { return num_chunks_; }
  uint32_t entries_per_table() const {
    return static_cast<uint32_t>(reach_.size());
  }
  uint32_t table_bytes() const { return table_bytes_; }
  const std::vector<uint64_t>& sorted_keys() const { return keys_; }

  /// Min key of the chunk at \p position.
  uint64_t ChunkMinKey(uint32_t position) const {
    assert(position < num_chunks_);
    return keys_[chunk_first_[position]];
  }
  /// Entry \p i of the table at \p position: the chunk r^i positions
  /// ahead, cyclically, and its min key. Every reach is below num_chunks(),
  /// so the wrap is one compare-subtract. The single definition of a table
  /// entry; clients read it in place.
  ExpTableEntry EntryAt(uint32_t position, uint32_t i) const {
    assert(position < num_chunks_ && i < reach_.size());
    uint32_t target = position + reach_[i];
    if (target >= num_chunks_) target -= num_chunks_;
    return ExpTableEntry{ChunkMinKey(target), target};
  }
  /// Decoded index table of the chunk at \p position (wire encoders and
  /// tests; clients use EntryAt).
  std::vector<ExpTableEntry> TableAt(uint32_t position) const;
  /// Program slot of the table / first item bucket of a chunk.
  size_t TableSlot(uint32_t position) const { return table_slot_[position]; }
  struct ChunkItems {
    size_t first_slot = 0;
    uint32_t first_rank = 0;
    uint32_t count = 0;
  };
  ChunkItems ItemsAt(uint32_t position) const;

 private:
  ExpConfig config_;
  std::vector<uint64_t> keys_;            // sorted
  std::vector<uint32_t> chunk_first_;     // chunk -> first key rank (+end)
  uint32_t num_chunks_ = 0;
  std::vector<uint32_t> reach_;  // entry i's reach r^i, all < num_chunks_
  uint32_t table_bytes_ = 0;
  std::vector<size_t> table_slot_;
  std::vector<size_t> first_item_slot_;
  broadcast::BroadcastProgram program_;
};

/// Client-side search: exponential forwarding toward a key, then
/// sequential retrieval over a key range. Every range scan arms the
/// session's watchdog budget (200 on-air cycles) afresh.
///
/// Continuous clients: constructed with \p reuse_knowledge, the client
/// remembers every chunk table and item key it has heard. A remembered
/// table makes a forwarding hop (and the scan's stop check) free — the
/// client reasons over it in memory instead of listening — and a
/// remembered item key answers the range filter without re-reading the
/// item. The cache describes one broadcast generation; rebuild the client
/// when session->generation() advances. Single-query clients keep the
/// flag off: consulting the cache would change their byte metrics (the
/// spatial adapter issues overlapping scans within one query), and the
/// cold path is pinned bit-for-bit by the golden suite.
class ExpClient {
 public:
  ExpClient(const ExpIndex& index, broadcast::ClientSession* session,
            bool reuse_knowledge = false);

  /// Arms the next query of a continuous client: clears the per-query
  /// completed/stale flags (each range scan re-arms the session's watchdog
  /// budget).
  void BeginQuery() {
    stats_.completed = true;
    stats_.stale = false;
  }

  /// Ranks (into sorted_keys()) of all items with key exactly \p key.
  std::vector<uint32_t> Lookup(uint64_t key);

  /// Ranks of all items with key in [lo, hi].
  std::vector<uint32_t> RangeQuery(uint64_t lo, uint64_t hi);

  /// Chunk tables read count as index_reads, items as object_reads.
  const broadcast::QueryStats& stats() const { return stats_; }

 private:
  /// Reads the next table at/after the session position (loss-recovering).
  std::optional<uint32_t> ReadNextTable();
  /// Exponential forwarding: hop to the latest chunk whose min key is
  /// still <= \p key without overshooting, starting from \p from (a chunk
  /// whose table was just read). Returns the final chunk position.
  std::optional<uint32_t> Forward(uint32_t from, uint64_t key);

  /// Republished since this client synchronized? Checked after every failed
  /// read: chunk positions/slots are meaningless across generations.
  bool SessionStale() const;

  const ExpIndex& index_;
  broadcast::ClientSession* session_;
  uint64_t generation_ = 0;  ///< Generation the chunk tables refer to.
  broadcast::QueryStats stats_;
  /// Cross-query knowledge (continuous clients only; empty otherwise).
  bool reuse_ = false;
  std::vector<uint8_t> table_known_;  ///< By chunk position.
  std::vector<uint8_t> key_known_;    ///< By item rank.
};

}  // namespace dsi::expindex
