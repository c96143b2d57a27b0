#pragma once

/// \file air_tree.hpp
/// \brief Generic "tree on air" broadcast layout implementing the
/// distributed indexing scheme of Imielinski et al. [9], which the paper
/// uses for both baselines ("Both implementation of R-tree and B+-tree are
/// based on the well known distributed indexing scheme").
///
/// The tree is cut at a *distribution level*: the subtrees rooted there are
/// broadcast exactly once per cycle (non-replicated part), while the path
/// of ancestors above each subtree is re-broadcast right before it
/// (replicated part). Each subtree's data buckets follow its index nodes:
///
///   [path][subtree_1 nodes][subtree_1 data][path][subtree_2 nodes]...
///
/// Clients navigate by reading a node, choosing children, and dozing to the
/// next occurrence of each child's bucket — wrapping into the next cycle
/// whenever the needed node has already gone by (the fundamental cost of
/// tree indexes on air that DSI avoids).
///
/// Replica lists are flat: the occurrence slots of every node sit in one
/// array grouped by node id, each group ascending, with an offset per node
/// id; a client's replica pick reads a node's group as a span.

#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/airing_order.hpp"
#include "broadcast/client.hpp"
#include "broadcast/program.hpp"
#include "common/two_level_bitmap.hpp"

namespace dsi::broadcast {

/// Logical description of a static, bulk-loaded tree to put on air.
struct AirTreeSpec {
  struct Node {
    uint32_t level = 0;  ///< 0 = leaf level; root has the maximum level.
    /// Child node ids (level > 0) or data bucket ids (level == 0), ordered
    /// left to right (the broadcast order of the indexed space).
    std::vector<uint32_t> children;
    uint32_t size_bytes = 0;  ///< Serialized node size.
  };
  std::vector<Node> nodes;
  uint32_t root = 0;
  /// Serialized payload size of each data bucket, indexed by data id.
  std::vector<uint32_t> data_sizes;
};

/// How the tree is interleaved with the data on air.
enum class TreeLayout : uint8_t {
  /// Distributed indexing [9]: the tree is cut at a distribution level;
  /// each subtree airs once, preceded by a fresh copy of its root path.
  kDistributed,
  /// (1, m) indexing [9]: the *whole* index airs m times per cycle, each
  /// copy followed by 1/m of the data. Simpler, but the duplicated index
  /// stretches the cycle — the scheme the distributed index supersedes.
  kOneM,
};

/// A finalized broadcast program for a tree plus the occurrence lookup
/// tables clients use to doze toward the next copy of a bucket.
class AirTreeBroadcast {
 public:
  /// \param target_subtrees For kDistributed: desired number of
  /// non-replicated subtrees; the distribution level is the highest tree
  /// level with at least this many nodes (clamped to the leaf level), and
  /// 1 disables replication. For kOneM: the number of index copies m.
  /// The spec is read only here; the broadcast keeps its slot tables.
  AirTreeBroadcast(const AirTreeSpec& spec, size_t packet_capacity,
                   uint32_t target_subtrees = 16,
                   TreeLayout layout = TreeLayout::kDistributed);

  const BroadcastProgram& program() const { return program_; }
  TreeLayout layout() const { return layout_; }
  uint32_t distribution_level() const { return distribution_level_; }
  uint32_t num_subtrees() const {
    return static_cast<uint32_t>(subtree_roots_.size());
  }
  /// Node ids are 0 .. num_nodes() - 1, data ids 0 .. num_data() - 1.
  size_t num_nodes() const {
    return first_node_slot_.empty() ? 0 : first_node_slot_.size() - 1;
  }
  size_t num_data() const { return data_slot_.size(); }

  /// Slot of the occurrence of node \p node_id that starts soonest at or
  /// after the session's current time.
  size_t NextNodeSlot(uint32_t node_id, const ClientSession& session) const;

  /// Slot of the (single) occurrence of data bucket \p data_id.
  size_t DataSlot(uint32_t data_id) const;

  /// All occurrence slots of a node, ascending.
  std::span<const size_t> NodeSlots(uint32_t node_id) const {
    return {node_slots_.data() + first_node_slot_[node_id],
            node_slots_.data() + first_node_slot_[node_id + 1]};
  }

 private:
  void BuildDistributed(const AirTreeSpec& spec, uint32_t target_subtrees);
  void BuildOneM(const AirTreeSpec& spec, uint32_t copies);
  /// Groups the finalized program's index-node buckets by node id.
  void IndexNodeSlots(size_t num_nodes);

  BroadcastProgram program_;
  TreeLayout layout_ = TreeLayout::kDistributed;
  uint32_t distribution_level_ = 0;
  std::vector<uint32_t> subtree_roots_;
  /// Every index-node slot, grouped by node id, ascending within a group:
  /// node i's are [first_node_slot_[i], first_node_slot_[i + 1]).
  std::vector<size_t> node_slots_;
  std::vector<size_t> first_node_slot_;  // by node id, plus one end offset
  std::vector<size_t> data_slot_;        // by data id
};

/// The channel side of one client searching an AirTreeBroadcast (the
/// R-tree and HCI baselines). The family decides which node to read next
/// and when to give up; every listen goes through the reader, which owns
/// the tree clients' channel rules:
///  * the watchdog: a 400-cycle budget on the session, armed at
///    construction and by every BeginQuery;
///  * stale versus lost: a failed read after the session's generation
///    advanced marks the query stale (and incomplete); any other failed
///    read is a lost bucket;
///  * data retrieval sweeps, never blocks: pending data buckets are read in
///    airing order and a lost one stays pending for its next airing.
/// The node cache and retrieved set describe the broadcast content, so
/// they survive across the queries of a continuous client within one
/// generation.
class AirTreeReader {
 public:
  /// Probes \p session and binds the reader to the generation on air.
  AirTreeReader(const AirTreeBroadcast& air, ClientSession* session);

  /// Arms the next query of a continuous client: clears the per-query
  /// flags and the previous query's half-resolved data list and re-arms
  /// the watchdog from the session's current instant.
  void BeginQuery();

  ClientSession& session() const { return *session_; }
  const QueryStats& stats() const { return stats_; }

  /// Whether the running query must stop — its budget is spent or the
  /// broadcast was republished under it — in which case it is flagged
  /// incomplete (its result is partial).
  bool AbortIfHalted() {
    if (!Halted()) return false;
    stats_.completed = false;
    return true;
  }

  /// Whether node \p node_id was already downloaded (kept in client memory:
  /// revisiting it is free, re-reading it off the air would cost a cycle).
  bool cached(uint32_t node_id) const { return node_cache_[node_id]; }
  /// Retrieved data ids; payloads stay in the server-side store.
  const common::TwoLevelBitmap& retrieved() const { return retrieved_; }

  /// One listen attempt for node \p node_id at its next occurrence; false
  /// on a link error or a republication.
  bool ListenNode(uint32_t node_id) {
    if (session_->ReadBucket(air_.NextNodeSlot(node_id, *session_))) {
      ++stats_.index_reads;
      node_cache_[node_id] = true;
      return true;
    }
    NoteFailedRead();
    return false;
  }

  /// Queues \p data_id for retrieval unless it is already retrieved. The
  /// pending set holds physical slots of the session's program: none are
  /// taken once the session has moved on to a newer generation.
  void AddPendingData(uint32_t data_id) {
    if (!retrieved_.test(data_id) && !stats_.stale) {
      pending_data_.Insert(*session_, air_.DataSlot(data_id));
    }
  }

  /// Reads the pending data buckets that air before the next occurrence of
  /// \p before_node: a client drains what it already knows it needs on the
  /// way instead of letting it fly by.
  void FlushPassingData(uint32_t before_node) {
    // The soonest pending bucket is re-picked after every read, since
    // reading advances time. A lost bucket stays pending: its next
    // occurrence is a cycle away, so the sweep moves on to whatever passes
    // next instead of blocking on the loss.
    while (!pending_data_.empty() && !Halted()) {
      const uint64_t node_wait = session_->PacketsUntil(
          air_.NextNodeSlot(before_node, *session_));
      const AiringSet::Pick next = pending_data_.Soonest(*session_);
      if (next.wait >= node_wait) return;
      if (TryReadData(next.id)) pending_data_.Erase(*session_, next.slot);
    }
  }

  /// Reads all remaining pending data in airing order; lost buckets are
  /// retried when they come around again, alongside everything else still
  /// pending (blocking a full cycle per loss would cost O(pending) extra
  /// cycles under heavy loss and spuriously trip the watchdog). Marks the
  /// query incomplete if it halts first.
  void DrainPendingData() {
    while (!pending_data_.empty() && !Halted()) {
      const AiringSet::Pick next = pending_data_.Soonest(*session_);
      if (TryReadData(next.id)) pending_data_.Erase(*session_, next.slot);
    }
    if (!pending_data_.empty()) stats_.completed = false;
  }

 private:
  bool Halted() const { return session_->WatchdogExpired() || stats_.stale; }
  /// One listen attempt for data bucket \p data_id at its next occurrence;
  /// false on a link error (the bucket stays pending) or a republication.
  bool TryReadData(uint32_t data_id) {
    if (retrieved_.test(data_id)) return true;
    if (session_->ReadBucket(air_.DataSlot(data_id))) {
      ++stats_.object_reads;
      retrieved_.set(data_id);
      return true;
    }
    NoteFailedRead();
    return false;
  }
  /// Accounts a failed read: stale (and incomplete) if the broadcast was
  /// republished, else one lost bucket.
  void NoteFailedRead() {
    if (session_->generation() != generation_) {
      stats_.stale = true;
      stats_.completed = false;
    } else {
      ++stats_.buckets_lost;
    }
  }

  const AirTreeBroadcast& air_;
  ClientSession* session_;
  uint64_t generation_ = 0;  ///< Generation the caches refer to.
  std::vector<bool> node_cache_;  ///< By node id.
  /// Data buckets the running query still has to read, in airing order.
  AiringSet pending_data_;
  common::TwoLevelBitmap retrieved_;  ///< Data ids read so far.
  QueryStats stats_;
};

}  // namespace dsi::broadcast
