#pragma once

/// \file air_index.hpp
/// \brief The unified air-index abstraction: every index family that can be
/// put on the broadcast channel (DSI, R-tree, HCI, exponential index, ...)
/// is exposed through the same two interfaces so the simulation engine,
/// benches and examples are written once against them.
///
///  * AirIndexHandle — the server side: names the family, owns/refers to the
///    broadcast program, and constructs per-query clients.
///  * AirClient — the client side of ONE query execution: the two spatial
///    query kinds of the paper plus unified per-query diagnostics. The
///    family clients (core::DsiClient, rtree::RtreeClient, hci::HciClient)
///    implement it directly; only the exponential index needs an adapter,
///    which lifts its 1-D range scans to the two spatial queries.
///
/// A handle is a thin non-owning view over a built index (the index must
/// outlive the handle). Handles are immutable and safe to share across
/// threads; each query gets its own ClientSession and AirClient.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string_view>
#include <utility>
#include <vector>

#include "broadcast/client.hpp"
#include "broadcast/program.hpp"
#include "common/geometry.hpp"
#include "datasets/datasets.hpp"

namespace dsi::air {

/// kNN search-space navigation tactic (Section 3.4 of the paper). Only DSI
/// distinguishes the two; families without the notion ignore it.
enum class KnnStrategy {
  kConservative,  ///< Visit every frame that may hold a candidate.
  kAggressive,    ///< Hop toward the query point; accept next-cycle revisits.
};

/// Unified per-query diagnostics. Metrics proper (latency/tuning bytes) come
/// from the driving broadcast::ClientSession; these count what the client
/// logic did with them.
using ClientStats = broadcast::QueryStats;

/// Query execution against a broadcast air index. Construct via
/// AirIndexHandle::MakeClient with a fresh session and run one query — or,
/// for a continuous (moving) client, keep the instance alive on the same
/// session and call BeginQuery() before every re-evaluation: everything a
/// family learned from the channel (index tables, tree nodes, leaf
/// anchors, retrieved objects) stays valid within one broadcast generation
/// and cuts the next query's tuning cost. A client is bound to ONE
/// generation's index: when session->generation() advances (republication),
/// discard the client and build a new one against the new generation's
/// handle — the PR-4 invalidation contract (ClientStats::stale signals a
/// mid-query republication the same way).
class AirClient {
 public:
  virtual ~AirClient() = default;

  /// Arms the next query on this client: resets the per-query diagnostic
  /// flags (completed/stale) and drops any half-resolved per-query work
  /// lists. The watchdog is the session's per-query airtime budget
  /// (ClientSession::ArmWatchdog), armed by the family at its own query
  /// start: here for the tree families, at every search for DSI, at every
  /// range scan for the exponential index. Learned channel knowledge is
  /// deliberately kept — that is the point of a continuous client. The
  /// constructor already arms the first query, but calling this before it
  /// too is harmless.
  virtual void BeginQuery() = 0;

  /// All objects inside \p window (exact).
  virtual std::vector<datasets::SpatialObject> WindowQuery(
      const common::Rect& window) = 0;

  /// The \p k nearest objects to \p q (exact).
  virtual std::vector<datasets::SpatialObject> KnnQuery(
      const common::Point& q, size_t k, KnnStrategy strategy) = 0;

  /// Convenience: kNN with the paper's default (conservative) tactic.
  std::vector<datasets::SpatialObject> KnnQuery(const common::Point& q,
                                                size_t k) {
    return KnnQuery(q, k, KnnStrategy::kConservative);
  }

  virtual const ClientStats& stats() const = 0;
};

/// Reusable storage for one AirClient at a time. The experiment engine
/// runs millions of one-query clients; constructing each into a per-worker
/// arena reuses one warm memory block instead of a heap round-trip per
/// query. Create<T>() destroys the previous occupant, (re)uses the buffer,
/// and placement-news the next client.
class ClientArena {
 public:
  ClientArena() = default;
  ClientArena(const ClientArena&) = delete;
  ClientArena& operator=(const ClientArena&) = delete;
  ~ClientArena() { DestroyCurrent(); }

  template <class T, class... Args>
  T* Create(Args&&... args) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    DestroyCurrent();
    if (capacity_ < sizeof(T)) {
      buffer_.reset(new std::byte[sizeof(T)]);
      capacity_ = sizeof(T);
    }
    T* obj = new (buffer_.get()) T(std::forward<Args>(args)...);
    current_ = obj;
    destroy_ = [](void* p) { static_cast<T*>(p)->~T(); };
    return obj;
  }

  void DestroyCurrent() {
    if (current_ != nullptr) {
      destroy_(current_);
      current_ = nullptr;
    }
  }

 private:
  std::unique_ptr<std::byte[]> buffer_;
  size_t capacity_ = 0;
  void* current_ = nullptr;
  void (*destroy_)(void*) = nullptr;
};

/// The server side of one broadcast air index.
class AirIndexHandle {
 public:
  virtual ~AirIndexHandle() = default;

  /// Short family name (air::FamilyName of the handle's family).
  virtual std::string_view family() const = 0;

  /// The broadcast program clients tune into.
  virtual const broadcast::BroadcastProgram& program() const = 0;

  /// The objects the data buckets of program() carry, indexed by
  /// Bucket::payload (the family's own broadcast order).
  virtual const std::vector<datasets::SpatialObject>& data_objects() const = 0;

  /// Representative spatial anchor of program() slot \p slot — the location
  /// of the data object the bucket carries. Returns false for buckets with
  /// no single location (index tables, tree nodes). Drives popularity-
  /// ranked multi-disk cycle layouts (air/disk_layout.hpp).
  bool SlotAnchor(size_t slot, common::Point* anchor) const;

  /// Appends the on-air content of \p bucket, a non-parity bucket of
  /// program(): the wire/codecs.hpp encoding of its data object, index
  /// table or tree node, exactly bucket.size_bytes long.
  void AppendContent(const broadcast::Bucket& bucket,
                     std::vector<uint8_t>* out) const;

  /// Per-slot popularity weights driving the multi-disk cycle layout
  /// (air/disk_layout.hpp), one entry per program() slot. Data buckets
  /// weigh their anchor's region; the default gives every anchorless
  /// bucket the weight of the NEXT anchored bucket in cycle order
  /// (wrapping) — an index bucket airs immediately before the data it
  /// points at and must ride the same disk, or every probe pays a
  /// cross-tier doze between pointer and target. Tree families override
  /// this with a subtree-max rule: a node is requested by every query
  /// into its subtree, so it must air at its hottest descendant's
  /// frequency (the root on the hottest disk), which the adjacency
  /// default cannot see.
  virtual std::vector<double> DiskWeights(
      const datasets::RegionPopularity& popularity,
      const common::Rect& universe) const;

  /// Constructs a client for one query over \p session. The session must be
  /// fresh (InitialProbe not yet called) and outlive the client.
  virtual std::unique_ptr<AirClient> MakeClient(
      broadcast::ClientSession* session) const = 0;

  /// Constructs a client meant to stay tuned and answer a STREAM of
  /// queries on \p session (call BeginQuery before each). Most families'
  /// single-query clients already reuse learned state across queries, so
  /// the default is MakeClient; families whose single-query byte metrics
  /// would change by consulting cross-query knowledge (the exponential
  /// index's chunk-table/item-key cache) enable it only here, keeping the
  /// one-query cold path bit-identical to the goldens.
  virtual std::unique_ptr<AirClient> MakeContinuousClient(
      broadcast::ClientSession* session) const {
    return MakeClient(session);
  }

  /// Arena variant of MakeClient: constructs the client inside \p arena
  /// (which owns it — do not delete). The engine calls this with one arena
  /// per worker, so back-to-back queries reuse the same storage.
  virtual AirClient* MakeClientIn(ClientArena& arena,
                                  broadcast::ClientSession* session) const = 0;

 protected:
  /// Appends the encoding of index bucket \p bucket: a DSI or
  /// exponential-index table, or an R-tree or B+-tree node.
  virtual void AppendIndexContent(const broadcast::Bucket& bucket,
                                  std::vector<uint8_t>* out) const = 0;
};

}  // namespace dsi::air
