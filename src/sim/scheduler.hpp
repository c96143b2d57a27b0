#pragma once

/// \file scheduler.hpp
/// \brief The event-driven simulation core: channel-drives-clients instead
/// of client-drives-channel.
///
/// A client that spins the shared broadcast timeline forward in its own
/// call stack cannot demonstrate the paper's central claim — broadcast
/// latency is load-independent — at production load: a million concurrent
/// clients need the inverse structure, one timeline that advances once per
/// on-air packet and wakes exactly the clients whose next-wake instant is
/// due.
///
/// Two primitives implement that inversion:
///
///  * CalendarQueue — a bucket-indexed calendar queue over global packet
///    time (Brown's classic event-list structure). Pending wakes live in a
///    ring of day buckets (bucket = wake / width mod days); popping
///    advances the current day and drains its due events in deterministic
///    order: ascending wake packet, ties broken by ascending client index.
///    No per-client polling anywhere — a sleeping client costs nothing
///    until the timeline reaches its wake packet.
///
///  * SlotPool — a free-list index allocator mapping an unbounded churning
///    client population onto a dense slot space sized by the PEAK
///    CONCURRENT population, so per-client state (sessions, warm family
///    clients, hot wake/step arrays) lives in parallel SoA vectors indexed
///    by slot and is recycled across departures/arrivals instead of
///    reallocated.
///
/// Clients on a broadcast channel are passive listeners: nothing a client
/// does affects what is on air, and channel loss is a pure function of
/// (channel seed, airtime interval). Per-client evolution is therefore
/// independent, and executing each client's step at its wake instant in
/// wake order is observationally identical to client-major order. A
/// calendar holding one tour runs it client-major, so each client run
/// alone (sim::RunEachClientAlone) is the parity oracle, and the
/// population-vs-alone tests enforce the equivalence bit-exactly.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsi::sim {

/// Bucket-indexed calendar queue of (wake packet, client) events.
///
/// Determinism contract: Pop() returns pending events in ascending
/// (wake_packet, client) order regardless of push order — simultaneous
/// wakes tie-break by client index. At most one pending event per client
/// (the scheduler's one-wake-per-sleeping-client invariant); pushing a
/// wake for a day the calendar has already drained past is a caller bug
/// (asserted).
class CalendarQueue {
 public:
  struct Event {
    uint64_t wake_packet = 0;
    uint32_t client = 0;
  };

  /// \param bucket_packets Width of one calendar day in packets (>= 1):
  ///        tune toward the typical inter-wake gap so a day holds O(1)
  ///        events per live client at most.
  /// \param num_buckets Days in the ring; wakes further than
  ///        num_buckets * bucket_packets ahead simply wait in their bucket
  ///        for a later lap.
  explicit CalendarQueue(uint64_t bucket_packets, size_t num_buckets = 256)
      : width_(bucket_packets == 0 ? 1 : bucket_packets),
        ring_(num_buckets == 0 ? 1 : num_buckets) {}

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void Push(uint64_t wake_packet, uint32_t client);

  /// Pops the earliest pending event (min by (wake_packet, client)).
  Event Pop();

 private:
  /// Descending (wake, client) — the pending run pops its min from the back.
  static bool Later(const Event& a, const Event& b) {
    return a.wake_packet != b.wake_packet ? a.wake_packet > b.wake_packet
                                          : a.client > b.client;
  }

  /// Moves the current day's events out of its ring bucket into the sorted
  /// pending run (events of future laps stay behind).
  void Harvest();
  uint64_t MinPendingDay() const;

  uint64_t width_;
  std::vector<std::vector<Event>> ring_;
  std::vector<Event> pending_;  ///< Current day, sorted descending.
  uint64_t day_ = 0;            ///< Calendar day being drained.
  bool harvested_ = false;      ///< Current day's bucket already drained.
  size_t empty_streak_ = 0;     ///< Consecutive dayless advances (lap jump).
  size_t size_ = 0;
};

/// Free-list slot allocator for a churning population: Acquire() hands out
/// the lowest-capacity dense index space that ever holds the concurrent
/// population, Release() recycles a departed client's slot LIFO (the
/// warmest storage first). capacity() is the high-water mark — the peak
/// concurrent population — and the size every parallel SoA state vector
/// needs.
class SlotPool {
 public:
  uint32_t Acquire() {
    ++live_;
    if (!free_.empty()) {
      const uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    return next_++;
  }

  void Release(uint32_t slot) {
    assert(live_ > 0);
    assert(slot < next_);
    --live_;
    free_.push_back(slot);
  }

  /// Slots ever created = peak concurrent population so far.
  size_t capacity() const { return next_; }
  /// Slots currently held.
  size_t live() const { return live_; }

 private:
  uint32_t next_ = 0;
  std::vector<uint32_t> free_;
  size_t live_ = 0;
};

}  // namespace dsi::sim
