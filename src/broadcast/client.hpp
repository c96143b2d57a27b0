#pragma once

/// \file client.hpp
/// \brief The mobile-client side of the broadcast channel: tune-in, doze,
/// selective listening, link errors, and the two metrics of the paper
/// (access latency and tuning time, both in bytes).
///
/// Query algorithms never touch server data structures directly; they drive
/// a ClientSession, paying tuning time for every packet they listen to and
/// access latency for every packet that goes by, exactly as a real client
/// with an air index would.

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "broadcast/generation.hpp"
#include "broadcast/program.hpp"
#include "common/rng.hpp"
#include "transport/transport.hpp"

namespace dsi::broadcast {

/// The two evaluation metrics of the paper, in bytes.
struct Metrics {
  uint64_t access_latency_bytes = 0;  ///< Time from initial probe to done.
  uint64_t tuning_bytes = 0;          ///< Bytes actively listened to.
  /// Lost bucket reads the session reconstructed from surviving group
  /// members of an erasure-coded broadcast (always 0 on uncoded programs).
  uint64_t repaired = 0;
};

/// What one family client did for its query, beside the session's Metrics:
/// the reads it counted and how the query ended. Every family client fills
/// this one struct (air::ClientStats names it).
struct QueryStats {
  uint64_t index_reads = 0;   ///< Index buckets read (tables / tree nodes).
  uint64_t object_reads = 0;  ///< Data buckets read.
  uint64_t buckets_lost = 0;  ///< Reads corrupted by link errors.
  bool completed = true;      ///< False if the query was aborted.
  /// True if the query aborted because the broadcast was republished
  /// mid-flight (the session's generation advanced): every piece of learned
  /// state referred to a dead layout. The result is partial and the caller
  /// should re-issue the query with a client built on the new generation's
  /// handle on the same session (sim::GenerationalRun does exactly that).
  bool stale = false;
};

/// How link errors (Section 5) are injected.
enum class ErrorMode : uint8_t {
  /// Every bucket read is independently lost with probability theta. A
  /// harsher model than the paper's; exercises all recovery paths and is
  /// the default in unit tests.
  kPerReadLoss,
  /// With probability theta the query experiences one link-error event: a
  /// single corrupted packet at a uniformly random instant within the first
  /// broadcast cycle after tune-in. This calibration reproduces the
  /// magnitude regime of the paper's Table 1 (deteriorations of a few to a
  /// few tens of percent even at theta = 0.7).
  kSingleEvent,
  /// Channel-deterministic loss: each on-air bucket *instance* (cycle
  /// number, slot) is corrupted with probability theta, decided by hashing
  /// the instance against the session's channel seed. Unlike kPerReadLoss
  /// the outcome does not depend on when (or whether) the client chose to
  /// listen, so two clients of the same session seed observing the same
  /// instance agree — the model a differential conformance harness needs.
  /// A retry in a later cycle is a new instance with a fresh coin.
  kPerBucketLoss,
  /// Channel-deterministic correlated bursts (a Gilbert–Elliott-style bad
  /// state): burst onsets and lengths are hashed from the channel seed and
  /// ABSOLUTE packet time, and a bucket instance is lost iff any burst
  /// overlaps its packets. Same determinism contract as kPerBucketLoss —
  /// the fate of an instance is a pure function of (channel seed, airtime
  /// interval), so forked cold sessions agree and retries in later cycles
  /// see fresh weather. theta is the stationary fraction of air time under
  /// a burst; consecutive buckets fail together — the adversarial case for
  /// interleaved parity groups.
  kBurstLoss,
};

/// Link-error injection parameters. theta = 0 is the lossless channel of
/// Section 4; Section 5 sweeps theta in {0.2, 0.5, 0.7}.
struct ErrorModel {
  double theta = 0.0;
  ErrorMode mode = ErrorMode::kPerReadLoss;
};

/// One radio-state episode of a client session, for traces/visualization.
struct TraceEvent {
  enum class Kind : uint8_t {
    kProbe,   ///< The initial synchronization listen.
    kDoze,    ///< Radio off, waiting for a bucket boundary.
    kListen,  ///< Actively receiving a bucket.
    kRepair,  ///< Listening to a group symbol to reconstruct a lost bucket.
  };
  Kind kind = Kind::kDoze;
  uint64_t start_packet = 0;  ///< Global packet time, inclusive.
  uint64_t end_packet = 0;    ///< Global packet time, exclusive.
  /// Bucket slot for kListen events (client data-slot space). For kRepair
  /// events this is the PHYSICAL slot of the group symbol listened to —
  /// data or parity — in the coded cycle.
  size_t slot = 0;
  bool lost = false;  ///< kListen/kRepair: corrupted by a link error.
};

/// One client's interaction with the periodically repeated program.
///
/// Time is a monotonically increasing global packet counter; the cycle
/// position is time mod cycle length. The session keeps that position (and
/// the cycle occurrence number) as state, advanced with the clock by a
/// compare-subtract, so a read divides only when a doze spans a whole cycle
/// or a republication re-syncs the session. The client is dozing except
/// inside InitialProbe() and ReadBucket().
///
/// Dynamic broadcasts: a session constructed over a GenerationSchedule is
/// synchronized to exactly one generation at a time — all slot numbers the
/// client uses refer to that generation's program. When a read aims at a
/// bucket occurrence past the generation's end, the occurrence no longer
/// exists on air: the client dozes to where it believed the bucket would
/// start, hears one packet whose header carries a newer generation stamp,
/// and re-synchronizes exactly like the initial probe. That read returns
/// false with generation() advanced — the signal that every piece of
/// learned state (index tables, tree nodes, anchors) points into a dead
/// layout and must be discarded. Slot numbers from the old generation are
/// meaningless after that instant; issue none until re-derived.
///
/// Erasure-coded broadcasts: when the program interleaves parity buckets
/// (BroadcastProgram::coded(), see broadcast/coding.hpp) the session keeps
/// presenting the DATA slot space to its caller — every slot parameter and
/// every slot it reports refers to the data buckets, and the program's slot
/// map (BroadcastProgram::airings, Bucket::data_slot) translates between
/// data and physical slots on every layout: plain, coded, multi-disk or
/// coded multi-disk. Query clients are coding-oblivious: a read
/// that loses its bucket transparently listens to the group's remaining
/// data+parity symbols still in flight (and, across later cycles, the ones
/// already missed) and reconstructs the loss from any d-of-(d+p) survivors,
/// charging exact tuning and latency bytes for every repair listen. Only
/// when the group is unrecoverable (or dies with its generation) does the
/// read return false and the caller fall back to its usual retry.
class ClientSession {
 public:
  /// \param tune_in_packet Global packet index at which the client wakes up
  ///        (typically uniform over the cycle in experiments).
  ClientSession(const BroadcastProgram& program, uint64_t tune_in_packet,
                ErrorModel errors, common::Rng rng);

  /// Dynamic-broadcast session: tunes into the generation live at
  /// \p tune_in_packet and follows the schedule's republications. The
  /// schedule must outlive the session.
  ClientSession(const GenerationSchedule& schedule, uint64_t tune_in_packet,
                ErrorModel errors, common::Rng rng);

  /// Session over an explicit channel substrate (the general form — the
  /// two constructors above are conveniences that wrap the program /
  /// schedule in an embedded transport::SimTransport). All protocol logic
  /// runs here; \p channel only answers where the timetable comes from and
  /// what time costs (simulated counter vs a live byte stream). The
  /// transport must outlive the session.
  ClientSession(transport::Transport& channel, uint64_t tune_in_packet,
                ErrorModel errors, common::Rng rng);

  /// Listens to one packet to synchronize with the channel (every packet
  /// carries an offset to the next bucket boundary), then positions the
  /// client at the start of the next bucket. Idempotent: callers that get
  /// a pre-probed session (the generational runner probes before picking
  /// the generation's client) fall through at no cost.
  void InitialProbe();

  /// Global packet counter.
  uint64_t now_packets() const { return now_; }

  /// The session's current DATA slot (valid after InitialProbe). After a
  /// probe, park or repair it is the data bucket airing next: it starts
  /// now, or only parity symbols sit between now and it. After a read or
  /// skip it is the LOGICAL successor of that slot, (slot + 1) mod
  /// num_data_buckets() — the next bucket on air on plain and coded cycles,
  /// but on a multi-disk cycle possibly tiers away; ReadBucket of it then
  /// dozes to its nearest airing.
  size_t current_slot() const { return current_slot_; }

  /// Dozes until the next occurrence of \p slot (possibly now; wraps into
  /// the next cycle when the bucket has already gone by), then listens to
  /// all its packets.
  /// \return true iff the bucket was received intact OR — on an
  /// erasure-coded broadcast — reconstructed from surviving group symbols
  /// (Metrics::repaired counts those); on an unrecoverable link error the
  /// tuning time and latency are still spent and the client is parked on
  /// the next (data) bucket boundary.
  bool ReadBucket(size_t slot);

  /// Dozes past the bucket starting right now without listening.
  void SkipBucket();

  /// Continuous listening: the client turns the radio off for \p packets
  /// (think time between re-evaluations of a moving client), then parks on
  /// the next bucket boundary. Within a generation the parked program
  /// layout is still known, so parking is free; waking up PAST a
  /// republication instant costs one header listen to re-synchronize,
  /// exactly like the initial probe (generation() then reports the new
  /// layout — every slot number learned before the doze is dead). Requires
  /// a probed session; never used by single-query runs, so static goldens
  /// are untouched.
  ///
  /// Pace(p) is exactly ResumeAt(now_packets() + p): the blocking form of
  /// the wake-at-packet continuation below.
  void Pace(uint64_t packets);

  /// The wake-at-packet continuation contract. A session that has gone
  /// radio-off after a step is fully described by one number — the global
  /// packet at which it intends to wake (now_packets() + think time). An
  /// event-driven scheduler stores that number, lets the broadcast timeline
  /// run, and calls ResumeAt(wake_packet) when the channel reaches it; the
  /// session then performs the identical work Pace would have: doze to the
  /// wake instant, one re-sync header listen iff the wake landed past a
  /// republication instant, park on the next data-bucket boundary. Both
  /// entry points share one body, so a scheduler-driven client is
  /// byte-identical to a loop-driven one by construction. ResumeAt at the
  /// current instant is a no-op (mirrors Pace(0)); waking in the past is
  /// not meaningful (asserted).
  void ResumeAt(uint64_t wake_packet);

  /// A fresh session observing the SAME physical channel as this one,
  /// tuning in at \p tune_in_packet: warm/cold differential baselines run
  /// a cold client against it. Under kPerBucketLoss the clone shares this
  /// session's channel seed, so both sessions agree on the fate of every
  /// on-air bucket instance; kPerReadLoss / kSingleEvent draws come from
  /// \p rng (those models are receiver-local by construction). The clone
  /// follows the same generation schedule (if any) and carries no trace
  /// sink and an unarmed watchdog.
  ClientSession ForkColdSession(uint64_t tune_in_packet,
                                common::Rng rng) const;

  /// Number of packets that would elapse dozing from now to the start of
  /// the next occurrence of \p slot (0 if it starts right now).
  uint64_t PacketsUntil(size_t slot) const;

  /// Offset of the current instant within the synchronized generation's
  /// cycle (valid after InitialProbe). PacketsUntil(slot) is the cyclic
  /// distance from here to the start of the slot's nearest airing.
  uint64_t cycle_position() const {
    assert(cycle_pos_ == (now_ - gen_start_) % program_->cycle_packets());
    return cycle_pos_;
  }

  /// Forward walk over one on-air cycle: visits the data buckets in airing
  /// order from now (parity symbols skipped) and returns the data slot of
  /// the first for which \p pred(slot) holds, or nullopt. The hit is the
  /// argmin of PacketsUntil over every slot satisfying \p pred.
  template <class Pred>
  std::optional<size_t> FirstAiringWhere(Pred&& pred) const {
    const size_t n = program_->num_buckets();
    size_t phys = program_->SlotStartingAtOrAfter(cycle_position());
    for (size_t i = 0; i < n; ++i, phys = phys + 1 < n ? phys + 1 : 0) {
      const uint32_t slot = program_->bucket(phys).data_slot;
      if (slot == Bucket::kNoDataSlot) continue;
      if (pred(slot)) return slot;
    }
    return std::nullopt;
  }

  /// Arms the per-query airtime budget: the watchdog expires \p cycles
  /// on-air cycles of the synchronized program from now. Each query family
  /// arms it at its own query start; a fresh or forked session is unarmed
  /// (already expired) until then.
  void ArmWatchdog(uint64_t cycles) {
    deadline_ = now_ + cycles * program_->cycle_packets();
  }

  /// Whether the armed budget is spent: the query should abort and report
  /// what it has (only reachable under extreme link-error rates).
  bool WatchdogExpired() const { return now_ >= deadline_; }

  /// Metrics so far; latency counts from the tune-in instant to now.
  Metrics metrics() const;

  /// Wall-clock side channel of the driving transport: how long the
  /// session actually blocked on a live channel (all zero when simulated).
  /// Reported NEXT TO the byte metrics, never mixed into them.
  transport::WallStats wall() const { return chan().wall(); }

  /// Optional radio-state trace: when set, every probe/doze/listen episode
  /// is appended to \p sink (doze episodes of zero length are skipped).
  void set_trace(std::vector<TraceEvent>* sink) { trace_ = sink; }

  /// The generation this session is synchronized to: the stamp of the last
  /// packet header it parked on. Always 0 for single-program sessions.
  /// Clients capture it after their probe and compare after every failed
  /// read — an advance means the broadcast was republished mid-query.
  uint64_t generation() const { return generation_; }

  /// The program of the synchronized generation (the single program for
  /// static sessions).
  const BroadcastProgram& program() const { return *program_; }

 private:
  /// The channel substrate: the externally supplied transport, or the
  /// embedded simulator view the convenience constructors set up. Member
  /// (not pointer-to-member) dispatch keeps the session copyable — a
  /// copied internal session refers to its OWN embedded view.
  transport::Transport& chan() { return ext_ != nullptr ? *ext_ : sim_; }
  const transport::Transport& chan() const {
    return ext_ != nullptr ? static_cast<const transport::Transport&>(*ext_)
                           : sim_;
  }
  /// Re-reads the generation live at now_ from the transport and caches
  /// its program and [start, end) span.
  void SyncGeneration();

  void AdvanceTo(uint64_t target_packet);  // doze, no tuning cost
  void Listen(uint64_t packets);           // active listening
  /// Logical successor of data slot \p slot, wrapping by comparison.
  size_t NextDataSlot(size_t slot) const {
    return slot + 1 < program_->num_data_buckets() ? slot + 1 : 0;
  }
  /// Moves now_ forward by \p packets and keeps cycle_pos_ and
  /// cycle_index_ in step: one compare-subtract, plus a division only when
  /// the step spans a whole cycle.
  void Tick(uint64_t packets);
  /// Shared constructor tail: arms kSingleEvent/kPerBucketLoss/kBurstLoss
  /// state with identical draws for static and generational sessions.
  void ArmErrorModel();
  /// Re-syncs to the generation live now, then dozes to the next DATA
  /// bucket boundary of its program (chasing across further switch instants
  /// if the boundary lands exactly on one; dozing over any parity tail of a
  /// coded cycle). Sets current_slot_.
  void ParkAtNextBoundary();

  /// Physical slot of the nearest upcoming airing of data slot
  /// \p data_slot: hot slots of a multi-disk cycle air several times and
  /// the session always resolves a read to whichever repetition starts
  /// soonest.
  size_t NextPhysOf(size_t data_slot) const;
  /// Doze distance from now to the next airing of physical slot
  /// \p phys_slot (0 if it starts right now).
  uint64_t PhysWait(size_t phys_slot) const;
  /// One loss coin for the bucket instance of \p phys_slot whose listen
  /// covered [listen_start, listen_start + packets) in cycle occurrence
  /// \p occ of the current generation. Consumes receiver state for the
  /// receiver-local modes (kPerReadLoss rng draws, the kSingleEvent
  /// one-shot); channel-keyed for kPerBucketLoss/kBurstLoss.
  bool DrawLoss(size_t phys_slot, uint64_t listen_start, uint64_t packets,
                uint64_t occ);
  /// kBurstLoss: whether any channel burst overlaps [start, start+packets).
  bool BurstLost(uint64_t start, uint64_t packets) const;
  /// Records the listen of physical slot \p phys_slot from cycle
  /// occurrence \p occ of the current generation in the per-group symbol
  /// buffer a real receiver keeps for erasure decoding: an intact copy
  /// (\p intact) or a listened-and-LOST airing, which lets a later
  /// ReadBucket of that slot fail immediately instead of blocking a full
  /// cycle for an airing the client knows is gone. Tracks one (group, occurrence) at a time —
  /// the sequential access pattern of every family — and no-ops on uncoded
  /// programs.
  void NoteSymbol(size_t phys_slot, uint64_t occ, bool intact);
  /// Reconstruction path for a lost read of the airing at physical slot
  /// \p phys in cycle occurrence \p occ of the current generation.
  /// Decodes from any d distinct intact symbols of the bucket's parity
  /// group, combining (a) symbols already buffered from this occurrence
  /// (NoteSymbol — free, the client holds them) with (b) the group symbols
  /// still IN FLIGHT in the same occurrence, listened in broadcast order.
  /// Never dozes across the cycle: if the in-flight tail cannot reach d
  /// symbols the repair fails fast with zero extra listens and the
  /// caller's next-cycle retry proceeds exactly as uncoded. A closed
  /// decode credits EVERY symbol of the group to the buffer (d intact
  /// symbols determine them all), so sibling reads whose airings the
  /// repair consumed are served for free. Leaves the session parked for
  /// the next data bucket and returns whether the bucket was recovered.
  bool TryRepair(size_t phys, uint64_t occ);

  transport::SimTransport sim_;           // embedded simulator substrate
  transport::Transport* ext_ = nullptr;   // external substrate (overrides)
  const BroadcastProgram* program_;   // cached: chan().ProgramOf(generation_)
  uint64_t generation_ = 0;          // transport generation (0 when static)
  uint64_t gen_start_ = 0;           // absolute first packet of generation_
  uint64_t gen_end_ = UINT64_MAX;    // absolute end (exclusive); MAX = forever
  uint64_t tune_in_;
  uint64_t now_;
  uint64_t cycle_pos_ = 0;    // (now_ - gen_start_) mod cycle, kept by Tick
  uint64_t cycle_index_ = 0;  // (now_ - gen_start_) / cycle, kept by Tick
  uint64_t listened_packets_ = 0;
  uint64_t repaired_ = 0;  // lost reads reconstructed from parity groups
  uint64_t deadline_ = 0;  // watchdog: packet at which the budget is spent
  size_t current_slot_ = 0;
  ErrorModel errors_;
  common::Rng rng_;
  bool probed_ = false;
  bool event_armed_ = false;      // kSingleEvent: error not yet consumed
  uint64_t event_packet_ = 0;     // kSingleEvent: global corrupted packet
  uint64_t channel_seed_ = 0;     // kPerBucketLoss: per-session channel key
  // Erasure-decode symbol buffer: which symbols of ONE parity group, in ONE
  // cycle occurrence of ONE generation, the client holds intact copies of
  // (heard_mask_) or has listened to and lost (lost_mask_).
  size_t heard_group_ = SIZE_MAX;
  uint64_t heard_occ_ = 0;
  uint64_t heard_gen_ = 0;
  uint64_t heard_mask_ = 0;
  uint64_t lost_mask_ = 0;
  std::vector<TraceEvent>* trace_ = nullptr;
};

}  // namespace dsi::broadcast
