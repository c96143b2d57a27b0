#include "broadcast/client.hpp"

#include "broadcast/airing_order.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace dsi::broadcast {

namespace {

/// SplitMix64 finalizer; decorrelates (channel seed, bucket instance) pairs
/// into independent uniform draws for the kPerBucketLoss/kBurstLoss coins.
uint64_t MixBits(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from a hash, at the 2^-53 granularity of the
/// double mantissa (the same mapping the kPerBucketLoss coin uses).
double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// kBurstLoss channel-weather parameters: bursts average kBurstMeanPackets
/// of corrupted air time (a couple of typical buckets — long enough to take
/// out adjacent group members, the adversarial case for interleaved
/// parity), truncated at kBurstMaxPackets so an instance's fate only
/// depends on a bounded window of onset candidates.
constexpr double kBurstMeanPackets = 24.0;
constexpr uint64_t kBurstMaxPackets = 96;
/// Domain-separation salts for the two per-packet burst draws (onset,
/// length).
constexpr uint64_t kBurstOnsetSalt = 0xB0B57A57A57ull;
constexpr uint64_t kBurstLengthSalt = 0x1E46775C0DEull;

}  // namespace

ClientSession::ClientSession(const BroadcastProgram& program,
                             uint64_t tune_in_packet, ErrorModel errors,
                             common::Rng rng)
    : sim_(program),
      tune_in_(tune_in_packet),
      now_(tune_in_packet),
      errors_(errors),
      rng_(rng) {
  SyncGeneration();
  assert(program_->finalized());
  assert(program_->cycle_packets() > 0);
  ArmErrorModel();
}

ClientSession::ClientSession(const GenerationSchedule& schedule,
                             uint64_t tune_in_packet, ErrorModel errors,
                             common::Rng rng)
    : sim_(schedule),
      tune_in_(tune_in_packet),
      now_(tune_in_packet),
      errors_(errors),
      rng_(rng) {
  assert(schedule.num_generations() > 0);
  SyncGeneration();
  ArmErrorModel();
}

ClientSession::ClientSession(transport::Transport& channel,
                             uint64_t tune_in_packet, ErrorModel errors,
                             common::Rng rng)
    : ext_(&channel),
      tune_in_(tune_in_packet),
      now_(tune_in_packet),
      errors_(errors),
      rng_(rng) {
  SyncGeneration();
  assert(program_->finalized());
  assert(program_->cycle_packets() > 0);
  ArmErrorModel();
}

void ClientSession::SyncGeneration() {
  generation_ = chan().GenerationAt(now_);
  program_ = &chan().ProgramOf(generation_);
  gen_start_ = chan().StartOf(generation_);
  gen_end_ = chan().EndOf(generation_);
  const uint64_t cycle = program_->cycle_packets();
  cycle_index_ = (now_ - gen_start_) / cycle;
  cycle_pos_ = (now_ - gen_start_) - cycle_index_ * cycle;
}

void ClientSession::ArmErrorModel() {
  // kSingleEvent: the error burst lands uniformly within the first cycle
  // (of the tune-in generation) after tune-in. One shared implementation:
  // both constructors must draw identically or the documented
  // static-vs-single-generation byte identity breaks.
  if (errors_.mode == ErrorMode::kSingleEvent &&
      rng_.Bernoulli(errors_.theta)) {
    event_armed_ = true;
    event_packet_ =
        tune_in_ + static_cast<uint64_t>(rng_.UniformInt(
                       0, static_cast<int64_t>(program_->cycle_packets()) - 1));
  }
  // The channel-keyed modes own a per-session channel seed (shared with
  // ForkColdSession clones: one physical channel, one weather pattern).
  if (errors_.mode == ErrorMode::kPerBucketLoss ||
      errors_.mode == ErrorMode::kBurstLoss) {
    channel_seed_ = rng_.engine()();
  }
}

size_t ClientSession::NextPhysOf(size_t data_slot) const {
  const std::span<const uint32_t> airings = program_->airings(data_slot);
  if (airings.size() == 1) return airings.front();
  // Repetitions are listed in cycle order: the soonest is the first that
  // starts at or after the cycle position, wrapping to the front.
  return *SoonestAtOrAfter(
      airings.begin(), airings.end(), cycle_position(),
      [&](uint32_t phys) { return program_->bucket(phys).start_packet; });
}

void ClientSession::ParkAtNextBoundary() {
  while (true) {
    SyncGeneration();
    const uint64_t cycle = program_->cycle_packets();
    const uint64_t pos = cycle_position();
    size_t slot = program_->SlotStartingAtOrAfter(pos);
    // Parity symbols are no tune-in target: park on the next DATA bucket
    // boundary, dozing over any parity tail in between (parity sits only
    // between groups, so nothing a client could want goes by).
    while (program_->bucket(slot).kind == BucketKind::kParity) {
      slot = slot + 1 < program_->num_buckets() ? slot + 1 : 0;
    }
    const uint64_t start = program_->bucket(slot).start_packet;
    const uint64_t delta = start >= pos ? start - pos : (cycle - pos) + start;
    // A wrap to the next cycle can land exactly on a republication instant:
    // the boundary then belongs to the incoming generation — re-sync and
    // park on ITS first bucket (offset 0 of the new program, so the next
    // iteration terminates with delta 0).
    if (now_ + delta >= gen_end_) {
      AdvanceTo(gen_end_);
      continue;
    }
    AdvanceTo(now_ + delta);
    current_slot_ = program_->bucket(slot).data_slot;
    return;
  }
}

void ClientSession::InitialProbe() {
  if (probed_) return;
  probed_ = true;
  // Listen to the packet currently on air to learn where the next bucket
  // starts (standard air-indexing assumption: every packet carries that
  // offset — and, on dynamic broadcasts, the generation stamp — in its
  // header).
  if (trace_ != nullptr) {
    trace_->push_back(TraceEvent{TraceEvent::Kind::kProbe, now_, now_ + 1,
                                 /*slot=*/0, /*lost=*/false});
  }
  Listen(1);
  ParkAtNextBoundary();
}

void ClientSession::Pace(uint64_t packets) {
  assert(probed_);
  if (packets == 0) return;
  ResumeAt(now_ + packets);
}

void ClientSession::ResumeAt(uint64_t wake_packet) {
  assert(probed_);
  assert(wake_packet >= now_);
  if (wake_packet == now_) return;
  AdvanceTo(wake_packet);
  if (now_ >= gen_end_) {
    // Woke up in a republished broadcast: the remembered layout is gone, so
    // re-synchronize off one packet header, exactly like the initial probe.
    if (trace_ != nullptr) {
      trace_->push_back(TraceEvent{TraceEvent::Kind::kProbe, now_, now_ + 1,
                                   /*slot=*/0, /*lost=*/false});
    }
    Listen(1);
  }
  ParkAtNextBoundary();
}

ClientSession ClientSession::ForkColdSession(uint64_t tune_in_packet,
                                             common::Rng rng) const {
  auto make = [&]() -> ClientSession {
    if (ext_ != nullptr) {
      // A live stream has one read position; only a stateless shareable
      // substrate can carry a second, independently-positioned session.
      assert(ext_->shareable());
      return ClientSession(*ext_, tune_in_packet, errors_, std::move(rng));
    }
    if (sim_.schedule() != nullptr) {
      return ClientSession(*sim_.schedule(), tune_in_packet, errors_,
                           std::move(rng));
    }
    return ClientSession(*sim_.single_program(), tune_in_packet, errors_,
                         std::move(rng));
  };
  ClientSession cold = make();
  // One physical channel: the per-bucket-instance loss coins belong to the
  // channel, not the receiver, so the clone must flip the same ones.
  cold.channel_seed_ = channel_seed_;
  return cold;
}

uint64_t ClientSession::PhysWait(size_t phys_slot) const {
  const uint64_t pos = cycle_position();
  const uint64_t start = program_->bucket(phys_slot).start_packet;
  return start >= pos ? start - pos
                      : program_->cycle_packets() - pos + start;
}

uint64_t ClientSession::PacketsUntil(size_t slot) const {
  assert(probed_);
  return PhysWait(NextPhysOf(slot));
}

bool ClientSession::ReadBucket(size_t slot) {
  // Coded broadcasts: the erasure-decode buffer may already hold an intact
  // copy of this bucket — heard as a group symbol during a repair of a
  // neighbor, or reconstructed by one. Serving it from the buffer costs no
  // airtime at all (the radio stays off; the clock does not move), which
  // is exactly what keeps sequential scans affordable when a repair has
  // consumed the airings the scan was about to read.
  if (program_->coded() && heard_gen_ == generation_) {
    // The slot's airings inside the buffered group, one bit per member (a
    // hot slot of a multi-disk cycle may air twice in one group).
    const size_t stride =
        size_t{program_->coding_group()} + program_->coding_parity();
    uint64_t mine = 0;
    for (const uint32_t phys : program_->airings(slot)) {
      if (phys / stride == heard_group_) {
        mine |= uint64_t{1} << (phys - heard_group_ * stride);
      }
    }
    if ((heard_mask_ & mine) != 0) {
      current_slot_ = NextDataSlot(slot);
      return true;
    }
    // Negative buffer hit: this occurrence's airing was already listened
    // to (by a repair tail) and lost. Try to decode it from what the
    // buffer holds; otherwise fail NOW — zero listens, zero airtime — so
    // scan-style callers defer the slot instead of blocking a full cycle
    // for an airing the client knows is gone. One-shot: the bit clears,
    // so a deliberate blocking retry dozes to the next airing like any
    // plain loss and time always progresses.
    if ((lost_mask_ & mine) != 0) {
      const uint64_t member = std::countr_zero(lost_mask_ & mine);
      if (TryRepair(heard_group_ * stride + member, heard_occ_)) {
        ++repaired_;
        return true;
      }
      lost_mask_ &= ~(uint64_t{1} << member);
      return false;
    }
  }
  // Dynamic broadcast: the aimed-at occurrence may lie past the end of the
  // synchronized generation, i.e. it will never air. The client cannot know
  // in advance — it dozes to where it believed the bucket would start,
  // hears one packet stamped with a newer generation, and re-synchronizes
  // like the initial probe. No loss coin is drawn: nothing was on air to
  // lose; generation() advancing is the caller's republication signal. The
  // target airing is resolved before dozing: on a multi-disk cycle the
  // nearest repetition depends on where the session stands right now.
  const size_t phys = NextPhysOf(slot);
  const uint64_t start = now_ + PhysWait(phys);
  if (start >= gen_end_) {
    AdvanceTo(start);
    const uint64_t listen_start = now_;
    Listen(1);
    if (trace_ != nullptr) {
      trace_->push_back(TraceEvent{TraceEvent::Kind::kListen, listen_start,
                                   now_, slot, /*lost=*/true});
    }
    ParkAtNextBoundary();
    return false;
  }
  AdvanceTo(start);
  const Bucket& b = program_->bucket(phys);
  const uint64_t listen_start = now_;
  const uint64_t occ = cycle_index_;  // the listen's cycle occurrence
  Listen(b.packets);
  // The logical successor becomes the current slot: the next data bucket
  // on air on plain and coded cycles (the group's parity may air first;
  // later operations doze over it on demand).
  current_slot_ = NextDataSlot(slot);
  const bool lost = DrawLoss(phys, listen_start, b.packets, occ);
  if (trace_ != nullptr) {
    trace_->push_back(
        TraceEvent{TraceEvent::Kind::kListen, listen_start, now_, slot, lost});
  }
  NoteSymbol(phys, occ, !lost);  // feed the erasure-decode buffer
  if (!lost) return true;
  if (program_->coded()) {
    if (TryRepair(phys, occ)) {
      ++repaired_;
      return true;
    }
  }
  return false;
}

bool ClientSession::DrawLoss(size_t phys_slot, uint64_t listen_start,
                             uint64_t packets, uint64_t occ) {
  switch (errors_.mode) {
    case ErrorMode::kPerReadLoss:
      return rng_.Bernoulli(errors_.theta);
    case ErrorMode::kSingleEvent:
      // The error burst corrupts the first bucket the client listens to at
      // or after the event instant (a burst while dozing damages whatever
      // is read next once the receiver wakes into the degraded channel).
      if (event_armed_ && event_packet_ < now_) {
        event_armed_ = false;
        return true;
      }
      return false;
    case ErrorMode::kPerBucketLoss: {
      // The coin belongs to the on-air instance: the generation-relative
      // cycle occurrence of the listen start (the session is parked on the
      // bucket boundary when the listen begins) paired with the physical
      // slot, hashed against the channel seed. Generations past the first
      // salt the key so a republished layout rolls fresh coins; generation
      // 0 reproduces the static formula exactly. 2^-53 granularity matches
      // the double mantissa.
      uint64_t key = occ * program_->num_buckets() + phys_slot;
      if (generation_ != 0) key ^= MixBits(generation_);
      const uint64_t h = MixBits(channel_seed_ ^ MixBits(key));
      return HashToUnit(h) < errors_.theta;
    }
    case ErrorMode::kBurstLoss:
      return BurstLost(listen_start, packets);
  }
  return false;
}

bool ClientSession::BurstLost(uint64_t start, uint64_t packets) const {
  if (errors_.theta <= 0.0) return false;
  if (errors_.theta >= 1.0) return true;
  // Burst onsets form a hashed Bernoulli process over absolute packet time
  // with rate chosen so the stationary covered fraction is theta: a packet
  // is burst-free iff no onset within the preceding mean burst length,
  // P(clear) = (1 - rate)^len ~= exp(-rate * len) = 1 - theta.
  const double rate =
      std::min(1.0, -std::log1p(-errors_.theta) / kBurstMeanPackets);
  const uint64_t first_onset =
      start > kBurstMaxPackets ? start - kBurstMaxPackets : 0;
  for (uint64_t t = first_onset; t < start + packets; ++t) {
    const uint64_t h_on =
        MixBits(channel_seed_ ^ MixBits(t) ^ kBurstOnsetSalt);
    if (HashToUnit(h_on) >= rate) continue;
    // An onset at t: draw its (truncated geometric-like) length and test
    // overlap with the listened interval [start, start + packets).
    const uint64_t h_len =
        MixBits(channel_seed_ ^ MixBits(t) ^ kBurstLengthSalt);
    uint64_t len = 1 + static_cast<uint64_t>(-std::log1p(-HashToUnit(h_len)) *
                                             (kBurstMeanPackets - 1.0));
    len = std::min(len, kBurstMaxPackets);
    if (t + len > start) return true;
  }
  return false;
}

void ClientSession::NoteSymbol(size_t phys_slot, uint64_t occ, bool intact) {
  if (!program_->coded()) return;
  const size_t stride =
      size_t{program_->coding_group()} + program_->coding_parity();
  const size_t group = phys_slot / stride;
  const uint64_t bit = uint64_t{1} << (phys_slot - group * stride);
  if (heard_group_ != group || heard_occ_ != occ ||
      heard_gen_ != generation_) {
    // The buffer holds one group of one cycle occurrence: crossing into a
    // new group (the sequential case), a later cycle (a retry) or a new
    // generation (republished layout) drops the stale symbols.
    heard_group_ = group;
    heard_occ_ = occ;
    heard_gen_ = generation_;
    heard_mask_ = 0;
    lost_mask_ = 0;
  }
  if (intact) {
    heard_mask_ |= bit;
    lost_mask_ &= ~bit;
  } else {
    lost_mask_ |= bit;
  }
}

bool ClientSession::TryRepair(size_t phys, uint64_t occ) {
  // The group is the contiguous physical run around the lost airing: d data
  // airings (fewer in the cycle's short wrap-around group), then p parity.
  const BroadcastProgram::GroupRun run = program_->GroupOf(phys);
  const size_t group =
      phys / (size_t{program_->coding_group()} + program_->coding_parity());
  const size_t base = run.first;  // physical slot of the first member
  const size_t d = run.data;
  const size_t members = d + program_->coding_parity();
  const size_t target = phys - base;
  const uint64_t cycle = program_->cycle_packets();
  const uint64_t occ_start = gen_start_ + occ * cycle;

  // Symbols of this group the client already holds from this occurrence
  // (free — they were listened to as ordinary reads). The target's own bit
  // never counts: this airing of it was lost.
  uint64_t have = 0;
  if (heard_group_ == group && heard_occ_ == occ &&
      heard_gen_ == generation_) {
    have = heard_mask_ & ~(uint64_t{1} << target);
  }
  size_t collected = 0;
  for (size_t m = 0; m < members; ++m) collected += (have >> m) & 1;

  // The in-flight tail: group symbols of this occurrence that have not
  // aired yet. If buffered + in-flight symbols cannot reach d, the group
  // is unrecoverable this cycle — fail fast with ZERO extra listens, so a
  // hopeless repair costs exactly what the uncoded retry path costs.
  size_t in_flight = 0;
  for (size_t m = 0; m < members; ++m) {
    if ((have >> m) & 1) continue;
    if (m == target) continue;  // its airing just passed (the lost read)
    if (occ_start + program_->bucket(base + m).start_packet >= now_) {
      ++in_flight;
    }
  }
  bool recovered = collected >= d;  // decode from the buffer alone
  if (!recovered && collected + in_flight < d) {
    return false;  // session state untouched: parked exactly as a plain loss
  }

  // Listen to the in-flight symbols in broadcast order until the decode
  // closes. Everything happens inside this occurrence — the repair never
  // dozes across the cycle, so its worst case is the group's own span.
  for (size_t m = 0; !recovered && m < members; ++m) {
    if ((have >> m) & 1) continue;
    if (m == target) continue;
    const Bucket& b = program_->bucket(base + m);
    const uint64_t start = occ_start + b.start_packet;
    if (start < now_) continue;  // already aired before the loss
    // Parity groups die with their generation: an airing at or past the
    // republication instant does not exist — fall back to the caller's
    // retry, which will hear the new generation stamp and resynchronize.
    if (start >= gen_end_) break;
    // Fail fast mid-tail too: the remaining symbols cannot close the gap.
    // (Members air in slot order, so every one left is still in flight.)
    if (collected + in_flight < d) break;
    --in_flight;
    AdvanceTo(start);
    const uint64_t listen_start = now_;
    Listen(b.packets);
    const bool lost = DrawLoss(base + m, listen_start, b.packets, occ);
    if (trace_ != nullptr) {
      trace_->push_back(TraceEvent{TraceEvent::Kind::kRepair, listen_start,
                                   now_, base + m, lost});
    }
    NoteSymbol(base + m, occ, !lost);
    if (lost) continue;
    have |= uint64_t{1} << m;
    if (++collected >= d) recovered = true;  // d-of-(d+p): decode closes
  }
  if (recovered) {
    // d intact symbols determine the WHOLE group, not just the target:
    // credit every member, so sibling reads whose airings this repair
    // consumed (the scan's next buckets) are served from the buffer
    // instead of waiting a cycle for airings the client already spent
    // tuning time on.
    NoteSymbol(phys, occ, true);
    heard_mask_ =
        members >= 64 ? ~uint64_t{0} : (uint64_t{1} << members) - 1;
    lost_mask_ = 0;
  }
  // Rest where the repair ended; the next data bucket to start (nothing but
  // parity can sit in between) is the parked slot, exactly like the tail of
  // a normal read.
  size_t next = program_->SlotStartingAtOrAfter(cycle_position());
  while (program_->bucket(next).kind == BucketKind::kParity) {
    next = next + 1 < program_->num_buckets() ? next + 1 : 0;
  }
  current_slot_ = program_->bucket(next).data_slot;
  return recovered;
}

Metrics ClientSession::metrics() const {
  Metrics m;
  m.access_latency_bytes = (now_ - tune_in_) * program_->packet_capacity();
  m.tuning_bytes = listened_packets_ * program_->packet_capacity();
  m.repaired = repaired_;
  return m;
}

void ClientSession::AdvanceTo(uint64_t target_packet) {
  assert(target_packet >= now_);
  if (trace_ != nullptr && target_packet > now_) {
    trace_->push_back(TraceEvent{TraceEvent::Kind::kDoze, now_, target_packet,
                                 /*slot=*/0, /*lost=*/false});
  }
  if (target_packet > now_) chan().Doze(now_, target_packet);
  Tick(target_packet - now_);
}

void ClientSession::Listen(uint64_t packets) {
  chan().Listen(now_, packets);
  listened_packets_ += packets;
  Tick(packets);
}

void ClientSession::Tick(uint64_t packets) {
  now_ += packets;
  const uint64_t cycle = program_->cycle_packets();
  if (packets >= cycle) {  // only a doze spanning a whole cycle divides
    cycle_index_ += packets / cycle;
    packets %= cycle;
  }
  cycle_pos_ += packets;
  if (cycle_pos_ >= cycle) {
    cycle_pos_ -= cycle;
    ++cycle_index_;
  }
  assert(cycle_pos_ == (now_ - gen_start_) % cycle &&
         cycle_index_ == (now_ - gen_start_) / cycle);
}

}  // namespace dsi::broadcast
