#include "transport/live_source.hpp"

#include <cassert>

#include "broadcast/coding.hpp"
#include "common/sizes.hpp"
#include "wire/codecs.hpp"

namespace dsi::transport {

namespace {

// GF(2^8) arithmetic (AES polynomial 0x11B). Parity planes are rows of a
// Vandermonde matrix over this field: plane j weights group member i with
// alpha^(j*i), alpha = 2, so plane 0 is the plain XOR and any d intact
// symbols of d data + p planes solve for the group (d <= coding group <=
// 64 keeps the matrix nonsingular in GF(256)).

/// a * 2.
uint8_t GfTimes2(uint8_t a) {
  return static_cast<uint8_t>((a << 1) ^ ((a & 0x80) != 0 ? 0x1B : 0));
}

/// alpha^e; alpha^255 = 1 in GF(256).
uint8_t AlphaPow(uint32_t e) {
  uint8_t out = 1;
  for (e %= 255; e > 0; --e) out = GfTimes2(out);
  return out;
}

/// dst[i] ^= coeff * src[i] for i < n: a plain XOR for coefficient 1, one
/// 256-entry product row otherwise. Multiplication by coeff is linear over
/// the bits of its operand, so row[v + 2^k] = row[v] ^ coeff * 2^k.
void MulAddPlane(uint8_t coeff, const uint8_t* src, size_t n, uint8_t* dst) {
  if (coeff == 1) {
    for (size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  uint8_t row[256];
  row[0] = 0;
  uint8_t bit = coeff;
  for (size_t half = 1; half < 256; half <<= 1, bit = GfTimes2(bit)) {
    for (size_t v = 0; v < half; ++v) {
      row[half + v] = static_cast<uint8_t>(row[v] ^ bit);
    }
  }
  for (size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

}  // namespace

LiveSource::LiveSource(const wire::HelloPayload& hello)
    : hello_(hello),
      mapper_(datasets::UnitUniverse(),
              static_cast<int>(hello.hilbert_order)) {
  const common::Rect u = datasets::UnitUniverse();

  // Generation 0 is the base dataset; each later generation applies a
  // deterministic update stream — the exact derivation the conformance
  // fuzzer uses, so a live daemon's dynamics match the simulated ones.
  gen_objects_.push_back(
      datasets::MakeUniform(hello.num_objects, u, hello.seed * 3 + 1));
  std::vector<std::vector<datasets::UpdateOp>> gen_ops;
  for (uint32_t g = 1; g < hello.num_generations; ++g) {
    gen_ops.push_back(datasets::MakeUpdateStream(
        gen_objects_.back(), hello.updates_per_gen, u,
        hello.seed * 0x51ED + g));
    gen_objects_.push_back(
        datasets::ApplyUpdates(gen_objects_.back(), gen_ops.back()));
  }
  const size_t num_gens = gen_objects_.size();

  switch (hello.family) {
    case wire::FamilyId::kDsi: {
      core::DsiConfig cfg;
      cfg.num_segments = hello.num_segments;
      dsi_indexes_.push_back(std::make_unique<core::DsiIndex>(
          gen_objects_[0], mapper_, hello.packet_capacity, cfg));
      for (size_t g = 1; g < num_gens; ++g) {
        dsi_indexes_.push_back(std::make_unique<core::DsiIndex>(
            core::DsiIndex::Republish(*dsi_indexes_.back(), gen_ops[g - 1])));
      }
      dsi_handles_.reserve(dsi_indexes_.size());
      for (const auto& index : dsi_indexes_) dsi_handles_.emplace_back(*index);
      for (const auto& h : dsi_handles_) handles_.push_back(&h);
      break;
    }
    case wire::FamilyId::kRtree: {
      for (size_t g = 0; g < num_gens; ++g) {
        rtree_indexes_.push_back(std::make_unique<rtree::RtreeIndex>(
            gen_objects_[g], hello.packet_capacity));
      }
      rtree_handles_.reserve(rtree_indexes_.size());
      for (const auto& index : rtree_indexes_) {
        rtree_handles_.emplace_back(*index);
      }
      for (const auto& h : rtree_handles_) handles_.push_back(&h);
      break;
    }
    case wire::FamilyId::kHci: {
      for (size_t g = 0; g < num_gens; ++g) {
        hci_indexes_.push_back(std::make_unique<hci::HciIndex>(
            gen_objects_[g], mapper_, hello.packet_capacity));
      }
      hci_handles_.reserve(hci_indexes_.size());
      for (const auto& index : hci_indexes_) hci_handles_.emplace_back(*index);
      for (const auto& h : hci_handles_) handles_.push_back(&h);
      break;
    }
    case wire::FamilyId::kExpIndex: {
      for (size_t g = 0; g < num_gens; ++g) {
        exp_handles_.push_back(std::make_unique<air::ExpHandle>(
            gen_objects_[g], mapper_, hello.packet_capacity,
            expindex::ExpConfig{}));
      }
      for (const auto& h : exp_handles_) handles_.push_back(h.get());
      break;
    }
  }

  // Each generation is encoded independently (parity groups die with their
  // generation). Sized up front: the schedule holds raw pointers.
  const broadcast::CodingConfig coding{hello.coding_group,
                                       hello.coding_parity};
  if (coding.enabled()) {
    coded_.reserve(handles_.size());
    for (const air::AirIndexHandle* h : handles_) {
      coded_.push_back(broadcast::MakeCodedProgram(h->program(), coding));
    }
  }
  for (size_t g = 0; g < handles_.size(); ++g) {
    air_programs_.push_back(coding.enabled() ? &coded_[g]
                                             : &handles_[g]->program());
  }
  // A zero-object recipe builds zero-cycle programs, which never air: the
  // schedule stays empty and the daemon refuses them (see airable()).
  if (!airable()) return;
  for (const broadcast::BroadcastProgram* program : air_programs_) {
    schedule_.Append(program, hello.gen_cycles);
  }
}

void LiveSource::AppendDataContent(size_t g, const broadcast::Bucket& bucket,
                                   std::vector<uint8_t>* out) const {
  [[maybe_unused]] const size_t start = out->size();
  switch (bucket.kind) {
    case broadcast::BucketKind::kDsiFrameTable:
      // DSI and the exponential index both air one table bucket per
      // frame/chunk, payload = broadcast position.
      if (hello_.family == wire::FamilyId::kDsi) {
        const core::DsiIndex& index = *dsi_indexes_[g];
        wire::AppendDsiTable(index.TableAt(bucket.payload),
                             index.segment_head_hcs(), index.table_hc_bytes(),
                             out);
      } else {
        const expindex::ExpIndex& index = exp_handles_[g]->index();
        wire::AppendExpTable(index.ChunkMinKey(bucket.payload),
                             index.TableAt(bucket.payload),
                             index.config().key_bytes, out);
      }
      break;
    case broadcast::BucketKind::kIndexNode:
      if (hello_.family == wire::FamilyId::kRtree) {
        wire::AppendRtreeNode(
            rtree_indexes_[g]->tree().entries(bucket.payload), out);
      } else {
        wire::AppendBptNode(hci_indexes_[g]->tree().entries(bucket.payload),
                            out);
      }
      break;
    case broadcast::BucketKind::kDataObject: {
      const std::vector<datasets::SpatialObject>* sorted = nullptr;
      switch (hello_.family) {
        case wire::FamilyId::kDsi:
          sorted = &dsi_indexes_[g]->sorted_objects();
          break;
        case wire::FamilyId::kRtree:
          sorted = &rtree_indexes_[g]->str_objects();
          break;
        case wire::FamilyId::kHci:
          sorted = &hci_indexes_[g]->sorted_objects();
          break;
        case wire::FamilyId::kExpIndex:
          sorted = &exp_handles_[g]->sorted_objects();
          break;
      }
      wire::AppendDataObject((*sorted)[bucket.payload], out);
      break;
    }
    case broadcast::BucketKind::kParity:
      assert(false && "parity is not data");
      break;
  }
  assert(out->size() - start == bucket.size_bytes);
}

std::vector<uint8_t> LiveSource::BucketContent(size_t g,
                                               size_t phys_slot) const {
  std::vector<uint8_t> out;
  AppendBucketContent(g, phys_slot, &out);
  return out;
}

void LiveSource::AppendBucketContent(size_t g, size_t phys_slot,
                                     std::vector<uint8_t>* out) const {
  const broadcast::BroadcastProgram& p = program(g);
  const broadcast::Bucket& bucket = p.bucket(phys_slot);
  if (bucket.kind != broadcast::BucketKind::kParity) {
    AppendDataContent(g, bucket, out);
    return;
  }
  // Parity plane: the group's members are the contiguous physical run of
  // data airings before its parity; the plane number is this bucket's rank
  // within the parity run. A member shorter than the plane is zero-padded,
  // and zeros add nothing, so only its own bytes are folded in.
  const broadcast::BroadcastProgram::GroupRun run = p.GroupOf(phys_slot);
  const size_t plane = phys_slot - run.first - run.data;
  const size_t base = out->size();
  const size_t end = base + bucket.size_bytes;
  out->reserve(end + bucket.size_bytes);  // plane + one member, no regrowth
  out->resize(end, 0);
  for (size_t m = 0; m < run.data; ++m) {
    const broadcast::Bucket& member = p.bucket(run.first + m);
    AppendDataContent(g, member, out);
    MulAddPlane(AlphaPow(static_cast<uint32_t>(plane * m)), out->data() + end,
                member.size_bytes, out->data() + base);
    out->resize(end);
  }
}

}  // namespace dsi::transport
