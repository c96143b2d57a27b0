#include "transport/live_source.hpp"

#include <algorithm>
#include <cassert>

#include "broadcast/coding.hpp"
#include "common/sizes.hpp"
#include "wire/codecs.hpp"

namespace dsi::transport {

namespace {

/// GF(2^8) multiply (AES polynomial 0x11B). Parity planes are rows of a
/// Vandermonde matrix over this field: plane j weights group member i with
/// alpha^(j*i), alpha = 2, so plane 0 is the plain XOR and any d intact
/// symbols of d data + p planes solve for the group (d <= coding group <=
/// 64 keeps the matrix nonsingular in GF(256)).
uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t out = 0;
  while (b != 0) {
    if (b & 1) out ^= a;
    const bool carry = (a & 0x80) != 0;
    a = static_cast<uint8_t>(a << 1);
    if (carry) a ^= 0x1B;
    b >>= 1;
  }
  return out;
}

uint8_t GfPow(uint8_t base, uint32_t exp) {
  uint8_t out = 1;
  while (exp != 0) {
    if (exp & 1) out = GfMul(out, base);
    base = GfMul(base, base);
    exp >>= 1;
  }
  return out;
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

std::vector<uint8_t> LiveSource::DataContent(size_t g,
                                             const broadcast::Bucket& bucket,
                                             size_t padded_bytes) const {
  std::vector<uint8_t> content;
  switch (bucket.kind) {
    case broadcast::BucketKind::kDsiFrameTable:
      // DSI and the exponential index both air one table bucket per
      // frame/chunk, payload = broadcast position.
      if (hello_.family == wire::FamilyId::kDsi) {
        const core::DsiIndex& index = *dsi_indexes_[g];
        content = wire::EncodeDsiTable(index.TableAt(bucket.payload),
                                       index.segment_head_hcs(),
                                       index.table_hc_bytes());
      } else {
        const expindex::ExpIndex& index = exp_handles_[g]->index();
        content = wire::EncodeExpTable(index.ChunkMinKey(bucket.payload),
                                       index.TableAt(bucket.payload),
                                       index.config().key_bytes);
      }
      break;
    case broadcast::BucketKind::kIndexNode:
      if (hello_.family == wire::FamilyId::kRtree) {
        content = wire::EncodeRtreeNode(
            rtree_indexes_[g]->tree().entries(bucket.payload));
      } else {
        content =
            wire::EncodeBptNode(hci_indexes_[g]->tree().entries(bucket.payload));
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
      content = wire::EncodeDataObject((*sorted)[bucket.payload]);
      break;
    }
    case broadcast::BucketKind::kParity:
      assert(false && "parity is not data");
      break;
  }
  assert(content.size() == bucket.size_bytes);
  if (padded_bytes > content.size()) content.resize(padded_bytes, 0);
  return content;
}

std::vector<uint8_t> LiveSource::BucketContent(size_t g,
                                               size_t phys_slot) const {
  const broadcast::BroadcastProgram& p = program(g);
  const broadcast::Bucket& bucket = p.bucket(phys_slot);
  if (bucket.kind != broadcast::BucketKind::kParity) {
    return DataContent(g, bucket, 0);
  }
  // Parity plane: payload is the group index; the plane number is this
  // bucket's rank within the group's consecutive parity run.
  size_t plane = 0;
  while (phys_slot >= plane + 1 &&
         p.bucket(phys_slot - plane - 1).kind ==
             broadcast::BucketKind::kParity) {
    ++plane;
  }
  const size_t group = bucket.payload;
  const size_t first_data = group * p.coding_group();
  const size_t last_data =
      std::min<size_t>(first_data + p.coding_group(), p.num_data_buckets());
  // Data slot -> physical slot: p parity buckets per completed group.
  const auto phys_of = [&](size_t data_slot) {
    return data_slot + (data_slot / p.coding_group()) * p.coding_parity();
  };
  std::vector<uint8_t> out(bucket.size_bytes, 0);
  for (size_t d = first_data; d < last_data; ++d) {
    const std::vector<uint8_t> member =
        DataContent(g, p.bucket(phys_of(d)), out.size());
    const uint8_t coeff =
        GfPow(2, static_cast<uint32_t>(plane * (d - first_data)));
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] ^= GfMul(coeff, member[i]);
    }
  }
  return out;
}

}  // namespace dsi::transport
