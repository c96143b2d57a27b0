#include "transport/live_source.hpp"

#include <cassert>

#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"

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
      mapper_(datasets::UnitUniverse(), static_cast<int>(hello.hilbert_order)),
      generations_(air::MakeGenerations(
          hello.seed, hello.num_generations, hello.updates_per_gen,
          [&hello](uint64_t seed) {
            return datasets::MakeUniform(hello.num_objects,
                                         datasets::UnitUniverse(), seed);
          })),
      family_(hello.family, generations_, mapper_, hello.packet_capacity,
              core::DsiConfig{.num_segments = hello.num_segments}),
      // Each generation is encoded independently (parity groups die with
      // their generation). A zero-object recipe builds zero-cycle programs,
      // which never air: the schedule stays empty and the daemon refuses
      // them (see airable()).
      on_air_(family_.handles(),
              std::vector<uint64_t>(family_.num_generations(),
                                    hello.gen_cycles),
              broadcast::CodingConfig{hello.coding_group, hello.coding_parity},
              broadcast::DiskConfig{}) {
  assert(wire::RecipeError(hello).empty());
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
  const air::AirIndexHandle& h = handle(g);
  if (bucket.kind != broadcast::BucketKind::kParity) {
    h.AppendContent(bucket, out);
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
    h.AppendContent(member, out);
    MulAddPlane(AlphaPow(static_cast<uint32_t>(plane * m)), out->data() + end,
                member.size_bytes, out->data() + base);
    out->resize(end);
  }
}

}  // namespace dsi::transport
