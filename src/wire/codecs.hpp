#pragma once

/// \file codecs.hpp
/// \brief On-air serialization of every index structure, byte-for-byte
/// consistent with the sizes the broadcast programs declare:
///
///  * DSI index table: [own min-HC][m segment-head HCs][e x (HC', P)]
///    with HC fields of DsiIndex::table_hc_bytes() and 2-byte pointers
///    (broadcast positions);
///  * B+-tree node: e x (16-byte HC key, 2-byte pointer) — Section 4's
///    literal field accounting (the 64-bit key is zero-padded to 16 B);
///  * R-tree node: e x (32-byte MBR as four doubles, 2-byte pointer);
///  * data object: id + coordinates + opaque payload padding to 1024 B.
///
/// Each encoder appends to a caller's buffer (Append*), so the live daemon
/// writes bucket content straight into its send batch; Encode* returns the
/// same bytes as a fresh vector.
///
/// Decoding never trusts input: truncated buffers flip the reader into a
/// failed state and the decoders return false.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bptree/bptree.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "expindex/expindex.hpp"
#include "rtree/str_pack.hpp"
#include "wire/buffer.hpp"

namespace dsi::wire {

// --- DSI index tables -------------------------------------------------------

/// Serializes \p table with the given field widths; the result is exactly
/// DsiIndex::table_bytes() long for the owning index.
void AppendDsiTable(const core::DsiTableView& table,
                    const std::vector<uint64_t>& segment_heads,
                    uint32_t hc_bytes, std::vector<uint8_t>* out);
inline std::vector<uint8_t> EncodeDsiTable(
    const core::DsiTableView& table, const std::vector<uint64_t>& segment_heads,
    uint32_t hc_bytes) {
  std::vector<uint8_t> out;
  AppendDsiTable(table, segment_heads, hc_bytes, &out);
  return out;
}

/// Inverse of EncodeDsiTable. \p num_entries and \p num_segments come from
/// system parameters every client knows. Returns false on malformed input.
bool DecodeDsiTable(const std::vector<uint8_t>& bytes, uint32_t hc_bytes,
                    uint32_t num_segments, uint32_t num_entries,
                    uint32_t position, core::DsiTableView* table,
                    std::vector<uint64_t>* segment_heads);

// --- exponential-index chunk tables -----------------------------------------

/// Serializes one exponential-index chunk table: the chunk's own min key
/// followed by entries x (min key, chunk position). The result is exactly
/// ExpIndex::table_bytes() long for the owning index.
void AppendExpTable(uint64_t own_min_key,
                    const std::vector<expindex::ExpTableEntry>& entries,
                    uint32_t key_bytes, std::vector<uint8_t>* out);
inline std::vector<uint8_t> EncodeExpTable(
    uint64_t own_min_key, const std::vector<expindex::ExpTableEntry>& entries,
    uint32_t key_bytes) {
  std::vector<uint8_t> out;
  AppendExpTable(own_min_key, entries, key_bytes, &out);
  return out;
}

/// Inverse of EncodeExpTable. \p num_entries comes from system parameters
/// every client knows. Returns false on malformed input.
bool DecodeExpTable(const std::vector<uint8_t>& bytes, uint32_t key_bytes,
                    uint32_t num_entries, uint64_t* own_min_key,
                    std::vector<expindex::ExpTableEntry>* entries);

// --- B+-tree nodes -----------------------------------------------------------

void AppendBptNode(const std::vector<bptree::BptEntry>& entries,
                   std::vector<uint8_t>* out);
inline std::vector<uint8_t> EncodeBptNode(
    const std::vector<bptree::BptEntry>& entries) {
  std::vector<uint8_t> out;
  AppendBptNode(entries, &out);
  return out;
}

bool DecodeBptNode(const std::vector<uint8_t>& bytes,
                   std::vector<bptree::BptEntry>* entries);

// --- R-tree nodes ------------------------------------------------------------

void AppendRtreeNode(std::span<const rtree::Rtree::Entry> entries,
                     std::vector<uint8_t>* out);
inline std::vector<uint8_t> EncodeRtreeNode(
    std::span<const rtree::Rtree::Entry> entries) {
  std::vector<uint8_t> out;
  AppendRtreeNode(entries, &out);
  return out;
}

bool DecodeRtreeNode(const std::vector<uint8_t>& bytes,
                     std::vector<rtree::Rtree::Entry>* entries);

// --- data objects ------------------------------------------------------------

/// Serializes a data object into exactly common::kDataObjectBytes: 4-byte
/// id, two 8-byte coordinates, and zero padding standing in for the
/// payload ("a set of attribute values").
void AppendDataObject(const datasets::SpatialObject& object,
                      std::vector<uint8_t>* out);
inline std::vector<uint8_t> EncodeDataObject(
    const datasets::SpatialObject& object) {
  std::vector<uint8_t> out;
  AppendDataObject(object, &out);
  return out;
}

bool DecodeDataObject(const std::vector<uint8_t>& bytes,
                      datasets::SpatialObject* object);

}  // namespace dsi::wire
