#include "wire/codecs.hpp"

#include <cassert>

#include "common/sizes.hpp"

namespace dsi::wire {

void AppendDsiTable(const core::DsiTableView& table,
                    const std::vector<uint64_t>& segment_heads,
                    uint32_t hc_bytes, std::vector<uint8_t>* out) {
  assert(hc_bytes >= 1 && hc_bytes <= 16);
  const size_t hc_int = hc_bytes > 8 ? 8 : hc_bytes;  // value width
  const size_t hc_pad = hc_bytes - hc_int;            // zero padding
  ByteWriter w(out);
  const size_t heads = segment_heads.size() > 1 ? segment_heads.size() : 0;
  w.Reserve((1 + heads + table.entries.size()) * hc_bytes +
            table.entries.size() * common::kPointerBytes);
  auto write_hc = [&](uint64_t hc) {
    w.WriteUint(hc, hc_int);
    w.WriteZeros(hc_pad);
  };
  write_hc(table.own_hc_min);
  if (segment_heads.size() > 1) {
    for (uint64_t head : segment_heads) write_hc(head);
  }
  for (const core::DsiTableEntry& e : table.entries) {
    write_hc(e.hc_min);
    w.WriteUint(e.position, common::kPointerBytes);
  }
}

bool DecodeDsiTable(const std::vector<uint8_t>& bytes, uint32_t hc_bytes,
                    uint32_t num_segments, uint32_t num_entries,
                    uint32_t position, core::DsiTableView* table,
                    std::vector<uint64_t>* segment_heads) {
  const size_t hc_int = hc_bytes > 8 ? 8 : hc_bytes;
  const size_t hc_pad = hc_bytes - hc_int;
  ByteReader r(bytes);
  auto read_hc = [&]() {
    const uint64_t hc = r.ReadUint(hc_int);
    r.SkipZeros(hc_pad);
    return hc;
  };
  table->position = position;
  table->own_hc_min = read_hc();
  segment_heads->clear();
  if (num_segments > 1) {
    for (uint32_t s = 0; s < num_segments; ++s) {
      segment_heads->push_back(read_hc());
    }
  } else {
    segment_heads->push_back(table->own_hc_min);
  }
  table->entries.clear();
  for (uint32_t i = 0; i < num_entries; ++i) {
    core::DsiTableEntry e;
    e.hc_min = read_hc();
    e.position =
        static_cast<uint32_t>(r.ReadUint(common::kPointerBytes));
    table->entries.push_back(e);
  }
  return r.ok();
}

void AppendExpTable(uint64_t own_min_key,
                    const std::vector<expindex::ExpTableEntry>& entries,
                    uint32_t key_bytes, std::vector<uint8_t>* out) {
  assert(key_bytes >= 1 && key_bytes <= 16);
  const size_t key_int = key_bytes > 8 ? 8 : key_bytes;  // value width
  const size_t key_pad = key_bytes - key_int;            // zero padding
  ByteWriter w(out);
  w.Reserve((1 + entries.size()) * key_bytes +
            entries.size() * common::kPointerBytes);
  auto write_key = [&](uint64_t key) {
    w.WriteUint(key, key_int);
    w.WriteZeros(key_pad);
  };
  write_key(own_min_key);
  for (const expindex::ExpTableEntry& e : entries) {
    write_key(e.min_key);
    w.WriteUint(e.position, common::kPointerBytes);
  }
}

bool DecodeExpTable(const std::vector<uint8_t>& bytes, uint32_t key_bytes,
                    uint32_t num_entries, uint64_t* own_min_key,
                    std::vector<expindex::ExpTableEntry>* entries) {
  if (key_bytes < 1 || key_bytes > 16) return false;
  const size_t key_int = key_bytes > 8 ? 8 : key_bytes;
  const size_t key_pad = key_bytes - key_int;
  ByteReader r(bytes);
  auto read_key = [&]() {
    const uint64_t key = r.ReadUint(key_int);
    r.SkipZeros(key_pad);
    return key;
  };
  *own_min_key = read_key();
  entries->clear();
  for (uint32_t i = 0; i < num_entries; ++i) {
    expindex::ExpTableEntry e;
    e.min_key = read_key();
    e.position = static_cast<uint32_t>(r.ReadUint(common::kPointerBytes));
    entries->push_back(e);
  }
  return r.ok() && r.remaining() == 0;
}

void AppendBptNode(const std::vector<bptree::BptEntry>& entries,
                   std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.Reserve(entries.size() * common::kHcIndexEntryBytes);
  for (const bptree::BptEntry& e : entries) {
    w.WriteUint(e.key, 8);
    w.WriteZeros(common::kHilbertValueBytes - 8);
    w.WriteUint(e.child, common::kPointerBytes);
  }
}

bool DecodeBptNode(const std::vector<uint8_t>& bytes,
                   std::vector<bptree::BptEntry>* entries) {
  entries->clear();
  if (bytes.size() % common::kHcIndexEntryBytes != 0) return false;
  ByteReader r(bytes);
  while (r.remaining() >= common::kHcIndexEntryBytes) {
    bptree::BptEntry e;
    e.key = r.ReadUint(8);
    r.SkipZeros(common::kHilbertValueBytes - 8);
    e.child = static_cast<uint32_t>(r.ReadUint(common::kPointerBytes));
    entries->push_back(e);
  }
  return r.ok() && r.remaining() == 0;
}

void AppendRtreeNode(std::span<const rtree::Rtree::Entry> entries,
                     std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.Reserve(entries.size() * common::kRtreeEntryBytes);
  for (const rtree::Rtree::Entry& e : entries) {
    w.WriteDouble(e.mbr.min_x);
    w.WriteDouble(e.mbr.min_y);
    w.WriteDouble(e.mbr.max_x);
    w.WriteDouble(e.mbr.max_y);
    w.WriteUint(e.child, common::kPointerBytes);
  }
}

bool DecodeRtreeNode(const std::vector<uint8_t>& bytes,
                     std::vector<rtree::Rtree::Entry>* entries) {
  entries->clear();
  if (bytes.size() % common::kRtreeEntryBytes != 0) return false;
  ByteReader r(bytes);
  while (r.remaining() >= common::kRtreeEntryBytes) {
    rtree::Rtree::Entry e;
    e.mbr.min_x = r.ReadDouble();
    e.mbr.min_y = r.ReadDouble();
    e.mbr.max_x = r.ReadDouble();
    e.mbr.max_y = r.ReadDouble();
    e.child = static_cast<uint32_t>(r.ReadUint(common::kPointerBytes));
    entries->push_back(e);
  }
  return r.ok() && r.remaining() == 0;
}

void AppendDataObject(const datasets::SpatialObject& object,
                      std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.Reserve(common::kDataObjectBytes);
  w.WriteUint(object.id, 4);
  w.WriteDouble(object.location.x);
  w.WriteDouble(object.location.y);
  w.WriteZeros(common::kDataObjectBytes - 4 - 2 * 8);
}

bool DecodeDataObject(const std::vector<uint8_t>& bytes,
                      datasets::SpatialObject* object) {
  if (bytes.size() != common::kDataObjectBytes) return false;
  ByteReader r(bytes);
  object->id = static_cast<uint32_t>(r.ReadUint(4));
  object->location.x = r.ReadDouble();
  object->location.y = r.ReadDouble();
  return r.ok();
}

}  // namespace dsi::wire
