#pragma once

/// \file buffer.hpp
/// \brief Little-endian byte writer/reader used by the on-air codecs. The
/// simulator accounts costs from declared bucket sizes; these codecs prove
/// the declared sizes are actually achievable by serializing and parsing
/// every structure for real (and the examples/tests round-trip them).

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace dsi::wire {

/// Appends fixed-width little-endian integers to a byte vector: its own
/// (bytes()) or a caller's, after whatever that already holds.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  /// Pre-sizes the backing vector for \p more_bytes of output; serializers
  /// that know their exact output size call this once so encoding never
  /// regrows the buffer.
  void Reserve(size_t more_bytes) { out_->reserve(out_->size() + more_bytes); }

  /// Writes the low \p width bytes of \p value (little endian).
  void WriteUint(uint64_t value, size_t width) {
    assert(width >= 1 && width <= 8);
    assert(width == 8 || value < (uint64_t{1} << (8 * width)));
    uint8_t raw[8];
    for (size_t i = 0; i < width; ++i) {
      raw[i] = static_cast<uint8_t>(value >> (8 * i));
    }
    WriteBytes(raw, width);
  }

  /// Bulk append of \p n raw bytes.
  void WriteBytes(const uint8_t* data, size_t n) {
    out_->insert(out_->end(), data, data + n);
  }

  void WriteDouble(double value) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    WriteUint(bits, 8);
  }

  /// Zero padding (e.g. the unused high half of a 16-byte HC field).
  void WriteZeros(size_t n) { out_->insert(out_->end(), n, 0); }

  const std::vector<uint8_t>& bytes() const { return *out_; }
  size_t size() const { return out_->size(); }

 private:
  std::vector<uint8_t> own_;
  std::vector<uint8_t>* out_ = &own_;
};

/// Reads fixed-width little-endian integers from a byte span.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::span<const uint8_t> bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

  uint64_t ReadUint(size_t width) {
    assert(width >= 1 && width <= 8);
    if (pos_ + width > size_) {
      ok_ = false;
      return 0;
    }
    uint64_t value = 0;
    for (size_t i = 0; i < width; ++i) {
      value |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return value;
  }

  double ReadDouble() {
    const uint64_t bits = ReadUint(8);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  /// Bulk read: the next \p n bytes in place (null, and the reader fails,
  /// when fewer remain).
  const uint8_t* ReadBytes(size_t n) {
    if (n > remaining()) {
      ok_ = false;
      return nullptr;
    }
    pos_ += n;
    return data_ + pos_ - n;
  }

  void SkipZeros(size_t n) { ReadBytes(n); }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dsi::wire
