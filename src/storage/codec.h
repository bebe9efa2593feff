// Byte-level serialization primitives for the durability layer.
//
// Everything the storage subsystem writes — WAL frames, snapshot blobs — is
// encoded little-endian with explicit widths, so a log written on one
// platform replays bit-identically on another. CRC32 (the IEEE 802.3
// polynomial) frames detect torn writes and bit flips.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace waif::storage {

/// CRC32 (IEEE, reflected 0xEDB88320) of `data`, eight bytes per step
/// (slice-by-8) with a bytewise tail.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);
std::uint32_t crc32(const std::vector<std::uint8_t>& data);

/// Append-only little-endian encoder. Every write grows the buffer once and
/// stores its bytes in place: one capacity step per call, however wide the
/// field.
class ByteWriter {
 public:
  void u8(std::uint8_t value) { *extend(1) = value; }
  void u32(std::uint32_t value) { store_le32(extend(4), value); }
  void u64(std::uint64_t value) { store_le64(extend(8), value); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  /// Doubles travel by bit pattern — exact round-trip, no locale, no
  /// formatting loss.
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  /// Length-prefixed (u32) byte string.
  void str(const std::string& value) {
    std::uint8_t* out = extend(4 + value.size());
    store_le32(out, static_cast<std::uint32_t>(value.size()));
    std::memcpy(out + 4, value.data(), value.size());
  }
  /// Raw bytes, no length prefix — for splicing an already-encoded payload
  /// into a frame.
  void raw(const std::uint8_t* data, std::size_t size) {
    if (size > 0) std::memcpy(extend(size), data, size);
  }

  /// Grows the buffer by `size` bytes and returns where they start, for an
  /// encoder that stores a whole record in one step (encode_notification).
  /// The pointer is valid until the next write.
  std::uint8_t* extend(std::size_t size) {
    const std::size_t at = bytes_.size();
    if (bytes_.capacity() - at < size) grow(size);
    bytes_.resize(at + size);
    return bytes_.data() + at;
  }
  /// Overwrites four already-written bytes at `offset` — a frame header
  /// patched once the body behind it is complete.
  void patch_u32(std::size_t offset, std::uint32_t value) {
    store_le32(bytes_.data() + offset, value);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  /// Drops the content but keeps the capacity — the reuse primitive the WAL
  /// writer's scratch buffers and the checkpoint buffer rely on to stay
  /// allocation-free.
  void clear() { bytes_.clear(); }

  /// Little-endian stores: one plain store on a little-endian host (at any
  /// optimisation level; a byte loop stays a loop at -O2), byte by byte
  /// elsewhere — the same bytes on any host.
  static void store_le32(std::uint8_t* out, std::uint32_t value) {
    store_le(out, value);
  }
  static void store_le64(std::uint8_t* out, std::uint64_t value) {
    store_le(out, value);
  }

 private:
  /// Out of line: reserves geometric room for `size` more bytes.
  void grow(std::size_t size);

  template <typename Word>
  static void store_le(std::uint8_t* out, Word value) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, &value, sizeof(value));
    } else {
      for (std::size_t i = 0; i < sizeof(value); ++i) {
        out[i] = static_cast<std::uint8_t>(value >> (8 * i));
      }
    }
  }

  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder. Decoding past the end or a length
/// prefix overrunning the buffer sets failed(); all reads after a failure
/// return zero values, so a decoder can run to completion and be checked
/// once.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& data)
      : ByteReader(data.data(), data.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();

  bool failed() const { return failed_; }
  /// All bytes consumed and no read ever overran?
  bool exhausted() const { return !failed_ && offset_ == size_; }
  std::size_t remaining() const { return size_ - offset_; }
  /// Bytes consumed so far.
  std::size_t offset() const { return offset_; }

 private:
  bool take(std::size_t count, const std::uint8_t** out);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  bool failed_ = false;
};

}  // namespace waif::storage
