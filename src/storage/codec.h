// Byte-level serialization primitives for the durability layer.
//
// Everything the storage subsystem writes — WAL frames, snapshot blobs — is
// encoded little-endian with explicit widths, so a log written on one
// platform replays bit-identically on another. CRC32 (the IEEE 802.3
// polynomial) frames detect torn writes and bit flips.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace waif::storage {

/// CRC32 (IEEE, reflected 0xEDB88320) of `data`, eight bytes per step
/// (slice-by-8) with a bytewise tail.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);
std::uint32_t crc32(const std::vector<std::uint8_t>& data);

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t value);
  /// Multi-byte fields are laid out in a local array and appended in one
  /// step (one capacity check), not byte by byte.
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void i64(std::int64_t value);
  /// Doubles travel by bit pattern — exact round-trip, no locale, no
  /// formatting loss.
  void f64(double value);
  /// Length-prefixed (u32) byte string.
  void str(const std::string& value);
  /// Raw bytes, no length prefix — for splicing an already-encoded payload
  /// into a frame.
  void raw(const std::uint8_t* data, std::size_t size);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  /// Drops the content but keeps the capacity — the reuse primitive the WAL
  /// writer's scratch buffers rely on to stay allocation-free.
  void clear() { bytes_.clear(); }

 private:
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

 private:
  bool take(std::size_t count, const std::uint8_t** out);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  bool failed_ = false;
};

}  // namespace waif::storage
