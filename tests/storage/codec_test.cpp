#include "storage/codec.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace waif::storage {
namespace {

TEST(Crc32, MatchesTheIeeeCheckValue) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check, sizeof(check)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

/// The one-table-lookup-per-byte CRC32 the format was first written with,
/// kept here only as the reference the production kernel must match.
std::uint32_t bytewise_crc32(const std::uint8_t* data, std::size_t size) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    table[i] = crc;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (std::uint8_t& byte : bytes) {
    byte = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return bytes;
}

// Every length 0..1024 at every start offset within an 8-byte word covers
// each split between the eight-byte steps and the bytewise tail, aligned or
// not.
TEST(Crc32, MatchesTheBytewiseReferenceAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> bytes = random_bytes(1024 + 8, 11);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 1024; ++size) {
      ASSERT_EQ(crc32(bytes.data() + offset, size),
                bytewise_crc32(bytes.data() + offset, size))
          << "offset " << offset << ", size " << size;
    }
  }
}

TEST(Crc32, MatchesTheBytewiseReferenceOnOneMebibyte) {
  const std::vector<std::uint8_t> bytes = random_bytes(1 << 20, 12);
  EXPECT_EQ(crc32(bytes), bytewise_crc32(bytes.data(), bytes.size()));
}

TEST(Crc32, DetectsASingleFlippedBit) {
  std::vector<std::uint8_t> data(64, 0xAB);
  const std::uint32_t clean = crc32(data);
  data[17] ^= 0x04;
  EXPECT_NE(crc32(data), clean);
}

TEST(ByteCodec, RoundTripsEveryFieldType) {
  ByteWriter writer;
  writer.u8(0x7F);
  writer.u32(0xDEADBEEFu);
  writer.u64(0x0123456789ABCDEFull);
  writer.i64(-42);
  writer.f64(3.14159);
  writer.f64(-0.0);
  writer.f64(std::numeric_limits<double>::infinity());
  writer.str("hello");
  writer.str("");

  const std::vector<std::uint8_t> bytes = writer.take();
  ByteReader reader(bytes);
  EXPECT_EQ(reader.u8(), 0x7F);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_EQ(reader.f64(), 3.14159);
  // Bit-exact doubles: -0.0 must come back as -0.0, not +0.0.
  EXPECT_TRUE(std::signbit(reader.f64()));
  EXPECT_EQ(reader.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(reader.str(), "hello");
  EXPECT_EQ(reader.str(), "");
  EXPECT_TRUE(reader.exhausted());
  EXPECT_FALSE(reader.failed());
}

TEST(ByteCodec, OverrunFailsAndStaysFailed) {
  ByteWriter writer;
  writer.u32(7);
  const std::vector<std::uint8_t> bytes = writer.take();

  ByteReader reader(bytes);
  EXPECT_EQ(reader.u32(), 7u);
  EXPECT_EQ(reader.u64(), 0u);  // overrun: zero, not garbage
  EXPECT_TRUE(reader.failed());
  EXPECT_EQ(reader.u8(), 0u);  // failure is sticky
  EXPECT_FALSE(reader.exhausted());
}

TEST(ByteCodec, TruncatedStringLengthFails) {
  ByteWriter writer;
  writer.u32(1000);  // a length prefix with no such payload behind it
  const std::vector<std::uint8_t> bytes = writer.take();

  ByteReader reader(bytes);
  EXPECT_EQ(reader.str(), "");
  EXPECT_TRUE(reader.failed());
}

}  // namespace
}  // namespace waif::storage
