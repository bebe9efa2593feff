#include "core/shard_ring.h"

#include <algorithm>

#include "common/check.h"

namespace waif::core {

namespace {

/// splitmix64's output finalizer: a strong 64-bit mixer (Stafford variant
/// 13), used both to spread vnode positions and to hash integer keys.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace

ShardRing::ShardRing(std::size_t shards, std::size_t vnodes)
    : shards_(0), vnodes_(vnodes) {
  WAIF_CHECK(shards >= 1);
  WAIF_CHECK(vnodes >= 1);
  points_.reserve(shards * vnodes);
  for (std::size_t s = 0; s < shards; ++s) add_shard();
}

void ShardRing::insert_shard_points(std::uint32_t shard) {
  for (std::size_t v = 0; v < vnodes_; ++v) {
    // Position = mix of (shard, vnode); independent of how many other
    // shards exist, which is what keeps remaps to ~1/N on add_shard().
    const std::uint64_t raw =
        (static_cast<std::uint64_t>(shard) << 32) | static_cast<std::uint64_t>(v);
    points_.push_back(Point{mix64(raw * 0x9E3779B97F4A7C15ull + 1), shard});
  }
}

void ShardRing::add_shard() {
  insert_shard_points(static_cast<std::uint32_t>(shards_));
  ++shards_;
  std::sort(points_.begin(), points_.end());
}

void ShardRing::remove_shard() {
  WAIF_CHECK(shards_ >= 2);
  const auto removed = static_cast<std::uint32_t>(shards_ - 1);
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [removed](const Point& p) {
                                 return p.shard == removed;
                               }),
                points_.end());
  --shards_;
}

std::size_t ShardRing::shard_of_hash(std::uint64_t key_hash) const {
  // First point strictly after the hash; wrap to the ring's start when the
  // hash lies beyond the last point.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), key_hash,
      [](std::uint64_t value, const Point& p) { return value < p.position; });
  if (it == points_.end()) it = points_.begin();
  return it->shard;
}

std::uint64_t ShardRing::hash_key(std::string_view key) {
  // FNV-1a over the bytes, then a finalizer so short keys with shared
  // prefixes still spread over the whole circle.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return mix64(h);
}

std::uint64_t ShardRing::hash_u64(std::uint64_t value) {
  return mix64(value + 0x9E3779B97F4A7C15ull);
}

}  // namespace waif::core
