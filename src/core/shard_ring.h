// Consistent-hashing ring for the sharded proxy fleet.
//
// Topics and devices are placed on a fixed-size hash circle; each shard owns
// `vnodes` points on the circle and a key belongs to the shard owning the
// first point at or after the key's hash (wrapping). Placement is a pure
// function of (key, shard count, vnodes) — no std::hash, no process state —
// so the same population lands on the same shards in every run on every
// platform, which is what lets the fleet's cross-shard parallelism stay
// byte-identical at any worker count (DESIGN.md §10).
//
// Adding a shard moves only the keys that fall between the new shard's
// points and their predecessors — about 1/N of them — which is the property
// the remap test pins down.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace waif::core {

class ShardRing {
 public:
  /// A ring of `shards` shards with `vnodes` points each. Requires
  /// shards >= 1 and vnodes >= 1; 64 vnodes keeps max/mean shard load under
  /// the documented bound (see shard_ring_test.cpp) without making lookups
  /// noticeably slower (lookup is a binary search over shards * vnodes
  /// points).
  explicit ShardRing(std::size_t shards, std::size_t vnodes = 64);

  std::size_t shard_count() const { return shards_; }
  std::size_t vnodes_per_shard() const { return vnodes_; }

  /// The shard owning an already-hashed key.
  std::size_t shard_of_hash(std::uint64_t key_hash) const;

  /// The shard owning a string key (topics: the topic name).
  std::size_t shard_of_key(std::string_view key) const {
    return shard_of_hash(hash_key(key));
  }

  /// The shard owning a numeric key (devices: the device index).
  std::size_t shard_of_index(std::uint64_t index) const {
    return shard_of_hash(hash_u64(index));
  }

  /// Appends one shard (index = previous shard_count()) to the ring,
  /// re-sorting its points in. Existing shards' points do not move, so only
  /// keys now claimed by the new shard change owner.
  void add_shard();

  /// Removes the most recently added shard (index shard_count() - 1),
  /// erasing exactly its points. Because a shard's point positions depend
  /// only on (shard index, vnode) — never on the rest of the ring —
  /// remove_shard() is the exact inverse of add_shard(): grow-then-shrink
  /// restores a placement-identical ring, and only keys the removed shard
  /// owned change owner (each lands on the shard that owned it before the
  /// add). Requires shard_count() >= 2.
  void remove_shard();

  /// Deterministic 64-bit hash of a byte string (FNV-1a folded through a
  /// splitmix64 finalizer). Stable across platforms and runs by
  /// construction; never std::hash.
  static std::uint64_t hash_key(std::string_view key);

  /// Deterministic 64-bit mix of an integer key (splitmix64 finalizer).
  static std::uint64_t hash_u64(std::uint64_t value);

 private:
  struct Point {
    std::uint64_t position;
    std::uint32_t shard;

    bool operator<(const Point& other) const {
      // Position ties (vanishingly rare) break by shard id so the ring
      // order never depends on sort stability.
      if (position != other.position) return position < other.position;
      return shard < other.shard;
    }
  };

  void insert_shard_points(std::uint32_t shard);

  std::size_t shards_ = 0;
  std::size_t vnodes_ = 0;
  /// Sorted by position; lookup = upper-bound binary search with wrap.
  std::vector<Point> points_;
};

}  // namespace waif::core
