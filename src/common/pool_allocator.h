// A free-list slab arena and a std-compatible allocator on top of it.
//
// The hot paths of the engine (event scheduling, the ranked queues) churn
// through millions of identically sized container nodes per simulated year.
// PoolArena carves those nodes out of geometrically growing slabs and
// recycles freed ones through a free list, so after warm-up a steady-state
// insert/erase (or schedule/pop) cycle touches the global heap zero times —
// the property tests/perf/alloc_regression_test.cpp pins.
//
// Design constraints, in order:
//   * single-threaded — every arena belongs to one simulator/proxy, which
//     is confined to one thread (the parallel sweep runner gives each job
//     its own);
//   * one size class — the first allocation fixes the node size; requests
//     of any other size (e.g. a hash table's bucket array) fall through to
//     the global heap, so the arena never has to split or coalesce;
//   * shared ownership — PoolAllocator holds the arena via shared_ptr, so
//     allocator copies inside containers keep the slabs alive until the last
//     node is gone.
//
// A default-constructed PoolAllocator makes an arena of its own, so a
// default-constructed container gets one arena — one size class — to itself:
// PooledHashMap<std::uint64_t, V> m; is all a pooled index needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace waif {

class PoolArena {
 public:
  /// `slab_nodes` is the number of nodes carved per slab; slabs double in
  /// size up to a cap so small queues stay small and hot ones stop asking
  /// the heap quickly.
  explicit PoolArena(std::size_t slab_nodes = 64) : next_slab_nodes_(slab_nodes) {}

  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;

  void* allocate(std::size_t bytes) {
    bytes = padded(bytes);
    if (node_size_ == 0) node_size_ = bytes;
    if (bytes != node_size_) {
      ++foreign_allocs_;
      return ::operator new(bytes);
    }
    if (free_list_ == nullptr) grow();
    FreeNode* node = free_list_;
    free_list_ = node->next;
    ++pooled_allocs_;
    return node;
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    bytes = padded(bytes);
    if (bytes != node_size_) {
      ::operator delete(p);
      return;
    }
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_list_;
    free_list_ = node;
  }

  /// Nodes served from the pool / requests that missed the size class.
  std::uint64_t pooled_allocs() const { return pooled_allocs_; }
  std::uint64_t foreign_allocs() const { return foreign_allocs_; }
  /// The size class, once fixed by the first allocation (0 before).
  std::size_t node_size() const { return node_size_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static std::size_t padded(std::size_t bytes) {
    const std::size_t unit = sizeof(FreeNode) > alignof(std::max_align_t)
                                 ? sizeof(FreeNode)
                                 : alignof(std::max_align_t);
    return ((bytes + unit - 1) / unit) * unit;
  }

  void grow() {
    const std::size_t nodes = next_slab_nodes_;
    if (next_slab_nodes_ < kMaxSlabNodes) next_slab_nodes_ *= 2;
    slabs_.emplace_back(new std::byte[nodes * node_size_]);
    std::byte* base = slabs_.back().get();
    // Thread the fresh slab onto the free list back to front so nodes hand
    // out in address order.
    for (std::size_t i = nodes; i > 0; --i) {
      auto* node = reinterpret_cast<FreeNode*>(base + (i - 1) * node_size_);
      node->next = free_list_;
      free_list_ = node;
    }
  }

  static constexpr std::size_t kMaxSlabNodes = 1 << 16;

  std::size_t node_size_ = 0;
  std::size_t next_slab_nodes_;
  FreeNode* free_list_ = nullptr;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::uint64_t pooled_allocs_ = 0;
  std::uint64_t foreign_allocs_ = 0;
};

/// std allocator over a shared PoolArena. Containers rebind it per node
/// type; every rebound copy shares the same arena.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  /// An allocator over a fresh arena of its own.
  PoolAllocator() : arena_(std::make_shared<PoolArena>()) {}

  explicit PoolAllocator(std::shared_ptr<PoolArena> arena)
      : arena_(std::move(arena)) {}

  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    arena_->deallocate(p, n * sizeof(T));
  }

  const std::shared_ptr<PoolArena>& arena() const { return arena_; }

  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const {
    return arena_ == other.arena();
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>& other) const {
    return arena_ != other.arena();
  }

 private:
  std::shared_ptr<PoolArena> arena_;
};

/// Hash containers whose nodes come from an arena of their own.
template <typename Key, typename Value>
using PooledHashMap =
    std::unordered_map<Key, Value, std::hash<Key>, std::equal_to<Key>,
                       PoolAllocator<std::pair<const Key, Value>>>;
template <typename Key>
using PooledHashSet = std::unordered_set<Key, std::hash<Key>,
                                         std::equal_to<Key>, PoolAllocator<Key>>;

}  // namespace waif
