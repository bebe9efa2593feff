// A notification queue ordered by rank, with O(log n) id-based removal.
//
// The paper's pseudo-code manipulates its queues (outgoing, prefetch,
// holding) with set union/difference and a get_highest_ranked(N, ...)
// primitive; RankedQueue is that data structure: a set ordered by RankHigher
// (rank desc, recency, id — a total order) plus an id index.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/ids.h"
#include "common/pool_allocator.h"
#include "pubsub/notification.h"

namespace waif::pubsub {

class RankedQueue {
 public:
  RankedQueue() = default;
  // The id index holds iterators into ordered_; a memberwise copy/move would
  // leave them pointing into the source queue. Nothing copies whole queues —
  // callers copy contents (snapshot/restore) — so forbid it outright.
  RankedQueue(const RankedQueue&) = delete;
  RankedQueue& operator=(const RankedQueue&) = delete;

  /// Inserts or replaces (by id) a notification. Returns true when the id was
  /// not present before.
  bool insert(const pubsub::NotificationPtr& notification);

  /// Removes by id; returns the removed notification or nullptr.
  pubsub::NotificationPtr erase(NotificationId id);

  bool contains(NotificationId id) const { return index_.contains(id.value); }

  /// The held notification with this id, or nullptr.
  pubsub::NotificationPtr find(NotificationId id) const;

  /// Highest-ranked notification; nullptr when empty.
  pubsub::NotificationPtr top() const;

  /// Removes and returns the highest-ranked notification; nullptr when empty.
  pubsub::NotificationPtr pop_top();

  /// Lowest-ranked notification; nullptr when empty. Used for storage
  /// eviction on constrained devices.
  pubsub::NotificationPtr bottom() const;

  /// Removes and returns the lowest-ranked notification; nullptr when empty.
  pubsub::NotificationPtr pop_bottom();

  /// The up-to-`n` highest-ranked notifications with rank >= threshold
  /// (non-destructive) — the paper's get_highest_ranked(N, queue).
  std::vector<pubsub::NotificationPtr> top_n(int n, double threshold) const;

  /// Calls `visit` on each notification of top_n(n, threshold), best first,
  /// without collecting them.
  template <typename Visit>
  void visit_top_n(int n, double threshold, Visit&& visit) const {
    for (const pubsub::NotificationPtr& notification : ordered_) {
      if (n-- <= 0 || notification->rank < threshold) break;
      visit(notification);
    }
  }

  std::size_t size() const { return ordered_.size(); }
  bool empty() const { return ordered_.empty(); }
  void clear();

  /// Iteration in rank order (highest first).
  auto begin() const { return ordered_.begin(); }
  auto end() const { return ordered_.end(); }

 private:
  // Both containers draw their (fixed-size) nodes from per-container slab
  // arenas, so a steady-state insert/erase cycle allocates nothing from the
  // global heap — see common/pool_allocator.h. Each container gets its OWN
  // arena because an arena serves exactly one size class.
  using Ordered = std::set<pubsub::NotificationPtr, pubsub::RankHigher,
                           PoolAllocator<pubsub::NotificationPtr>>;

  Ordered ordered_;
  PooledHashMap<std::uint64_t, Ordered::iterator> index_;
};

/// The up-to-`n` highest-ranked notifications (rank >= threshold) across
/// several queues, de-duplicated by id — get_highest_ranked(N, q1 ∪ q2 ∪ ...).
std::vector<pubsub::NotificationPtr> top_n_across(
    std::initializer_list<const RankedQueue*> queues, int n, double threshold);

}  // namespace waif::pubsub
