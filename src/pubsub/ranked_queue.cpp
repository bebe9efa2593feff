#include "pubsub/ranked_queue.h"

#include <algorithm>

#include "common/check.h"

namespace waif::pubsub {

using pubsub::NotificationPtr;
using pubsub::RankHigher;

bool RankedQueue::insert(const NotificationPtr& notification) {
  WAIF_CHECK(notification != nullptr);
  auto indexed = index_.find(notification->id.value);
  if (indexed != index_.end()) {
    // Same id (e.g. a re-ranked copy): replace so ordering stays correct.
    ordered_.erase(indexed->second);
    indexed->second = ordered_.insert(notification).first;
    return false;
  }
  auto [it, inserted] = ordered_.insert(notification);
  WAIF_CHECK(inserted);  // RankHigher totally orders distinct ids
  index_.emplace(notification->id.value, it);
  return true;
}

NotificationPtr RankedQueue::erase(NotificationId id) {
  auto indexed = index_.find(id.value);
  if (indexed == index_.end()) return nullptr;
  NotificationPtr removed = *indexed->second;
  ordered_.erase(indexed->second);
  index_.erase(indexed);
  return removed;
}

NotificationPtr RankedQueue::find(NotificationId id) const {
  auto indexed = index_.find(id.value);
  return indexed == index_.end() ? nullptr : *indexed->second;
}

NotificationPtr RankedQueue::top() const {
  return ordered_.empty() ? nullptr : *ordered_.begin();
}

NotificationPtr RankedQueue::pop_top() {
  if (ordered_.empty()) return nullptr;
  NotificationPtr top = *ordered_.begin();
  index_.erase(top->id.value);
  ordered_.erase(ordered_.begin());
  return top;
}

NotificationPtr RankedQueue::bottom() const {
  return ordered_.empty() ? nullptr : *ordered_.rbegin();
}

NotificationPtr RankedQueue::pop_bottom() {
  if (ordered_.empty()) return nullptr;
  auto last = std::prev(ordered_.end());
  NotificationPtr lowest = *last;
  index_.erase(lowest->id.value);
  ordered_.erase(last);
  return lowest;
}

std::vector<NotificationPtr> RankedQueue::top_n(int n, double threshold) const {
  std::vector<NotificationPtr> result;
  if (n <= 0) return result;
  result.reserve(std::min<std::size_t>(static_cast<std::size_t>(n), size()));
  visit_top_n(n, threshold, [&](const NotificationPtr& notification) {
    result.push_back(notification);
  });
  return result;
}

void RankedQueue::clear() {
  ordered_.clear();
  index_.clear();
}

std::vector<NotificationPtr> top_n_across(
    std::initializer_list<const RankedQueue*> queues, int n, double threshold) {
  std::vector<NotificationPtr> result;
  if (n <= 0) return result;
  std::size_t bound = 0;
  for (const RankedQueue* queue : queues) {
    bound += std::min<std::size_t>(static_cast<std::size_t>(n), queue->size());
  }
  result.reserve(bound);
  for (const RankedQueue* queue : queues) {
    queue->visit_top_n(n, threshold, [&](const NotificationPtr& notification) {
      result.push_back(notification);
    });
  }
  std::sort(result.begin(), result.end(), RankHigher{});
  // Keep the first copy of each id, up to n (an event may appear in more
  // than one queue only transiently, but be safe).
  std::size_t kept = 0;
  for (std::size_t i = 0;
       i < result.size() && kept < static_cast<std::size_t>(n); ++i) {
    const bool seen = std::any_of(
        result.begin(), result.begin() + static_cast<std::ptrdiff_t>(kept),
        [&](const NotificationPtr& r) { return r->id == result[i]->id; });
    if (seen) continue;
    if (kept != i) result[kept] = std::move(result[i]);
    ++kept;
  }
  result.resize(kept);
  return result;
}

}  // namespace waif::pubsub
