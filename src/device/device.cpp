#include "device/device.h"

#include <algorithm>

#include "common/check.h"

namespace waif::device {

using pubsub::NotificationPtr;
using pubsub::RankedQueue;

Device::Device(sim::Simulator& sim, DeviceId id, DeviceConfig config)
    : sim_(sim), id_(id), config_(config) {
  WAIF_CHECK(config.storage_limit > 0);
  WAIF_CHECK(config.receive_cost >= 0.0);
  WAIF_CHECK(config.send_cost >= 0.0);
}

void Device::set_topic_threshold(const std::string& topic, double threshold) {
  topic_thresholds_[topic] = threshold;
}

bool Device::receive(const NotificationPtr& notification) {
  if (!drain(config_.receive_cost)) {
    ++stats_.rejected_dead_battery;
    return false;
  }
  ++stats_.received;
  auto threshold = topic_thresholds_.find(notification->topic);
  const bool below_threshold = threshold != topic_thresholds_.end() &&
                               notification->rank < threshold->second;
  auto held_topic = topic_of_.find(notification->id.value);
  if (held_topic != topic_of_.end()) {
    ++stats_.rank_updates;
    ++stats_.duplicate_receives;
    RankedQueue* queue = held_topic->second;
    if (below_threshold) {
      // Retraction: the earlier transfer is now pure waste; free the buffer.
      NotificationPtr removed = queue->erase(notification->id);
      WAIF_CHECK(removed != nullptr);
      forget_expiry(removed);
      topic_of_.erase(held_topic);
      --total_held_;
      ++stats_.retracted;
    } else {
      // Replace the stored copy (the expiry is unchanged, so the expiry
      // index needs no touch-up).
      queue->insert(notification);
    }
    return true;
  }
  if (below_threshold) {
    // E.g. a rank-drop notice for a message the user already read: nothing
    // sub-threshold is worth buffer space.
    ++stats_.retracted;
    return true;
  }
  RankedQueue& queue = held_[notification->topic];
  queue.insert(notification);
  topic_of_.emplace(notification->id.value, &queue);
  ++total_held_;
  if (notification->expires()) {
    expiry_index_.emplace(notification->expires_at, notification->id.value);
  }
  enforce_storage_limit();
  return true;
}

std::vector<NotificationPtr> Device::take_top(RankedQueue& queue, int n,
                                              double threshold) {
  std::vector<NotificationPtr> result = queue.top_n(n, threshold);
  for (const NotificationPtr& notification : result) {
    remove(notification);
    ++stats_.read;
  }
  return result;
}

std::vector<NotificationPtr> Device::read(const std::string& topic, int n,
                                          double threshold,
                                          bool charge_uplink) {
  WAIF_CHECK(n >= 0);
  if (charge_uplink && !drain(config_.send_cost)) {
    ++stats_.rejected_dead_battery;
    return {};
  }
  purge_expired();
  RankedQueue* queue = queue_for(topic);
  if (queue == nullptr) return {};
  return take_top(*queue, n, threshold);
}

std::vector<NotificationPtr> Device::read(int n, double threshold,
                                          bool charge_uplink) {
  WAIF_CHECK(n >= 0);
  if (charge_uplink && !drain(config_.send_cost)) {
    ++stats_.rejected_dead_battery;
    return {};
  }
  purge_expired();
  // Merge the per-topic tops, take the global best n.
  std::vector<const RankedQueue*> queues;
  queues.reserve(held_.size());
  for (const auto& [topic, queue] : held_) queues.push_back(&queue);
  std::vector<NotificationPtr> merged;
  for (const RankedQueue* queue : queues) {
    auto part = queue->top_n(n, threshold);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(), pubsub::RankHigher{});
  if (static_cast<int>(merged.size()) > n) {
    merged.resize(static_cast<std::size_t>(n));
  }
  for (const NotificationPtr& notification : merged) {
    remove(notification);
    ++stats_.read;
  }
  return merged;
}

std::vector<NotificationId> Device::top_ids(const std::string& topic, int n,
                                            double threshold) {
  WAIF_CHECK(n >= 0);
  purge_expired();
  RankedQueue* queue = queue_for(topic);
  std::vector<NotificationId> ids;
  if (queue == nullptr || n <= 0) return ids;
  ids.reserve(std::min<std::size_t>(static_cast<std::size_t>(n), queue->size()));
  queue->visit_top_n(n, threshold, [&](const NotificationPtr& notification) {
    ids.push_back(notification->id);
  });
  return ids;
}

std::size_t Device::queue_size(const std::string& topic) {
  purge_expired();
  const RankedQueue* queue = queue_for(topic);
  return queue == nullptr ? 0 : queue->size();
}

std::size_t Device::queue_size() {
  purge_expired();
  return total_held_;
}

std::optional<double> Device::rank_of(NotificationId id) const {
  auto held_topic = topic_of_.find(id.value);
  if (held_topic == topic_of_.end()) return std::nullopt;
  const NotificationPtr notification = held_topic->second->find(id);
  WAIF_CHECK(notification != nullptr);
  return notification->rank;
}

bool Device::battery_dead() const {
  return stats_.energy_used >= config_.battery_capacity;
}

double Device::battery_remaining() const {
  if (config_.battery_capacity == kUnlimitedBattery) return kUnlimitedBattery;
  return std::max(0.0, config_.battery_capacity - stats_.energy_used);
}

void Device::purge_expired() {
  const SimTime now = sim_.now();
  while (!expiry_index_.empty() && expiry_index_.begin()->first <= now) {
    const NotificationId id{expiry_index_.begin()->second};
    expiry_index_.erase(expiry_index_.begin());
    auto held_topic = topic_of_.find(id.value);
    if (held_topic == topic_of_.end()) continue;
    if (held_topic->second->erase(id) != nullptr) {
      topic_of_.erase(held_topic);
      --total_held_;
      ++stats_.expired_unread;
    }
  }
}

void Device::enforce_storage_limit() {
  while (total_held_ > config_.storage_limit) {
    // Evict the globally lowest-ranked unread message (scan of per-topic
    // bottoms; topic counts are small).
    NotificationPtr candidate;
    for (auto& [topic, queue] : held_) {
      if (queue.empty()) continue;
      NotificationPtr bottom = queue.bottom();
      if (candidate == nullptr || pubsub::RankHigher{}(candidate, bottom)) {
        candidate = bottom;
      }
    }
    WAIF_CHECK(candidate != nullptr);
    remove(candidate);
    ++stats_.evicted;
  }
}

bool Device::drain(double energy) {
  if (battery_dead()) return false;
  stats_.energy_used += energy;
  return true;
}

void Device::forget_expiry(const NotificationPtr& notification) {
  if (notification->expires()) {
    expiry_index_.erase({notification->expires_at, notification->id.value});
  }
}

void Device::remove(const NotificationPtr& notification) {
  auto held_topic = topic_of_.find(notification->id.value);
  if (held_topic == topic_of_.end()) return;
  if (held_topic->second->erase(notification->id) != nullptr) {
    forget_expiry(notification);
    topic_of_.erase(held_topic);
    --total_held_;
  }
}

pubsub::RankedQueue* Device::queue_for(const std::string& topic) {
  auto it = held_.find(topic);
  return it == held_.end() ? nullptr : &it->second;
}

}  // namespace waif::device
