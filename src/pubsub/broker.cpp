#include "pubsub/broker.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace waif::pubsub {

Broker::Broker(sim::Simulator& sim, std::size_t history_limit)
    : sim_(sim), history_limit_(history_limit) {
  WAIF_CHECK(history_limit > 0);
}

PublisherId Broker::register_publisher(std::string name) {
  const PublisherId id{next_publisher_++};
  publisher_names_.emplace(id.value, std::move(name));
  return id;
}

void Broker::advertise(PublisherId publisher, const std::string& topic) {
  if (!publisher_names_.contains(publisher.value)) {
    throw std::invalid_argument("advertise: unregistered publisher");
  }
  topics_[topic].advertisers.insert(publisher.value);
}

bool Broker::withdraw(PublisherId publisher, const std::string& topic) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) return false;
  TopicEntry& entry = it->second;
  if (entry.advertisers.erase(publisher.value) == 0) return false;
  if (entry.advertisers.empty()) {
    // Last advertiser left: tell subscribers. Iterate over a copy because a
    // callback may unsubscribe.
    const auto subscriptions = entry.subscriptions;
    for (const auto& record : subscriptions) {
      record.subscriber->on_topic_withdrawn(topic);
    }
  }
  return true;
}

NotificationPtr Broker::publish(PublisherId publisher, const std::string& topic,
                                double rank, SimDuration lifetime,
                                std::string payload) {
  auto it = topics_.find(topic);
  if (it == topics_.end() || !it->second.advertisers.contains(publisher.value)) {
    ++stats_.rejected_publishes;
    log_message(LogLevel::kWarn, sim_.now(), "broker",
                "publish on unadvertised topic '" + topic + "' rejected");
    return nullptr;
  }
  auto notification = std::make_shared<Notification>();
  notification->id = NotificationId{next_notification_++};
  notification->topic = topic;
  notification->publisher = publisher;
  notification->rank = std::clamp(rank, kMinRank, kMaxRank);
  notification->published_at = sim_.now();
  notification->expires_at =
      lifetime == kNever ? kNever : sim_.now() + lifetime;
  notification->payload = std::move(payload);

  ++stats_.published;
  NotificationPtr routed = notification;
  remember(it->second, routed);
  route(it->second, routed);
  return routed;
}

bool Broker::update_rank(PublisherId publisher, NotificationId id,
                         double new_rank) {
  auto topic_it = id_to_topic_.find(id.value);
  if (topic_it == id_to_topic_.end()) return false;
  TopicEntry& entry = *topic_it->second;

  auto original_it =
      std::find_if(entry.history.begin(), entry.history.end(),
                   [&](const NotificationPtr& n) { return n->id == id; });
  if (original_it == entry.history.end()) return false;
  if ((*original_it)->publisher != publisher) return false;
  if ((*original_it)->expired_at(sim_.now())) return false;  // too late

  auto updated = std::make_shared<Notification>(**original_it);
  updated->rank = std::clamp(new_rank, kMinRank, kMaxRank);
  *original_it = updated;  // history reflects the latest rank

  ++stats_.rank_updates;
  route(entry, updated);
  return true;
}

SubscriptionId Broker::subscribe(const std::string& topic,
                                 Subscriber& subscriber,
                                 SubscriptionOptions options) {
  const SubscriptionId id{next_subscription_++};
  topics_[topic].subscriptions.push_back(
      SubscriptionRecord{id, &subscriber, options});
  return id;
}

bool Broker::unsubscribe(SubscriptionId id) {
  for (auto& [topic, entry] : topics_) {
    auto& subs = entry.subscriptions;
    auto it = std::find_if(subs.begin(), subs.end(),
                           [&](const SubscriptionRecord& r) { return r.id == id; });
    if (it != subs.end()) {
      subs.erase(it);
      return true;
    }
  }
  return false;
}

bool Broker::is_advertised(const std::string& topic) const {
  auto it = topics_.find(topic);
  return it != topics_.end() && !it->second.advertisers.empty();
}

std::size_t Broker::subscriber_count(const std::string& topic) const {
  auto it = topics_.find(topic);
  return it == topics_.end() ? 0 : it->second.subscriptions.size();
}

NotificationPtr Broker::find(NotificationId id) const {
  auto topic_it = id_to_topic_.find(id.value);
  if (topic_it == id_to_topic_.end()) return nullptr;
  const auto& history = topic_it->second->history;
  auto it = std::find_if(history.begin(), history.end(),
                         [&](const NotificationPtr& n) { return n->id == id; });
  return it == history.end() ? nullptr : *it;
}

const SubscriptionOptions& Broker::options(SubscriptionId id) const {
  for (const auto& [topic, entry] : topics_) {
    for (const auto& record : entry.subscriptions) {
      if (record.id == id) return record.options;
    }
  }
  throw std::invalid_argument("options: unknown subscription");
}

void Broker::route(TopicEntry& entry, const NotificationPtr& notification) {
  // Route to the subscribers of this moment: a callback may (un)subscribe
  // or publish reentrantly, and a nested route works above `end`.
  const std::size_t begin = route_stack_.size();
  for (const SubscriptionRecord& record : entry.subscriptions) {
    route_stack_.push_back(record.subscriber);
  }
  const std::size_t end = route_stack_.size();
  for (std::size_t i = begin; i < end; ++i) {
    route_stack_[i]->on_notification(notification);
    ++stats_.deliveries;
  }
  route_stack_.resize(begin);
}

void Broker::remember(TopicEntry& entry, const NotificationPtr& notification) {
  entry.history.push_back(notification);
  id_to_topic_.emplace(notification->id.value, &entry);
  if (entry.history.size() > history_limit_) {
    id_to_topic_.erase(entry.history.front()->id.value);
    entry.history.pop_front();
  }
  // Periodically drop expired events so rank updates cannot resurrect them
  // and the id map stays bounded.
  if ((stats_.published & 0xFF) == 0) sweep_expired(entry);
}

void Broker::sweep_expired(TopicEntry& entry) {
  const SimTime now = sim_.now();
  auto& history = entry.history;
  auto kept = history.begin();
  for (auto it = history.begin(); it != history.end(); ++it) {
    if ((*it)->expired_at(now)) {
      id_to_topic_.erase((*it)->id.value);
      ++stats_.expired_swept;
    } else {
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
  }
  history.erase(kept, history.end());
}

}  // namespace waif::pubsub
