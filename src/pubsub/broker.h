// In-process topic-based broker: the routing substrate the paper treats as a
// black box offering advertise/withdraw, publish, subscribe/unsubscribe.
//
// Volume-limiting parameters (Max/Threshold) are carried on subscriptions but
// deliberately NOT enforced here: the paper applies them on the last hop (the
// proxy), and rank-drop retractions must reach subscribers even when the new
// rank falls below their threshold. The broker therefore fans every topic
// event out to every topic subscriber.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/pool_allocator.h"
#include "pubsub/notification.h"
#include "pubsub/subscriber.h"
#include "pubsub/subscription.h"
#include "sim/simulator.h"

namespace waif::pubsub {

struct BrokerStats {
  std::uint64_t published = 0;
  std::uint64_t rank_updates = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t expired_swept = 0;
  std::uint64_t rejected_publishes = 0;
};

class Broker {
 public:
  /// `history_limit` bounds the per-topic event history retained for rank
  /// updates — the "garbage collection" the paper's pseudo-code omits.
  explicit Broker(sim::Simulator& sim, std::size_t history_limit = 4096);

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // --- publisher side -----------------------------------------------------

  /// Registers a publisher endpoint and returns its identity.
  PublisherId register_publisher(std::string name = {});

  /// Announces that `publisher` will publish on `topic`.
  void advertise(PublisherId publisher, const std::string& topic);

  /// Retracts the advertisement. When the last advertiser leaves, topic
  /// subscribers are told via on_topic_withdrawn(). Returns false if the
  /// publisher had not advertised the topic.
  bool withdraw(PublisherId publisher, const std::string& topic);

  /// Publishes a notification on an advertised topic. `lifetime` of kNever
  /// means no expiration. Returns the routed notification (with its assigned
  /// id), or nullptr if the topic was not advertised by `publisher` (counted
  /// in stats().rejected_publishes).
  NotificationPtr publish(PublisherId publisher, const std::string& topic,
                          double rank, SimDuration lifetime = kNever,
                          std::string payload = {});

  /// Changes the rank of a previously published notification (Section 3.4):
  /// routes a copy of the original carrying the new rank and the same id.
  /// Only the original publisher may re-rank. Returns false when the event is
  /// unknown (e.g. already garbage-collected) or the publisher mismatches.
  bool update_rank(PublisherId publisher, NotificationId id, double new_rank);

  // --- subscriber side ----------------------------------------------------

  /// Subscribes `subscriber` to `topic`; the subscriber must outlive the
  /// subscription. Subscribing to a not-yet-advertised topic is allowed.
  SubscriptionId subscribe(const std::string& topic, Subscriber& subscriber,
                           SubscriptionOptions options = {});

  /// Removes a subscription; returns false if the id is unknown.
  bool unsubscribe(SubscriptionId id);

  // --- introspection ------------------------------------------------------

  bool is_advertised(const std::string& topic) const;
  std::size_t subscriber_count(const std::string& topic) const;
  /// Looks up a retained notification by id; nullptr if never seen or GC'd.
  NotificationPtr find(NotificationId id) const;
  /// Options recorded for a live subscription; throws if unknown.
  const SubscriptionOptions& options(SubscriptionId id) const;
  const BrokerStats& stats() const { return stats_; }
  sim::Simulator& simulator() { return sim_; }

 private:
  struct SubscriptionRecord {
    SubscriptionId id;
    Subscriber* subscriber;
    SubscriptionOptions options;
  };
  struct TopicEntry {
    std::unordered_set<std::uint64_t> advertisers;
    std::vector<SubscriptionRecord> subscriptions;
    std::deque<NotificationPtr> history;
  };

  void route(TopicEntry& entry, const NotificationPtr& notification);
  void remember(TopicEntry& entry, const NotificationPtr& notification);
  void sweep_expired(TopicEntry& entry);

  sim::Simulator& sim_;
  std::size_t history_limit_;
  /// Never erased from, and a node keeps its address across rehashes, so
  /// the id index below may point into it.
  std::unordered_map<std::string, TopicEntry> topics_;
  std::unordered_map<std::uint64_t, std::string> publisher_names_;
  /// id -> topic of every retained notification, for rank-update lookup
  /// across topics.
  PooledHashMap<std::uint64_t, TopicEntry*> id_to_topic_;
  /// The subscribers of every route in progress, innermost last: a route
  /// pushes its topic's subscribers at the start and pops them at the end,
  /// so a subscription change during the route reaches only later routes,
  /// and a publish from inside a callback routes on its own slice above.
  std::vector<Subscriber*> route_stack_;
  std::uint64_t next_publisher_ = 1;
  std::uint64_t next_notification_ = 1;
  std::uint64_t next_subscription_ = 1;
  BrokerStats stats_;
};

}  // namespace waif::pubsub
