#include "pubsub/broker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/time.h"
#include "pubsub/subscriber.h"
#include "sim/simulator.h"

namespace waif::pubsub {
namespace {

/// Collects everything it receives.
class Probe : public Subscriber {
 public:
  void on_notification(const NotificationPtr& notification) override {
    received.push_back(notification);
  }
  void on_topic_withdrawn(const std::string& topic) override {
    withdrawn.push_back(topic);
  }

  std::vector<NotificationPtr> received;
  std::vector<std::string> withdrawn;
};

class BrokerTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  Broker broker{sim};
  Probe probe;
};

TEST_F(BrokerTest, PublishRequiresAdvertisement) {
  const PublisherId publisher = broker.register_publisher("p");
  EXPECT_EQ(broker.publish(publisher, "news", 3.0), nullptr);
  EXPECT_EQ(broker.stats().rejected_publishes, 1u);

  broker.advertise(publisher, "news");
  EXPECT_NE(broker.publish(publisher, "news", 3.0), nullptr);
  EXPECT_EQ(broker.stats().published, 1u);
}

TEST_F(BrokerTest, AdvertiseRequiresRegistration) {
  EXPECT_THROW(broker.advertise(PublisherId{999}, "news"),
               std::invalid_argument);
}

TEST_F(BrokerTest, DeliversToSubscriber) {
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "news");
  broker.subscribe("news", probe);
  auto n = broker.publish(publisher, "news", 2.5, kNever, "hello");
  ASSERT_EQ(probe.received.size(), 1u);
  EXPECT_EQ(probe.received[0]->id, n->id);
  EXPECT_EQ(probe.received[0]->payload, "hello");
  EXPECT_DOUBLE_EQ(probe.received[0]->rank, 2.5);
}

TEST_F(BrokerTest, TopicsAreIsolated) {
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "news");
  broker.advertise(publisher, "sports");
  broker.subscribe("news", probe);
  broker.publish(publisher, "sports", 1.0);
  EXPECT_TRUE(probe.received.empty());
}

TEST_F(BrokerTest, FanOutToMultipleSubscribers) {
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "news");
  Probe second;
  broker.subscribe("news", probe);
  broker.subscribe("news", second);
  broker.publish(publisher, "news", 1.0);
  EXPECT_EQ(probe.received.size(), 1u);
  EXPECT_EQ(second.received.size(), 1u);
  EXPECT_EQ(broker.stats().deliveries, 2u);
}

TEST_F(BrokerTest, UnsubscribeStopsDelivery) {
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "news");
  const SubscriptionId sub = broker.subscribe("news", probe);
  EXPECT_TRUE(broker.unsubscribe(sub));
  broker.publish(publisher, "news", 1.0);
  EXPECT_TRUE(probe.received.empty());
  EXPECT_FALSE(broker.unsubscribe(sub));  // second time: unknown
}

TEST_F(BrokerTest, SubscribeBeforeAdvertiseWorks) {
  broker.subscribe("future", probe);
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "future");
  broker.publish(publisher, "future", 1.0);
  EXPECT_EQ(probe.received.size(), 1u);
}

TEST_F(BrokerTest, PublishStampsTimeAndExpiry) {
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "news");
  sim.schedule_at(seconds(100.0), [&] {
    auto n = broker.publish(publisher, "news", 1.0, seconds(30.0));
    EXPECT_EQ(n->published_at, seconds(100.0));
    EXPECT_EQ(n->expires_at, seconds(130.0));
  });
  sim.run();
}

TEST_F(BrokerTest, RankIsClampedToScale) {
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "news");
  auto high = broker.publish(publisher, "news", 99.0);
  auto low = broker.publish(publisher, "news", -5.0);
  EXPECT_DOUBLE_EQ(high->rank, kMaxRank);
  EXPECT_DOUBLE_EQ(low->rank, kMinRank);
}

TEST_F(BrokerTest, UpdateRankRoutesSameIdWithNewRank) {
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "news");
  broker.subscribe("news", probe);
  auto original = broker.publish(publisher, "news", 4.0);
  EXPECT_TRUE(broker.update_rank(publisher, original->id, 1.0));
  ASSERT_EQ(probe.received.size(), 2u);
  EXPECT_EQ(probe.received[1]->id, original->id);
  EXPECT_DOUBLE_EQ(probe.received[1]->rank, 1.0);
  EXPECT_EQ(broker.stats().rank_updates, 1u);
  // Retained history reflects the latest rank.
  EXPECT_DOUBLE_EQ(broker.find(original->id)->rank, 1.0);
}

TEST_F(BrokerTest, UpdateRankRejectsForeignPublisher) {
  const PublisherId owner = broker.register_publisher("owner");
  const PublisherId other = broker.register_publisher("other");
  broker.advertise(owner, "news");
  auto n = broker.publish(owner, "news", 4.0);
  EXPECT_FALSE(broker.update_rank(other, n->id, 1.0));
}

TEST_F(BrokerTest, UpdateRankUnknownIdFails) {
  const PublisherId publisher = broker.register_publisher("p");
  EXPECT_FALSE(broker.update_rank(publisher, NotificationId{777}, 1.0));
}

TEST_F(BrokerTest, HistoryIsBoundedForRankUpdates) {
  sim::Simulator local_sim;
  Broker small(local_sim, /*history_limit=*/2);
  const PublisherId publisher = small.register_publisher("p");
  small.advertise(publisher, "news");
  auto first = small.publish(publisher, "news", 1.0);
  small.publish(publisher, "news", 2.0);
  small.publish(publisher, "news", 3.0);  // evicts `first`
  EXPECT_FALSE(small.update_rank(publisher, first->id, 0.5));
  EXPECT_EQ(small.find(first->id), nullptr);
}

TEST_F(BrokerTest, WithdrawNotifiesOnLastAdvertiser) {
  const PublisherId a = broker.register_publisher("a");
  const PublisherId b = broker.register_publisher("b");
  broker.advertise(a, "news");
  broker.advertise(b, "news");
  broker.subscribe("news", probe);

  EXPECT_TRUE(broker.withdraw(a, "news"));
  EXPECT_TRUE(probe.withdrawn.empty());  // b still advertises
  EXPECT_TRUE(broker.withdraw(b, "news"));
  ASSERT_EQ(probe.withdrawn.size(), 1u);
  EXPECT_EQ(probe.withdrawn[0], "news");
  EXPECT_FALSE(broker.is_advertised("news"));
}

TEST_F(BrokerTest, WithdrawWithoutAdvertiseFails) {
  const PublisherId publisher = broker.register_publisher("p");
  EXPECT_FALSE(broker.withdraw(publisher, "news"));
}

TEST_F(BrokerTest, SubscriberCountAndOptions) {
  const SubscriptionId sub =
      broker.subscribe("news", probe, SubscriptionOptions{30, 4.5});
  EXPECT_EQ(broker.subscriber_count("news"), 1u);
  EXPECT_EQ(broker.options(sub).max, 30);
  EXPECT_DOUBLE_EQ(broker.options(sub).threshold, 4.5);
  EXPECT_THROW(broker.options(SubscriptionId{404}), std::invalid_argument);
}

TEST_F(BrokerTest, FindReturnsNullForUnknown) {
  EXPECT_EQ(broker.find(NotificationId{1}), nullptr);
}

/// Records what it receives and runs `hook` on every delivery, so a test
/// can (un)subscribe or publish from inside a route.
class HookedProbe : public Subscriber {
 public:
  void on_notification(const NotificationPtr& notification) override {
    received.push_back(notification->id.value);
    if (hook) hook(notification);
  }

  std::vector<std::uint64_t> received;
  std::function<void(const NotificationPtr&)> hook;
};

// A route delivers to the subscribers the topic had when the route began:
// one removed during the route still gets this notification, one added
// during it does not, and neither change leaks into the next publish.
TEST_F(BrokerTest, UnsubscribingItselfDuringDeliveryKeepsTheRouteWhole) {
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "news");
  HookedProbe first, second;
  const SubscriptionId first_id = broker.subscribe("news", first);
  broker.subscribe("news", second);
  first.hook = [&](const NotificationPtr&) { broker.unsubscribe(first_id); };

  broker.publish(publisher, "news", 1.0);
  broker.publish(publisher, "news", 1.0);
  EXPECT_EQ(first.received, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(second.received, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(broker.subscriber_count("news"), 1u);
  EXPECT_EQ(broker.stats().deliveries, 3u);
}

TEST_F(BrokerTest, UnsubscribingAnotherDuringDeliveryStillDeliversToIt) {
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "news");
  HookedProbe first, second;
  broker.subscribe("news", first);
  const SubscriptionId second_id = broker.subscribe("news", second);
  first.hook = [&](const NotificationPtr&) { broker.unsubscribe(second_id); };

  broker.publish(publisher, "news", 1.0);
  broker.publish(publisher, "news", 1.0);
  EXPECT_EQ(first.received, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(second.received, (std::vector<std::uint64_t>{1}));
}

TEST_F(BrokerTest, SubscribingDuringDeliveryTakesEffectFromTheNextPublish) {
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "news");
  HookedProbe first, second, third;
  broker.subscribe("news", first);
  broker.subscribe("news", second);
  first.hook = [&](const NotificationPtr&) {
    broker.subscribe("news", third);
    first.hook = nullptr;
  };

  broker.publish(publisher, "news", 1.0);
  broker.publish(publisher, "news", 1.0);
  EXPECT_EQ(first.received, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(second.received, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(third.received, (std::vector<std::uint64_t>{2}));
}

// A publish from inside a delivery routes completely, to the subscribers of
// that moment, before the outer route moves on to its next subscriber.
TEST_F(BrokerTest, NestedPublishDuringDeliveryRoutesOnItsOwn) {
  const PublisherId publisher = broker.register_publisher("p");
  broker.advertise(publisher, "news");
  broker.advertise(publisher, "sports");
  HookedProbe first, second, sports;
  broker.subscribe("news", first);
  broker.subscribe("news", second);
  broker.subscribe("sports", sports);
  first.hook = [&](const NotificationPtr& notification) {
    if (notification->id.value != 1) return;
    broker.publish(publisher, "news", 2.0);    // id 2, same topic
    broker.publish(publisher, "sports", 2.0);  // id 3, another topic
  };

  broker.publish(publisher, "news", 1.0);
  EXPECT_EQ(first.received, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(second.received, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(sports.received, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(broker.stats().deliveries, 5u);

  // The nesting left nothing behind: a plain publish reaches both again.
  broker.publish(publisher, "news", 1.0);
  EXPECT_EQ(first.received.back(), 4u);
  EXPECT_EQ(second.received.back(), 4u);
}

TEST_F(BrokerTest, RankUpdateFindsItsTopicAmongMany) {
  const PublisherId publisher = broker.register_publisher("p");
  HookedProbe news, sports;
  // Topic names past the small-string buffer, several of them, so the id
  // index has to tell topics apart.
  const std::string topics[] = {"experiment/news-topic", "experiment/sports-topic",
                                "experiment/weather-topic"};
  for (const std::string& topic : topics) broker.advertise(publisher, topic);
  broker.subscribe(topics[0], news);
  broker.subscribe(topics[1], sports);
  const auto first = broker.publish(publisher, topics[0], 1.0);
  const auto second = broker.publish(publisher, topics[1], 2.0);
  broker.publish(publisher, topics[2], 3.0);

  EXPECT_TRUE(broker.update_rank(publisher, second->id, 4.0));
  EXPECT_TRUE(broker.update_rank(publisher, first->id, 0.5));
  EXPECT_EQ(news.received, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(sports.received, (std::vector<std::uint64_t>{2, 2}));
  EXPECT_DOUBLE_EQ(broker.find(second->id)->rank, 4.0);
  EXPECT_EQ(broker.find(second->id)->topic, topics[1]);
  EXPECT_DOUBLE_EQ(broker.find(first->id)->rank, 0.5);
}

TEST_F(BrokerTest, SubscriptionOptionsAccepts) {
  SubscriptionOptions options{10, 3.0};
  Notification above;
  above.rank = 3.0;
  Notification below;
  below.rank = 2.9;
  EXPECT_TRUE(options.accepts(above));
  EXPECT_FALSE(options.accepts(below));
}

}  // namespace
}  // namespace waif::pubsub
