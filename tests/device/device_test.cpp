#include "device/device.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/time.h"
#include "sim/simulator.h"

namespace waif::device {
namespace {

pubsub::NotificationPtr make(std::uint64_t id, double rank,
                             SimTime published = 0, SimTime expires = kNever) {
  auto n = std::make_shared<pubsub::Notification>();
  n->id = NotificationId{id};
  n->topic = "t";
  n->rank = rank;
  n->published_at = published;
  n->expires_at = expires;
  return n;
}

class DeviceTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  Device device{sim, DeviceId{1}};
};

TEST_F(DeviceTest, StartsEmpty) {
  EXPECT_EQ(device.queue_size(), 0u);
  EXPECT_TRUE(device.read(10, 0.0).empty());
}

TEST_F(DeviceTest, ReceiveAndContains) {
  EXPECT_TRUE(device.receive(make(1, 3.0)));
  EXPECT_TRUE(device.contains(NotificationId{1}));
  EXPECT_EQ(device.queue_size(), 1u);
  EXPECT_EQ(device.stats().received, 1u);
}

TEST_F(DeviceTest, ReadReturnsHighestRankedAndRemoves) {
  device.receive(make(1, 1.0));
  device.receive(make(2, 5.0));
  device.receive(make(3, 3.0));
  auto read = device.read(2, 0.0);
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[0]->id.value, 2u);
  EXPECT_EQ(read[1]->id.value, 3u);
  EXPECT_EQ(device.queue_size(), 1u);
  EXPECT_EQ(device.stats().read, 2u);
}

TEST_F(DeviceTest, ReadHonorsThreshold) {
  device.receive(make(1, 1.0));
  device.receive(make(2, 4.9));
  auto read = device.read(10, 4.5);
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0]->id.value, 2u);
  // The sub-threshold message stays queued.
  EXPECT_EQ(device.queue_size(), 1u);
}

TEST_F(DeviceTest, TopIdsDoesNotRemove) {
  device.receive(make(1, 1.0));
  device.receive(make(2, 2.0));
  auto ids = device.top_ids("t", 1, 0.0);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0].value, 2u);
  EXPECT_EQ(device.queue_size(), 2u);
}

TEST_F(DeviceTest, DuplicateReceiveReplacesRank) {
  device.receive(make(7, 4.0));
  device.receive(make(7, 0.5));  // rank update
  EXPECT_EQ(device.queue_size(), 1u);
  EXPECT_EQ(device.stats().rank_updates, 1u);
  EXPECT_DOUBLE_EQ(*device.rank_of(NotificationId{7}), 0.5);
}

TEST_F(DeviceTest, ExpiredMessagesPurgeLazily) {
  device.receive(make(1, 3.0, 0, seconds(10.0)));
  device.receive(make(2, 3.0));
  sim.schedule_at(seconds(20.0), [] {});
  sim.run();
  EXPECT_EQ(device.queue_size(), 1u);
  EXPECT_EQ(device.stats().expired_unread, 1u);
  auto read = device.read(10, 0.0);
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0]->id.value, 2u);
}

TEST_F(DeviceTest, StorageLimitEvictsLowestRank) {
  DeviceConfig config;
  config.storage_limit = 2;
  Device small(sim, DeviceId{2}, config);
  small.receive(make(1, 3.0));
  small.receive(make(2, 1.0));
  small.receive(make(3, 5.0));  // evicts id 2 (rank 1.0)
  EXPECT_EQ(small.queue_size(), 2u);
  EXPECT_FALSE(small.contains(NotificationId{2}));
  EXPECT_EQ(small.stats().evicted, 1u);
}

TEST_F(DeviceTest, BatteryDrainsAndDies) {
  DeviceConfig config;
  config.battery_capacity = 2.5;
  config.receive_cost = 1.0;
  Device mobile(sim, DeviceId{3}, config);
  EXPECT_TRUE(mobile.receive(make(1, 1.0)));
  EXPECT_TRUE(mobile.receive(make(2, 1.0)));
  EXPECT_TRUE(mobile.receive(make(3, 1.0)));  // uses the last 0.5.. capacity
  EXPECT_TRUE(mobile.battery_dead());
  EXPECT_FALSE(mobile.receive(make(4, 1.0)));
  EXPECT_EQ(mobile.stats().rejected_dead_battery, 1u);
  EXPECT_DOUBLE_EQ(mobile.battery_remaining(), 0.0);
}

TEST_F(DeviceTest, DeadBatteryBlocksUplinkReads) {
  DeviceConfig config;
  config.battery_capacity = 0.5;
  config.send_cost = 1.0;
  Device mobile(sim, DeviceId{4}, config);
  // First read drains the budget; second is rejected.
  mobile.read(1, 0.0, /*charge_uplink=*/true);
  EXPECT_TRUE(mobile.battery_dead());
  mobile.receive(make(1, 1.0));  // also rejected
  EXPECT_FALSE(mobile.contains(NotificationId{1}));
}

TEST_F(DeviceTest, UnlimitedBatteryNeverDies) {
  for (int i = 0; i < 1000; ++i) {
    device.receive(make(static_cast<std::uint64_t>(i + 1), 1.0));
  }
  EXPECT_FALSE(device.battery_dead());
  EXPECT_EQ(device.battery_remaining(), kUnlimitedBattery);
}

TEST_F(DeviceTest, ReadZeroReturnsNothing) {
  device.receive(make(1, 1.0));
  EXPECT_TRUE(device.read(0, 0.0).empty());
  EXPECT_EQ(device.queue_size(), 1u);
}

TEST_F(DeviceTest, RankOfMissingIsNullopt) {
  EXPECT_FALSE(device.rank_of(NotificationId{42}).has_value());
}

TEST_F(DeviceTest, RankDropBelowThresholdRetractsHeldCopy) {
  device.set_topic_threshold("t", 2.5);
  device.receive(make(1, 4.0));
  ASSERT_TRUE(device.contains(NotificationId{1}));
  device.receive(make(1, 0.5));  // retraction notice
  EXPECT_FALSE(device.contains(NotificationId{1}));
  EXPECT_EQ(device.stats().retracted, 1u);
  EXPECT_EQ(device.queue_size(), 0u);
}

TEST_F(DeviceTest, FreshSubThresholdNoticeIsNotStored) {
  // A rank-drop notice can arrive for a message the user already read; it
  // must not clog the buffer as an unread rank-0 message.
  device.set_topic_threshold("t", 2.5);
  device.receive(make(1, 0.0));
  EXPECT_FALSE(device.contains(NotificationId{1}));
  EXPECT_EQ(device.stats().retracted, 1u);
}

TEST_F(DeviceTest, RankDropAboveThresholdMerelyReorders) {
  device.set_topic_threshold("t", 2.0);
  device.receive(make(1, 4.0));
  device.receive(make(1, 2.5));  // still acceptable
  EXPECT_TRUE(device.contains(NotificationId{1}));
  EXPECT_DOUBLE_EQ(*device.rank_of(NotificationId{1}), 2.5);
  EXPECT_EQ(device.stats().retracted, 0u);
}

TEST_F(DeviceTest, WithoutThresholdNothingIsRetracted) {
  device.receive(make(1, 4.0));
  device.receive(make(1, 0.0));
  EXPECT_TRUE(device.contains(NotificationId{1}));
  EXPECT_EQ(device.stats().retracted, 0u);
}

TEST_F(DeviceTest, ThresholdsArePerTopic) {
  device.set_topic_threshold("strict", 4.0);
  auto on_strict = std::make_shared<pubsub::Notification>();
  on_strict->id = NotificationId{1};
  on_strict->topic = "strict";
  on_strict->rank = 3.0;
  device.receive(on_strict);
  EXPECT_FALSE(device.contains(NotificationId{1}));  // below strict threshold
  device.receive(make(2, 3.0));  // topic "t": no threshold registered
  EXPECT_TRUE(device.contains(NotificationId{2}));
}

// The id index maps each held message to its topic's queue. These walk every
// path that goes through it — rank update, retraction, expiry purge and
// eviction — with messages spread over several long-named topics, so a
// message found under the wrong topic would show.
pubsub::NotificationPtr on_topic(const std::string& topic, std::uint64_t id,
                                 double rank, SimTime expires = kNever) {
  auto n = std::make_shared<pubsub::Notification>();
  n->id = NotificationId{id};
  n->topic = topic;
  n->rank = rank;
  n->expires_at = expires;
  return n;
}

const std::string kNews = "experiment/news-topic";
const std::string kSports = "experiment/sports-topic";

TEST_F(DeviceTest, RankUpdateReordersWithinItsOwnTopic) {
  device.receive(on_topic(kNews, 1, 4.0));
  device.receive(on_topic(kSports, 2, 3.0));
  device.receive(on_topic(kNews, 3, 2.0));
  device.receive(on_topic(kNews, 1, 1.0));  // rank update
  EXPECT_EQ(device.stats().rank_updates, 1u);
  EXPECT_DOUBLE_EQ(*device.rank_of(NotificationId{1}), 1.0);
  EXPECT_EQ(device.queue_size(kNews), 2u);
  EXPECT_EQ(device.queue_size(kSports), 1u);
  auto read = device.read(kNews, 2, 0.0);
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[0]->id.value, 3u);
  EXPECT_EQ(read[1]->id.value, 1u);
  EXPECT_FALSE(device.contains(NotificationId{1}));
  EXPECT_TRUE(device.contains(NotificationId{2}));
  // A read message that comes round again is stored afresh.
  device.receive(on_topic(kNews, 1, 3.5));
  EXPECT_EQ(device.stats().rank_updates, 1u);
  EXPECT_EQ(device.queue_size(kNews), 1u);
}

TEST_F(DeviceTest, RetractionRemovesFromItsOwnTopic) {
  device.set_topic_threshold(kSports, 2.5);
  device.receive(on_topic(kNews, 1, 4.0));
  device.receive(on_topic(kSports, 2, 4.0, seconds(10.0)));
  device.receive(on_topic(kSports, 2, 1.0, seconds(10.0)));  // retraction
  EXPECT_FALSE(device.contains(NotificationId{2}));
  EXPECT_EQ(device.stats().retracted, 1u);
  EXPECT_EQ(device.queue_size(kSports), 0u);
  EXPECT_EQ(device.queue_size(kNews), 1u);
  // The retracted message left the expiry index too: its expiry counts
  // nothing.
  sim.schedule_at(seconds(20.0), [] {});
  sim.run();
  EXPECT_EQ(device.queue_size(), 1u);
  EXPECT_EQ(device.stats().expired_unread, 0u);
}

TEST_F(DeviceTest, ExpiryPurgeRemovesFromEveryTopic) {
  device.receive(on_topic(kNews, 1, 3.0, seconds(10.0)));
  device.receive(on_topic(kSports, 2, 3.0, seconds(5.0)));
  device.receive(on_topic(kSports, 3, 2.0, seconds(30.0)));
  device.receive(on_topic(kNews, 4, 1.0));
  // Read before expiry: the read message's expiry is forgotten.
  ASSERT_EQ(device.read(kNews, 1, 0.0).size(), 1u);  // id 1
  sim.schedule_at(seconds(20.0), [] {});
  sim.run();
  EXPECT_EQ(device.queue_size(), 2u);
  EXPECT_EQ(device.stats().expired_unread, 1u);  // id 2 only
  EXPECT_FALSE(device.contains(NotificationId{2}));
  EXPECT_TRUE(device.contains(NotificationId{3}));
  EXPECT_EQ(device.queue_size(kSports), 1u);
  EXPECT_EQ(device.queue_size(kNews), 1u);
}

TEST_F(DeviceTest, EvictionRemovesTheLowestAcrossTopics) {
  DeviceConfig config;
  config.storage_limit = 3;
  Device small(sim, DeviceId{2}, config);
  small.receive(on_topic(kNews, 1, 3.0, seconds(50.0)));
  small.receive(on_topic(kSports, 2, 1.0, seconds(50.0)));
  small.receive(on_topic(kNews, 3, 4.0));
  small.receive(on_topic(kSports, 4, 5.0));  // evicts id 2
  EXPECT_FALSE(small.contains(NotificationId{2}));
  EXPECT_FALSE(small.rank_of(NotificationId{2}).has_value());
  small.receive(on_topic(kSports, 2, 2.0));  // id 2 again: a fresh message
  EXPECT_EQ(small.stats().rank_updates, 0u);
  EXPECT_FALSE(small.contains(NotificationId{2}));  // and the lowest again
  small.receive(on_topic(kNews, 3, 0.5));           // rank update, then evicted
  small.receive(on_topic(kSports, 5, 4.5));
  EXPECT_FALSE(small.contains(NotificationId{3}));
  EXPECT_EQ(small.stats().evicted, 3u);
  EXPECT_EQ(small.queue_size(kNews), 1u);
  EXPECT_EQ(small.queue_size(kSports), 2u);
  // Id 1 is still held; its expiry purges it from its topic.
  sim.schedule_at(seconds(60.0), [] {});
  sim.run();
  EXPECT_EQ(small.queue_size(kNews), 0u);
  EXPECT_EQ(small.queue_size(), 2u);
  EXPECT_EQ(small.stats().expired_unread, 1u);
}

}  // namespace
}  // namespace waif::device
