// End-to-end integration: publisher -> broker -> proxy -> link -> device,
// driven through simulated time with outages, expirations and rank changes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/channel.h"
#include "core/context.h"
#include "core/proxy.h"
#include "device/device.h"
#include "net/link.h"
#include "pubsub/broker.h"
#include "pubsub/overlay.h"
#include "pubsub/publisher.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/persistence.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace waif {
namespace {

using core::DeliveryMode;
using core::PolicyConfig;
using core::TopicConfig;

class LastHopIntegrationTest : public ::testing::Test {
 protected:
  TopicConfig config_with(PolicyConfig policy, int max = 8,
                          double threshold = 0.0) {
    TopicConfig config;
    config.options.max = max;
    config.options.threshold = threshold;
    config.policy = policy;
    return config;
  }

  sim::Simulator sim;
  pubsub::Broker broker{sim};
  net::Link link{sim};
  device::Device device{sim, DeviceId{1}};
  core::SimDeviceChannel channel{link, device};
  core::Proxy proxy{sim, channel};
  core::LastHopSession session{proxy, channel};
};

TEST_F(LastHopIntegrationTest, PrefetchSurvivesOutageRead) {
  // The headline behaviour: prefetching lets a read during an outage succeed.
  proxy.add_topic("news", config_with(PolicyConfig::buffer(8), /*max=*/4));
  broker.subscribe("news", proxy);
  proxy.attach_to_link(link);
  pubsub::Publisher publisher(broker, "p");

  // Events arrive while the network is still up.
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(i * kHour, [&publisher, i] {
      publisher.publish("news", 1.0 + 0.5 * i);
    });
  }
  // Outage from hour 7 to hour 20; user reads at hour 10.
  link.apply_schedule(net::OutageSchedule(
      {net::Outage{7 * kHour, 20 * kHour}}, kDay));
  std::size_t read_during_outage = 0;
  sim.schedule_at(10 * kHour, [&] {
    read_during_outage = session.user_read("news").size();
  });
  sim.run_until(kDay);

  EXPECT_EQ(read_during_outage, 4u);  // served from the prefetched buffer
}

TEST_F(LastHopIntegrationTest, PureOnDemandLosesTheOutageRead) {
  proxy.add_topic("news", config_with(PolicyConfig::on_demand(), /*max=*/4));
  broker.subscribe("news", proxy);
  proxy.attach_to_link(link);
  pubsub::Publisher publisher(broker, "p");

  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(i * kHour, [&publisher, i] {
      publisher.publish("news", 1.0 + 0.5 * i);
    });
  }
  link.apply_schedule(net::OutageSchedule(
      {net::Outage{7 * kHour, 20 * kHour}}, kDay));
  std::size_t read_during_outage = 99;
  sim.schedule_at(10 * kHour, [&] {
    read_during_outage = session.user_read("news").size();
  });
  sim.run_until(kDay);

  EXPECT_EQ(read_during_outage, 0u);  // nothing was on the device
}

TEST_F(LastHopIntegrationTest, ExpirationDuringOutageIsUnrecoverable) {
  proxy.add_topic("news", config_with(PolicyConfig::on_demand(), /*max=*/8));
  broker.subscribe("news", proxy);
  proxy.attach_to_link(link);
  pubsub::Publisher publisher(broker, "p");

  // Event expires at hour 5, in the middle of an outage ending at hour 8.
  sim.schedule_at(1 * kHour, [&publisher] {
    publisher.publish("news", 3.0, hours(4.0));
  });
  link.apply_schedule(
      net::OutageSchedule({net::Outage{2 * kHour, 8 * kHour}}, kDay));
  std::size_t read_after_outage = 99;
  sim.schedule_at(9 * kHour, [&] {
    read_after_outage = session.user_read("news").size();
  });
  sim.run_until(kDay);

  EXPECT_EQ(read_after_outage, 0u);
  EXPECT_EQ(proxy.topic("news")->stats().expired_at_proxy, 1u);
}

TEST_F(LastHopIntegrationTest, OnlineDeliveryBeatsExpirationAcrossOutage) {
  // Same timeline, but the event is forwarded before the outage: the user
  // can still read it (from the device) before it expires.
  proxy.add_topic("news", config_with(PolicyConfig::online(), /*max=*/8));
  broker.subscribe("news", proxy);
  proxy.attach_to_link(link);
  pubsub::Publisher publisher(broker, "p");

  sim.schedule_at(1 * kHour, [&publisher] {
    publisher.publish("news", 3.0, hours(4.0));  // expires at hour 5
  });
  link.apply_schedule(
      net::OutageSchedule({net::Outage{2 * kHour, 8 * kHour}}, kDay));
  std::size_t read_during_outage = 0;
  sim.schedule_at(4 * kHour, [&] {
    read_during_outage = session.user_read("news").size();
  });
  sim.run_until(kDay);

  EXPECT_EQ(read_during_outage, 1u);
}

TEST_F(LastHopIntegrationTest, RankRetractionBeatsDelayedPrefetch) {
  // Section 3.4: with a delay stage, a quick retraction means the event is
  // never transferred at all.
  PolicyConfig policy = PolicyConfig::buffer(8);
  policy.delay = hours(1.0);
  proxy.add_topic("mod", config_with(policy, /*max=*/8, /*threshold=*/2.0));
  broker.subscribe("mod", proxy);
  proxy.attach_to_link(link);
  pubsub::Publisher publisher(broker, "p");

  pubsub::NotificationPtr spam;
  sim.schedule_at(minutes(5.0), [&] {
    spam = publisher.publish("mod", 4.0);  // looks great at first
  });
  sim.schedule_at(minutes(20.0), [&] {
    publisher.update_rank(spam->id, 0.0);  // moderators catch it
  });
  sim.run_until(kDay);

  EXPECT_EQ(link.stats().downlink_messages, 0u);
  EXPECT_EQ(device.queue_size(), 0u);
}

TEST_F(LastHopIntegrationTest, WithoutDelayRetractionCostsTwoTransfers) {
  proxy.add_topic("mod",
                  config_with(PolicyConfig::buffer(8), /*max=*/8,
                              /*threshold=*/2.0));
  broker.subscribe("mod", proxy);
  proxy.attach_to_link(link);
  pubsub::Publisher publisher(broker, "p");

  pubsub::NotificationPtr spam;
  sim.schedule_at(minutes(5.0), [&] { spam = publisher.publish("mod", 4.0); });
  sim.schedule_at(minutes(20.0), [&] {
    publisher.update_rank(spam->id, 0.0);
  });
  sim.run_until(kDay);

  // Forwarded once, then a rank-drop notice: both crossed the last hop.
  EXPECT_EQ(link.stats().downlink_messages, 2u);
  // And nothing useful: a thresholded read shows no messages.
  EXPECT_TRUE(device.read(8, 2.0).empty());
}

TEST_F(LastHopIntegrationTest, ProxyBehindOverlayReceivesMultiHop) {
  pubsub::Overlay overlay(sim);
  auto& source = overlay.add_node("source");
  auto& edge = overlay.add_node("edge");
  overlay.connect(source.id(), edge.id(), milliseconds(20));

  proxy.add_topic("wide", config_with(PolicyConfig::online()));
  edge.subscribe("wide", proxy);

  const PublisherId publisher = source.register_publisher();
  source.advertise(publisher, "wide");
  source.publish(publisher, "wide", 3.0);
  sim.run();

  EXPECT_EQ(device.queue_size(), 1u);
}

TEST_F(LastHopIntegrationTest, ContextRouterEndToEnd) {
  core::ContextRouter router(broker, proxy);
  TopicConfig config = config_with(PolicyConfig::online());
  config.mode = DeliveryMode::kOnLine;
  router.add_rule("city", "traffic/{city}", config);
  pubsub::Publisher roads(broker, "roads");

  router.update_context("city", "tromso");
  roads.publish("traffic/tromso", 4.0);
  EXPECT_EQ(device.queue_size(), 1u);

  // The user flies south; old-city traffic stops reaching the device.
  router.update_context("city", "oslo");
  roads.publish("traffic/tromso", 4.0);
  roads.publish("traffic/oslo", 4.0);
  EXPECT_EQ(device.queue_size(), 2u);
}

TEST_F(LastHopIntegrationTest, ConstrainedDeviceEvictsLowRanked) {
  device::DeviceConfig small_config;
  small_config.storage_limit = 2;
  device::Device small(sim, DeviceId{2}, small_config);
  core::SimDeviceChannel small_channel(link, small);
  core::Proxy small_proxy(sim, small_channel);
  small_proxy.add_topic("news", config_with(PolicyConfig::online()));
  broker.subscribe("news", small_proxy);
  pubsub::Publisher publisher(broker, "p");

  publisher.publish("news", 1.0);
  publisher.publish("news", 2.0);
  publisher.publish("news", 3.0);

  EXPECT_EQ(small.queue_size(), 2u);
  EXPECT_EQ(small.stats().evicted, 1u);  // needless transfer: pure waste
}

/// Replays one outage-laced three-day trace through a Proxy +
/// LastHopSession world and returns the ids of every user read, in order.
/// With `journal` on, a ProxyPersistence on a MemBackend journals every
/// mutation and checkpoints every 64 records.
std::vector<std::uint64_t> replay_read_ids(bool journal) {
  workload::ScenarioConfig scenario;
  scenario.event_frequency = 24.0;
  scenario.user_frequency = 4.0;
  scenario.max = 8;
  scenario.threshold = 1.0;
  scenario.expiring_fraction = 0.75;
  scenario.mean_expiration = 8 * kHour;
  scenario.outage_fraction = 0.2;
  scenario.mean_outage = 3 * kHour;
  scenario.horizon = 3 * kDay;
  const workload::Trace trace = workload::generate_trace(scenario, 7);

  sim::Simulator sim;
  pubsub::Broker broker(sim);
  net::Link link(sim);
  device::Device device(sim, DeviceId{1});
  core::SimDeviceChannel channel(link, device);
  core::Proxy proxy(sim, channel);
  TopicConfig config;
  config.options.max = scenario.max;
  config.options.threshold = scenario.threshold;
  config.policy = PolicyConfig::adaptive();
  config.policy.delay = 30 * kMinute;  // crosses the delay stage too
  proxy.add_topic("news", config);
  broker.subscribe("news", proxy, config.options);
  proxy.attach_to_link(link);
  core::LastHopSession session(proxy, channel);
  link.apply_schedule(trace.outages);

  storage::MemBackend backend;
  storage::ProxyPersistence persistence(sim, backend,
                                        {.snapshot_interval = 64});
  if (journal) persistence.attach(proxy);

  pubsub::Publisher publisher(broker, "p");
  for (const workload::Arrival& arrival : trace.arrivals) {
    sim.schedule_at(arrival.time, [&publisher, arrival] {
      publisher.publish("news", arrival.rank, arrival.lifetime);
    });
  }
  std::vector<std::uint64_t> ids;
  for (SimTime at : trace.reads) {
    sim.schedule_at(at, [&session, &ids] {
      for (const pubsub::NotificationPtr& event : session.user_read("news")) {
        ids.push_back(event->id.value);
      }
    });
  }
  sim.run_until(scenario.horizon);

  if (journal) {
    EXPECT_GT(persistence.record_count(), 100u);
    EXPECT_GT(persistence.stats().snapshots, 0u);
  }
  return ids;
}

// Filed with the crash/recovery suite (tests/storage/recovery_test.cpp),
// whose name it keeps: it is that suite's no-fault control.
TEST(RecoveryRunner, PersistenceIsBehaviorNeutralWithoutFaults) {
  // Journaling every mutation and snapshotting must not perturb the run:
  // the same trace reads the exact same notifications in the same order.
  const std::vector<std::uint64_t> plain = replay_read_ids(false);
  const std::vector<std::uint64_t> journaled = replay_read_ids(true);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, journaled);
}

}  // namespace
}  // namespace waif
