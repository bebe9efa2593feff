// The reliable delivery layer over a faulty last hop: ACKs, capped
// exponential backoff, the in-flight window, device-side dedup, and graceful
// degradation through the failure handler.
#include "core/reliable_channel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.h"
#include "device/device.h"
#include "net/fault.h"
#include "net/link.h"
#include "pubsub/notification.h"
#include "sim/simulator.h"

namespace waif::core {
namespace {

pubsub::NotificationPtr make(std::uint64_t id, double rank = 3.0,
                             SimTime published = 0, SimTime expires = kNever) {
  auto n = std::make_shared<pubsub::Notification>();
  n->id = NotificationId{id};
  n->topic = "t";
  n->rank = rank;
  n->published_at = published;
  n->expires_at = expires;
  return n;
}

/// Deterministic config: no retry jitter, so every timer instant is exact.
ReliableChannelConfig exact_config() {
  ReliableChannelConfig config;
  config.jitter = 0.0;
  return config;
}

class ReliableChannelTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  net::Link link{sim};
  device::Device device{sim, DeviceId{1}};
};

TEST_F(ReliableChannelTest, DeliversAndAcksOnHealthyLink) {
  ReliableDeviceChannel channel(sim, link, device, exact_config());
  std::vector<std::uint64_t> observed;
  channel.set_delivery_observer(
      [&observed](const pubsub::NotificationPtr& n) {
        observed.push_back(n->id.value);
      });
  for (std::uint64_t id = 1; id <= 3; ++id) {
    EXPECT_TRUE(channel.deliver(make(id)));
  }
  sim.run();

  const ReliableChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.transmissions, 3u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_EQ(stats.acks_sent, 3u);
  EXPECT_EQ(stats.acked, 3u);
  EXPECT_EQ(channel.in_flight(), 0u);
  EXPECT_EQ(channel.backlog(), 0u);
  EXPECT_EQ(device.stats().received, 3u);
  EXPECT_EQ(observed, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(ReliableChannelTest, LostAcksRetryAndDedupAbsorbsTheCopies) {
  // Every ACK vanishes on the uplink: the device keeps receiving copies the
  // dedup window must absorb, and the sender eventually gives up and hands
  // the event to the failure handler even though the device holds it.
  net::FaultConfig fault;
  fault.uplink_drop_probability = 1.0;
  link.set_fault_model(fault, 7);
  ReliableChannelConfig config = exact_config();
  config.max_attempts = 3;
  ReliableDeviceChannel channel(sim, link, device, config);
  std::vector<std::uint64_t> requeued;
  channel.set_failure_handler(
      [&requeued](const pubsub::NotificationPtr& n) {
        requeued.push_back(n->id.value);
      });
  channel.deliver(make(42));
  sim.run();

  const ReliableChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.transmissions, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.duplicates_suppressed, 2u);
  EXPECT_EQ(stats.acks_sent, 3u);  // re-ACKed on every duplicate
  EXPECT_EQ(stats.ack_losses, 3u);
  EXPECT_EQ(stats.acked, 0u);
  EXPECT_EQ(stats.attempts_exhausted, 1u);
  EXPECT_EQ(stats.requeued, 1u);
  EXPECT_EQ(requeued, (std::vector<std::uint64_t>{42}));
  // The dedup window kept the device clean: one receive, no duplicates.
  EXPECT_EQ(device.stats().received, 1u);
  EXPECT_EQ(device.stats().duplicate_receives, 0u);
}

TEST_F(ReliableChannelTest, OutageParksTransfersUntilRecovery) {
  ReliableDeviceChannel channel(sim, link, device, exact_config());
  std::vector<std::uint64_t> observed;
  channel.set_delivery_observer(
      [&observed](const pubsub::NotificationPtr& n) {
        observed.push_back(n->id.value);
      });
  link.set_state(net::LinkState::kDown);
  for (std::uint64_t id = 1; id <= 3; ++id) channel.deliver(make(id));
  sim.run_until(kHour);
  // Nothing moved: no transmissions, no timers burning attempts.
  EXPECT_EQ(channel.stats().transmissions, 0u);
  EXPECT_EQ(channel.in_flight(), 3u);

  link.set_state(net::LinkState::kUp);
  sim.run();
  const ReliableChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.transmissions, 3u);
  EXPECT_EQ(stats.retries, 0u);  // deferral is not a retry
  EXPECT_EQ(stats.acked, 3u);
  // Recovery retransmits in sequence order.
  EXPECT_EQ(observed, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(ReliableChannelTest, HalfOpenDropIsRecoveredByTimeoutRetry) {
  // The link reports up but the downlink silently eats the first copy; only
  // the ACK timeout can discover this, and the retry lands once the
  // half-open window has closed.
  net::FaultConfig fault;
  fault.half_open_probability = 1.0;
  fault.mean_half_open = 10;  // microseconds: closes long before the retry
  link.set_fault_model(fault, 3);
  link.set_state(net::LinkState::kDown);
  link.set_state(net::LinkState::kUp);  // opens the half-open window
  ReliableDeviceChannel channel(sim, link, device, exact_config());
  channel.deliver(make(1));
  sim.run();

  const ReliableChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.transmissions, 2u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.link_drops, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.acked, 1u);
  const net::FaultModel* faults = link.fault_model();
  ASSERT_NE(faults, nullptr);
  EXPECT_EQ(faults->stats().half_open_drops, 1u);
}

TEST_F(ReliableChannelTest, BackoffDoublesAndIsCappedAtMaxBackoff) {
  // With every transmission dropped the attempt instants are fully
  // determined by the backoff schedule: 0, 30, 90, 210, 450, 930s, with the
  // sixth timeout capped at max_backoff (600s < 960s), so the transfer is
  // abandoned at exactly 1530s.
  net::FaultConfig fault;
  fault.drop_probability = 1.0;
  link.set_fault_model(fault, 11);
  ReliableChannelConfig config = exact_config();  // 30s start, x2, 10min cap
  ReliableDeviceChannel channel(sim, link, device, config);
  SimTime abandoned_at = kNever;
  channel.set_failure_handler(
      [&abandoned_at, this](const pubsub::NotificationPtr&) {
        abandoned_at = sim.now();
      });
  channel.deliver(make(1));
  sim.run();

  const ReliableChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.transmissions, 6u);
  EXPECT_EQ(stats.link_drops, 6u);
  EXPECT_EQ(stats.attempts_exhausted, 1u);
  EXPECT_EQ(abandoned_at, 1530 * kSecond);
  EXPECT_EQ(device.stats().received, 0u);
}

TEST_F(ReliableChannelTest, ExpiredTransferIsAbandonedSilently) {
  ReliableDeviceChannel channel(sim, link, device, exact_config());
  int handler_calls = 0;
  channel.set_failure_handler(
      [&handler_calls](const pubsub::NotificationPtr&) { ++handler_calls; });
  link.set_state(net::LinkState::kDown);
  channel.deliver(make(1, 3.0, 0, /*expires=*/kMinute));
  sim.schedule_at(2 * kMinute,
                  [this] { link.set_state(net::LinkState::kUp); });
  sim.run();

  const ReliableChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.transmissions, 0u);  // it died parked, never on the air
  EXPECT_EQ(stats.expired_abandoned, 1u);
  EXPECT_EQ(stats.requeued, 0u);
  EXPECT_EQ(handler_calls, 0);  // nothing left to save
  EXPECT_EQ(device.stats().received, 0u);
  EXPECT_EQ(channel.in_flight(), 0u);
}

TEST_F(ReliableChannelTest, WindowBoundsInFlightAndBacklogDrains) {
  ReliableChannelConfig config = exact_config();
  config.window = 2;
  ReliableDeviceChannel channel(sim, link, device, config);
  link.set_state(net::LinkState::kDown);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_TRUE(channel.deliver(make(id)));
  }
  EXPECT_EQ(channel.in_flight(), 2u);
  EXPECT_EQ(channel.backlog(), 3u);

  link.set_state(net::LinkState::kUp);
  sim.run();
  const ReliableChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.delivered, 5u);
  EXPECT_EQ(stats.acked, 5u);
  EXPECT_EQ(channel.in_flight(), 0u);
  EXPECT_EQ(channel.backlog(), 0u);
  EXPECT_EQ(device.stats().received, 5u);
}

TEST_F(ReliableChannelTest, FrameLostToOutageIsRetransmitted) {
  // The frame is in the air when the link dies: it is lost, the timeout
  // parks the transfer, and recovery retransmits it.
  net::FaultConfig fault;
  fault.base_latency = kSecond;  // give the outage something to interrupt
  link.set_fault_model(fault, 5);
  ReliableDeviceChannel channel(sim, link, device, exact_config());
  channel.deliver(make(1));
  sim.schedule_at(kSecond / 2,
                  [this] { link.set_state(net::LinkState::kDown); });
  sim.schedule_at(kMinute, [this] { link.set_state(net::LinkState::kUp); });
  sim.run();

  const ReliableChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.outage_losses, 1u);  // the frame died mid-air
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.duplicates_suppressed, 0u);
  EXPECT_EQ(stats.acked, 1u);
  EXPECT_EQ(device.stats().received, 1u);
}

TEST_F(ReliableChannelTest, AckLostToOutageIsRetriedWithoutDuplicateDelivery) {
  // The message lands, the ACK is in flight when the link dies: the sender
  // must retry after recovery and the dedup window must absorb the copy.
  net::FaultConfig fault;
  fault.base_latency = kSecond;  // give the outage something to interrupt
  link.set_fault_model(fault, 5);
  ReliableDeviceChannel channel(sim, link, device, exact_config());
  channel.deliver(make(1));
  // Arrival at 1s; the ACK then needs another second. Kill the link between.
  sim.schedule_at(kSecond + kMillisecond,
                  [this] { link.set_state(net::LinkState::kDown); });
  sim.schedule_at(kMinute, [this] { link.set_state(net::LinkState::kUp); });
  sim.run();

  const ReliableChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.ack_losses, 1u);  // the ACK died mid-air
  EXPECT_EQ(stats.duplicates_suppressed, 1u);
  EXPECT_EQ(stats.acked, 1u);  // the retry's ACK completed the transfer
  EXPECT_EQ(device.stats().received, 1u);
  EXPECT_EQ(device.stats().duplicate_receives, 0u);
}

TEST(ReliableChannelDeathTest, RejectsInvalidConfig) {
  sim::Simulator sim;
  net::Link link(sim);
  device::Device device(sim, DeviceId{1});
  ReliableChannelConfig bad;
  bad.ack_timeout = 0;
  EXPECT_DEATH(ReliableDeviceChannel(sim, link, device, bad),
               "WAIF_CHECK failed");
}

}  // namespace
}  // namespace waif::core
