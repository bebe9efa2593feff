// The slow-device circuit breaker in ReliableDeviceChannel (trip on
// consecutive exhausted transfers, cooldown, half-open probes, reclose on
// ACK), the bounded-backlog backpressure, the capped exponential backoff at
// extreme attempt counts, and the DeviceGroup degraded-peer skip.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.h"
#include "core/channel.h"
#include "core/device_group.h"
#include "core/proxy.h"
#include "core/reliable_channel.h"
#include "device/device.h"
#include "net/fault.h"
#include "net/link.h"
#include "pubsub/broker.h"
#include "pubsub/notification.h"
#include "pubsub/publisher.h"
#include "sim/simulator.h"

namespace waif::core {
namespace {

using pubsub::Notification;
using pubsub::NotificationPtr;

NotificationPtr make(std::uint64_t id, double rank = 3.0,
                     SimTime expires = kNever) {
  auto n = std::make_shared<Notification>();
  n->id = NotificationId{id};
  n->topic = "t";
  n->rank = rank;
  n->published_at = 0;
  n->expires_at = expires;
  return n;
}

/// No jitter: every timer instant is exact and the test arithmetic holds.
ReliableChannelConfig exact_config() {
  ReliableChannelConfig config;
  config.jitter = 0.0;
  return config;
}

/// Starves the channel of ACKs: the device receives and re-ACKs every copy,
/// but no ACK ever crosses the uplink — the signature of a stalled device.
void starve_acks(net::Link& link, std::uint64_t seed = 7) {
  net::FaultConfig fault;
  fault.uplink_drop_probability = 1.0;
  link.set_fault_model(fault, seed);
}

class BreakerTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  net::Link link{sim};
  device::Device device{sim, DeviceId{1}};
};

// ------------------------------------------------------- backoff regression

TEST_F(BreakerTest, BackoffStaysCappedThroughHighAttemptCounts) {
  // With 80 attempts the uncapped exponent (2^79 * 30 s) overflows SimTime;
  // the clamp must keep every retry at max_backoff instead.
  starve_acks(link);
  ReliableChannelConfig config = exact_config();
  config.ack_timeout = 30 * kSecond;
  config.backoff_factor = 2.0;
  config.max_backoff = 10 * kMinute;
  config.max_attempts = 80;
  ReliableDeviceChannel channel(sim, link, device, config);
  std::vector<std::uint64_t> abandoned;
  channel.set_failure_handler([&abandoned](const NotificationPtr& event) {
    abandoned.push_back(event->id.value);
  });
  channel.deliver(make(1));
  sim.run();

  const ReliableChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.transmissions, 80u);
  EXPECT_EQ(stats.attempts_exhausted, 1u);
  EXPECT_EQ(stats.requeued, 1u);
  EXPECT_EQ(abandoned, (std::vector<std::uint64_t>{1}));
  // Every interval was at most the cap (and the run terminated at all).
  EXPECT_LE(sim.now(), 80 * config.max_backoff);
  EXPECT_GT(sim.now(), 0);
}

TEST_F(BreakerTest, BackoffSurvivesAstronomicalFactor) {
  // backoff_factor so large the very first multiply leaves any integer
  // range: the old float-to-int conversion was undefined behaviour, the
  // clamp-in-double fix must pin every stage to max_backoff.
  starve_acks(link);
  ReliableChannelConfig config = exact_config();
  config.ack_timeout = 30 * kSecond;
  config.backoff_factor = 1e30;
  config.max_backoff = 10 * kMinute;
  config.max_attempts = 70;
  ReliableDeviceChannel channel(sim, link, device, config);
  channel.deliver(make(1));
  sim.run();

  EXPECT_EQ(channel.stats().transmissions, 70u);
  EXPECT_EQ(channel.stats().attempts_exhausted, 1u);
  // First timeout 30 s, every later one capped: the exhaustion instant is
  // exactly ack_timeout + 69 * max_backoff.
  EXPECT_EQ(sim.now(), config.ack_timeout + 69 * config.max_backoff);
}

// ----------------------------------------------------- breaker state machine

ReliableChannelConfig breaker_config() {
  ReliableChannelConfig config = exact_config();
  config.ack_timeout = 30 * kSecond;
  config.max_attempts = 2;
  config.breaker_failure_threshold = 2;
  config.breaker_cooldown = 5 * kMinute;
  config.breaker_half_open_probes = 1;
  return config;
}

TEST_F(BreakerTest, TripsAfterConsecutiveExhaustionsIntoHoldOnly) {
  starve_acks(link);
  ReliableDeviceChannel channel(sim, link, device, breaker_config());
  ASSERT_TRUE(channel.accepting());
  channel.deliver(make(1));
  channel.deliver(make(2));
  // Both transfers exhaust (30 s + 60 s); the second exhaustion reaches the
  // threshold and trips the breaker before the cooldown can elapse.
  sim.run_until(4 * kMinute);

  EXPECT_EQ(channel.stats().attempts_exhausted, 2u);
  EXPECT_EQ(channel.stats().breaker_trips, 1u);
  EXPECT_EQ(channel.breaker_state(), BreakerState::kOpen);
  EXPECT_FALSE(channel.accepting());
}

TEST_F(BreakerTest, CooldownProbesHalfOpenAndAckRecloses) {
  starve_acks(link);
  ReliableDeviceChannel channel(sim, link, device, breaker_config());
  std::vector<BreakerState> transitions;
  channel.set_breaker_observer(
      [&transitions](BreakerState state) { transitions.push_back(state); });
  channel.deliver(make(1));
  channel.deliver(make(2));
  sim.run_until(20 * kMinute);  // cooldown elapsed
  ASSERT_EQ(channel.breaker_state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(channel.accepting());  // exactly the configured probe budget

  // The device recovered: the probe's ACK comes through and recloses.
  link.set_fault_model(net::FaultConfig{}, /*seed=*/1);
  channel.deliver(make(3));
  sim.run();
  EXPECT_EQ(channel.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(channel.stats().breaker_probes, 1u);
  EXPECT_EQ(channel.stats().breaker_closes, 1u);
  EXPECT_EQ(channel.consecutive_failures(), 0u);
  EXPECT_TRUE(channel.accepting());
  EXPECT_EQ(transitions,
            (std::vector<BreakerState>{BreakerState::kOpen,
                                       BreakerState::kHalfOpen,
                                       BreakerState::kClosed}));
}

TEST_F(BreakerTest, FailedProbeRetripsForAnotherCooldown) {
  starve_acks(link);
  ReliableDeviceChannel channel(sim, link, device, breaker_config());
  channel.deliver(make(1));
  channel.deliver(make(2));
  sim.run_until(20 * kMinute);
  ASSERT_EQ(channel.breaker_state(), BreakerState::kHalfOpen);

  // Still starved: the probe exhausts (~90 s in) and re-opens the breaker
  // for another full cooldown. Observe before that second cooldown elapses.
  channel.deliver(make(3));
  sim.run_until(25 * kMinute);
  EXPECT_EQ(channel.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(channel.stats().breaker_trips, 2u);
  EXPECT_EQ(channel.stats().breaker_probes, 1u);
  EXPECT_FALSE(channel.accepting());
}

TEST_F(BreakerTest, DeliverNeverRefusesAcceptingIsTheOnlyGate) {
  // The contract: callers consult accepting(); deliver() always takes the
  // event (do_forward's bookkeeping must match what the channel took on).
  starve_acks(link);
  ReliableDeviceChannel channel(sim, link, device, breaker_config());
  channel.deliver(make(1));
  channel.deliver(make(2));
  sim.run_until(4 * kMinute);
  ASSERT_EQ(channel.breaker_state(), BreakerState::kOpen);
  EXPECT_TRUE(channel.deliver(make(3)));
  EXPECT_EQ(channel.stats().accepted, 3u);
}

TEST_F(BreakerTest, BoundedBacklogBackpressuresThroughAccepting) {
  ReliableChannelConfig config = exact_config();
  config.window = 1;
  config.max_backlog = 2;
  ReliableDeviceChannel channel(sim, link, device, config);
  link.set_state(net::LinkState::kDown);  // nothing drains

  channel.deliver(make(1));  // in flight
  EXPECT_TRUE(channel.accepting());
  channel.deliver(make(2));  // backlog 1
  EXPECT_TRUE(channel.accepting());
  channel.deliver(make(3));  // backlog 2 = max_backlog
  EXPECT_FALSE(channel.accepting());

  link.set_state(net::LinkState::kUp);
  sim.run();
  EXPECT_EQ(channel.stats().acked, 3u);
  EXPECT_EQ(channel.backlog(), 0u);
  EXPECT_TRUE(channel.accepting());
}

TEST_F(BreakerTest, CrashProxySideResetsTheBreaker) {
  // The breaker is transient connection state: a recovered proxy re-learns
  // a slow device from fresh evidence instead of inheriting a stale trip.
  starve_acks(link);
  ReliableDeviceChannel channel(sim, link, device, breaker_config());
  channel.deliver(make(1));
  channel.deliver(make(2));
  sim.run_until(4 * kMinute);
  ASSERT_EQ(channel.breaker_state(), BreakerState::kOpen);

  channel.crash_proxy_side();
  EXPECT_EQ(channel.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(channel.consecutive_failures(), 0u);
  EXPECT_TRUE(channel.accepting());
}

// ------------------------------------------------------- durable restore

TEST_F(BreakerTest, PlainRestoreStillIgnoresCarriedBreakerFields) {
  // The durable-image path: restore() takes the sequence counter and dedup
  // window, and the breaker starts closed — a warm-started proxy re-learns
  // a slow device from fresh evidence.
  ChannelSnapshot carried;
  carried.next_seq = 42;

  ReliableDeviceChannel channel(sim, link, device, breaker_config());
  channel.restore(carried);
  EXPECT_EQ(channel.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(channel.consecutive_failures(), 0u);
  EXPECT_TRUE(channel.accepting());
  EXPECT_EQ(channel.snapshot().next_seq, 42u);
}

TEST_F(BreakerTest, DisabledBreakerNeverTrips) {
  starve_acks(link);
  ReliableChannelConfig config = exact_config();
  config.ack_timeout = 30 * kSecond;
  config.max_attempts = 2;  // breaker_failure_threshold stays 0 = off
  ReliableDeviceChannel channel(sim, link, device, config);
  for (std::uint64_t id = 1; id <= 8; ++id) channel.deliver(make(id));
  sim.run();
  EXPECT_EQ(channel.stats().attempts_exhausted, 8u);
  EXPECT_EQ(channel.stats().breaker_trips, 0u);
  EXPECT_EQ(channel.breaker_state(), BreakerState::kClosed);
  EXPECT_TRUE(channel.accepting());
}

// ------------------------------------------------- degraded peers in groups

class DegradedPeerTest : public ::testing::Test {
 protected:
  void wire() {
    TopicConfig config;
    config.options.max = 4;
    config.options.threshold = 0.0;
    config.policy = PolicyConfig::buffer(8);
    phone_proxy.add_topic("news", config);
    laptop_proxy.add_topic("news", config);
    broker.subscribe("news", phone_proxy, config.options);
    broker.subscribe("news", laptop_proxy, config.options);
    phone_proxy.attach_to_link(phone_link);
    laptop_proxy.attach_to_link(laptop_link);
    group.add_member(phone_proxy, phone_channel);    // member 0
    group.add_member(laptop_proxy, laptop_channel);  // member 1
  }

  sim::Simulator sim;
  pubsub::Broker broker{sim};
  net::Link phone_link{sim};
  net::Link laptop_link{sim};
  device::Device phone{sim, DeviceId{1}};
  device::Device laptop{sim, DeviceId{2}};
  SimDeviceChannel phone_channel{phone_link, phone};
  SimDeviceChannel laptop_channel{laptop_link, laptop};
  Proxy phone_proxy{sim, phone_channel, "phone-proxy"};
  Proxy laptop_proxy{sim, laptop_channel, "laptop-proxy"};
  DeviceGroup group{sim};
  pubsub::Publisher publisher{broker, "p"};
};

TEST_F(DegradedPeerTest, GroupReadSkipsDegradedPeerUntilItRecovers) {
  wire();
  phone_link.set_state(net::LinkState::kDown);
  publisher.publish("news", 3.0);
  publisher.publish("news", 4.0);
  ASSERT_EQ(laptop.queue_size(), 2u);

  // The laptop's breaker tripped: its cache may be stale and its proxy is in
  // hold-only mode, so the group read must not lean on it.
  group.set_member_degraded(1, true);
  EXPECT_TRUE(group.member_degraded(1));
  auto read = group.user_read(0, "news");
  EXPECT_TRUE(read.empty());
  EXPECT_EQ(group.stats().peer_reads, 0u);
  EXPECT_GE(group.stats().degraded_peer_skips, 1u);
  EXPECT_EQ(laptop.queue_size(), 2u);  // untouched

  // Recovery (the breaker reclosed): cooperation resumes.
  group.set_member_degraded(1, false);
  read = group.user_read(0, "news");
  EXPECT_EQ(read.size(), 2u);
  EXPECT_EQ(group.stats().peer_reads, 2u);
}

}  // namespace
}  // namespace waif::core
