// ProxyPersistence wired into the replication layer: the journal follows
// the active replica across a failover (on_promoted re-bases the log with a
// checkpoint of the promoted proxy) and across an in-place restart of the
// active, and restart_replica warm-starts the rebuilt replica from the
// durable state instead of cold.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/time.h"
#include "core/replication.h"
#include "pubsub/broker.h"
#include "pubsub/publisher.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/persistence.h"
#include "storage/snapshot.h"

namespace waif::storage {
namespace {

constexpr char kTopic[] = "replicated/topic";

core::TopicConfig topic_config() {
  core::TopicConfig config;
  config.options.max = 8;
  config.policy = core::PolicyConfig::buffer(16);
  return config;
}

/// The recovered image of the one topic.
std::vector<std::uint8_t> recovered(const RecoveryResult& recovery) {
  EXPECT_EQ(recovery.state.topics.size(), 1u);
  const std::span<const std::uint8_t> image = recovery.state.image(kTopic);
  return {image.begin(), image.end()};
}

TEST(ReplicatedRecovery, JournalFollowsFailoverAndWarmStartsReplicas) {
  sim::Simulator sim;
  pubsub::Broker broker(sim, 4096);
  net::Link link(sim);
  device::Device device(sim, DeviceId{1});

  core::ReplicationConfig replication;
  replication.replication_latency = 50 * kMillisecond;
  replication.heartbeat_interval = 30 * kSecond;
  replication.suspicion_timeout = 5 * kMinute;
  core::ReplicatedProxy proxy(sim, link, device, replication);
  proxy.add_topic(kTopic, topic_config());
  broker.subscribe(kTopic, proxy, topic_config().options);

  MemBackend backend;
  ProxyPersistence persistence(sim, backend, {});
  proxy.set_recovery(&persistence);
  persistence.attach(proxy.active_proxy());

  pubsub::Publisher publisher(broker, "workload");
  publisher.advertise(kTopic);
  for (int i = 0; i < 48; ++i) {
    sim.schedule_at(i * kHour + 7 * kMinute, [&publisher, i] {
      publisher.publish(kTopic, 1.0 + (i % 4), kNever);
    });
  }
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at((10 + 10 * i) * kHour, [&proxy] { proxy.user_read(kTopic); });
  }
  // Kill the active replica mid-run; the failure detector must promote the
  // standby, and on_promoted must re-attach the journal to it.
  sim.schedule_at(20 * kHour, [&proxy] { proxy.crash_active(); });

  sim.run_until(30 * kHour);
  ASSERT_EQ(proxy.stats().auto_promotions, 1u);
  const std::uint64_t records_at_30h = persistence.record_count();
  EXPECT_GT(records_at_30h, 0u);
  // The promotion checkpointed the new active's state.
  EXPECT_GT(persistence.stats().snapshots, 0u);

  sim.run_until(36 * kHour);
  // Journaling continued against the promoted proxy.
  EXPECT_GT(persistence.record_count(), records_at_30h);

  // At a quiescent instant the durable image equals the live active state:
  // WAL replay reproduces TopicState transition for transition.
  std::map<std::string, core::TopicConfig> configs;
  configs.emplace(kTopic, topic_config());
  {
    // Make the unsynced tail durable first (sync_interval is 1, but the
    // sync-on-forward path is what usually did it; snapshot_now syncs too).
    ASSERT_TRUE(persistence.snapshot_now());
    const RecoveryResult recovery =
        ProxyPersistence::recover(backend, configs);
    EXPECT_EQ(recovered(recovery),
              topic_image(*proxy.active_proxy().topic(kTopic)));
  }

  // Bring the crashed replica back: with set_recovery wired it warm-starts
  // from the durable image and matches the active replica immediately,
  // instead of rejoining empty.
  std::size_t dead = 2;
  for (std::size_t index = 0; index < 2; ++index) {
    if (!proxy.replica_alive(index)) dead = index;
  }
  ASSERT_LT(dead, 2u);
  proxy.restart_replica(dead);
  ASSERT_TRUE(proxy.replica_alive(dead));
  EXPECT_EQ(proxy.stats().restarts, 1u);

  EXPECT_EQ(topic_image(*proxy.standby_proxy().topic(kTopic)),
            topic_image(*proxy.active_proxy().topic(kTopic)));

  // And the run keeps going on the rebuilt pair.
  sim.schedule_at(37 * kHour, [&proxy] { proxy.user_read(kTopic); });
  sim.run_until(40 * kHour);
  EXPECT_TRUE(proxy.active_is_alive());
}

TEST(ReplicatedRecovery, InPlaceRestartMovesTheJournalToTheFreshActive) {
  // A crashed active restarted before the detector fires replaces the very
  // proxy the journal is attached to. The journal must follow the fresh
  // active (and never touch the destroyed one again, teardown included).
  sim::Simulator sim;
  pubsub::Broker broker(sim, 4096);
  net::Link link(sim);
  device::Device device(sim, DeviceId{1});

  core::ReplicationConfig replication;
  replication.replication_latency = 50 * kMillisecond;
  replication.heartbeat_interval = 30 * kSecond;
  replication.suspicion_timeout = 5 * kMinute;
  core::ReplicatedProxy proxy(sim, link, device, replication);
  proxy.add_topic(kTopic, topic_config());
  broker.subscribe(kTopic, proxy, topic_config().options);

  MemBackend backend;
  ProxyPersistence persistence(sim, backend, {});
  proxy.set_recovery(&persistence);
  persistence.attach(proxy.active_proxy());

  pubsub::Publisher publisher(broker, "workload");
  publisher.advertise(kTopic);
  for (int i = 0; i < 20; ++i) {
    sim.schedule_at(i * kHour + 7 * kMinute, [&publisher, i] {
      publisher.publish(kTopic, 1.0 + (i % 4), kNever);
    });
  }
  sim.schedule_at(5 * kHour, [&proxy] { proxy.user_read(kTopic); });

  sim.run_until(10 * kHour);
  proxy.crash_active();
  sim.run_until(10 * kHour + 2 * kMinute);
  ASSERT_TRUE(proxy.primary_is_active());  // the detector has not fired
  proxy.restart_replica(0);
  const std::uint64_t records_at_restart = persistence.record_count();

  sim.run_until(20 * kHour);
  EXPECT_EQ(proxy.stats().failovers, 0u);
  EXPECT_EQ(proxy.stats().restarts, 1u);
  EXPECT_TRUE(proxy.primary_is_active());
  // The restarted active forwards the later arrivals, and journals them.
  EXPECT_GT(persistence.record_count(), records_at_restart);

  std::map<std::string, core::TopicConfig> configs;
  configs.emplace(kTopic, topic_config());
  ASSERT_TRUE(persistence.snapshot_now());
  const RecoveryResult recovery = ProxyPersistence::recover(backend, configs);
  EXPECT_EQ(recovered(recovery),
            topic_image(*proxy.active_proxy().topic(kTopic)));
}

}  // namespace
}  // namespace waif::storage
