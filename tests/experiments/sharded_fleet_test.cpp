#include "experiments/sharded_fleet.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "experiments/parallel_runner.h"

namespace waif::experiments {
namespace {

FleetConfig small_fleet() {
  FleetConfig config;
  config.shards = 4;
  config.population.devices = 2000;
  config.population.topics = 128;
  config.population.zipf_s = 1.1;
  config.publishes = 2048;
  config.horizon = kDay;
  config.publish_block = 256;  // several pump blocks even at this size
  config.seed = 1;
  return config;
}

TEST(ShardedFleetTest, OutcomeIsIdenticalAcrossWorkerCounts) {
  const ShardedFleet fleet(small_fleet());
  ParallelRunner sequential(1);
  ParallelRunner parallel(4);
  const FleetOutcome a = fleet.run(sequential);
  const FleetOutcome b = fleet.run(parallel);

  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.overflow_drops, b.overflow_drops);
  EXPECT_EQ(a.wal_records, b.wal_records);
  EXPECT_EQ(a.events_fired, b.events_fired);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].deliveries, b.shards[s].deliveries);
    EXPECT_EQ(a.shards[s].wal_records, b.shards[s].wal_records);
    EXPECT_EQ(a.shards[s].events_fired, b.shards[s].events_fired);
  }
}

TEST(ShardedFleetTest, RerunOfTheSameFleetIsIdempotent) {
  // run() owns all mutable per-shard state, so a second replay of the same
  // fleet object must reproduce the first bit for bit.
  const ShardedFleet fleet(small_fleet());
  ParallelRunner runner(2);
  const FleetOutcome a = fleet.run(runner);
  const FleetOutcome b = fleet.run(runner);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(ShardedFleetTest, EveryDeliveryIsAccountedFor) {
  // Conservation: each publish touches exactly the topic's subscribers, and
  // every touch either lands in a device queue or is counted as an overflow
  // drop. No per-device sends happen outside the batched walk.
  const FleetConfig config = small_fleet();
  const ShardedFleet fleet(config);
  ParallelRunner runner(2);
  const FleetOutcome outcome = fleet.run(runner);

  std::uint64_t expected_touches = 0;
  for (const PublishEvent& publish : fleet.publishes()) {
    expected_touches +=
        fleet.population().topic_subscriber_count(publish.topic);
  }
  EXPECT_EQ(outcome.deliveries + outcome.overflow_drops, expected_touches);
  EXPECT_GT(outcome.deliveries, 0u);

  std::uint64_t devices = 0;
  std::uint64_t drained = 0;
  for (const ShardOutcome& shard : outcome.shards) {
    devices += shard.devices;
    drained += shard.drained;
    // Lazy drain can only consume messages that were actually queued.
    EXPECT_LE(shard.drained, shard.deliveries);
  }
  EXPECT_EQ(devices, config.population.devices);
  EXPECT_LE(drained, outcome.deliveries);
}

TEST(ShardedFleetTest, EveryShardReportsAHealthSnapshot) {
  // The fixed fleet surfaces the same per-shard health signals the elastic
  // fleet feeds its controller, sampled once at the horizon.
  const FleetConfig config = small_fleet();
  const ShardedFleet fleet(config);
  ParallelRunner runner(2);
  const FleetOutcome outcome = fleet.run(runner);

  std::uint64_t deliveries = 0;
  for (std::size_t s = 0; s < outcome.shards.size(); ++s) {
    const ShardOutcome& shard = outcome.shards[s];
    EXPECT_EQ(shard.health.shard, s);
    EXPECT_EQ(shard.health.at, config.horizon);
    EXPECT_EQ(shard.health.wal_records, shard.wal_records);
    EXPECT_EQ(shard.health.topics_owned, shard.topics_managed);
    EXPECT_EQ(shard.health.deliveries, shard.deliveries);
    // No capacity budget is armed on the fixed fleet: occupancy reads 0
    // and nothing was shed or rejected.
    EXPECT_DOUBLE_EQ(shard.health.occupancy(), 0.0);
    EXPECT_EQ(shard.health.admission_rejects, 0u);
    deliveries += shard.health.deliveries;
  }
  EXPECT_EQ(deliveries, outcome.deliveries);
}

TEST(ShardedFleetTest, EveryForwardIsJournaledWriteAhead) {
  const ShardedFleet fleet(small_fleet());
  ParallelRunner runner(1);
  const FleetOutcome outcome = fleet.run(runner);
  EXPECT_GT(outcome.wal_records, 0u);
  for (const ShardOutcome& shard : outcome.shards) {
    // One WAL record per staged batch (= per forward): the shard journals
    // the forward before the channel applies it.
    EXPECT_EQ(shard.wal_records, shard.batches);
    EXPECT_LE(shard.batches, shard.publishes_routed);
    // The post-run fsck lineage agrees with the live counters: every
    // journaled record is durable and the backend holds no torn tails.
    EXPECT_TRUE(shard.lineage.clean);
    EXPECT_EQ(shard.lineage.wal_records, shard.wal_records);
  }
}

TEST(ShardedFleetTest, JournalingCanBeDisabled) {
  FleetConfig config = small_fleet();
  config.journal_forwards = false;
  const ShardedFleet with_journal(small_fleet());
  const ShardedFleet without_journal(config);
  ParallelRunner runner(1);
  const FleetOutcome on = with_journal.run(runner);
  const FleetOutcome off = without_journal.run(runner);
  EXPECT_EQ(off.wal_records, 0u);
  // The WAL is an observer: delivery results do not depend on it.
  EXPECT_EQ(on.deliveries, off.deliveries);
  EXPECT_EQ(on.overflow_drops, off.overflow_drops);
}

TEST(ShardedFleetTest, PublishTraceIsSortedAndSequenced) {
  const ShardedFleet fleet(small_fleet());
  const auto& publishes = fleet.publishes();
  ASSERT_EQ(publishes.size(), small_fleet().publishes);
  for (std::size_t i = 1; i < publishes.size(); ++i) {
    EXPECT_GE(publishes[i].time, publishes[i - 1].time);
    EXPECT_EQ(publishes[i].seq, i);
  }
}

TEST(ShardedFleetTest, ShardCountOneIsTheUnshardedProxy) {
  FleetConfig config = small_fleet();
  config.shards = 1;
  const ShardedFleet fleet(config);
  ParallelRunner runner(1);
  const FleetOutcome outcome = fleet.run(runner);
  ASSERT_EQ(outcome.shards.size(), 1u);
  // A single shard routes every publish exactly once.
  EXPECT_EQ(outcome.shards[0].publishes_routed, config.publishes);
  EXPECT_EQ(outcome.device_imbalance, 1.0);
}

// Every other fleet test compares two runs of one build. This one pins the
// outcome to the values of the settle-then-enqueue loop DrainQueueTest keeps
// as its reference, so a fan-out kernel that is wrong but deterministic
// fails. A drain slower than the arrivals keeps all three counters busy.
TEST(ShardedFleetTest, DigestIsPinned) {
  FleetConfig config = small_fleet();
  config.device_queue_cap = 8;
  config.drain_period = kHour;
  config.drain_batch = 4;
  ParallelRunner runner(2);
  const FleetOutcome outcome = ShardedFleet(config).run(runner);
  std::uint64_t drained = 0;
  for (const ShardOutcome& shard : outcome.shards) drained += shard.drained;
  EXPECT_EQ(outcome.deliveries, 184913u);
  EXPECT_EQ(outcome.overflow_drops, 78359u);
  EXPECT_EQ(drained, 171145u);
  EXPECT_EQ(outcome.digest, 10428946405731891455u);
}

TEST(FleetTopicIndexTest, RoundTripsEveryCanonicalName) {
  for (std::uint32_t topic = 0; topic < 1024; ++topic) {
    EXPECT_EQ(fleet_topic_index(fleet_topic_name(topic), 1024), topic);
  }
}

TEST(FleetTopicIndexDeathTest, RejectsEveryOtherName) {
  EXPECT_DEATH(fleet_topic_index("x1", 1024), "WAIF_CHECK failed");
  EXPECT_DEATH(fleet_topic_index("t", 1024), "WAIF_CHECK failed");
  EXPECT_DEATH(fleet_topic_index("t1x", 1024), "WAIF_CHECK failed");
  EXPECT_DEATH(fleet_topic_index("t01", 1024), "WAIF_CHECK failed");
  EXPECT_DEATH(fleet_topic_index("t1024", 1024), "WAIF_CHECK failed");
}

}  // namespace
}  // namespace waif::experiments
