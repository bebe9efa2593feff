// The sharded proxy fleet: population-scale last-hop delivery.
//
// A ShardedFleet partitions a Population's devices across N proxy shards
// with the consistent-hashing ring (core/shard_ring.h). Each shard owns:
//   * its own sim::Simulator (one virtual clock per shard);
//   * one core::Proxy whose TopicStates run the paper's per-topic algorithm
//     once per shard instead of once per device;
//   * a FanoutChannel that applies each forwarded notification to the
//     shard's compact subscriber lists in one pass — the batched fan-out:
//     one staged batch per shard per publish, never a per-device send;
//   * its own WAL (storage::WalWriter over a MemBackend) journaling every
//     forward, so durability ownership is per-shard exactly like the real
//     fleet would shard its logs.
//
// Determinism contract (DESIGN.md §10): the publish trace and population
// are built once from the config seed; each shard's replay depends only on
// (trace, its own population slice, its own splitmix substream). Shards are
// fanned out over experiments::ParallelRunner, whose submission-order
// results make the outcome byte-identical at any --jobs value.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "core/health.h"
#include "core/shard_ring.h"
#include "experiments/parallel_runner.h"
#include "pubsub/notification.h"
#include "storage/fsck.h"
#include "workload/population.h"

namespace waif::experiments {

struct FleetConfig {
  std::size_t shards = 16;
  std::size_t vnodes = 64;
  workload::PopulationConfig population;

  /// Global publish trace: `publishes` events over `horizon`, topics drawn
  /// uniformly (the *subscription* side carries the Zipf skew), ranks
  /// uniform on [rank_lo, rank_hi].
  std::uint64_t publishes = 49152;
  SimTime horizon = kDay;
  double rank_lo = pubsub::kMinRank;
  double rank_hi = pubsub::kMaxRank;

  /// Per-device bounded queue: deliveries beyond the cap are dropped and
  /// counted (the device-storage overflow of Section 2.3, in compact form).
  std::uint32_t device_queue_cap = 64;
  /// Lazy drain standing in for user reads at population scale: every
  /// `drain_period` a device consumes up to `drain_batch` queued messages,
  /// settled lazily at the next delivery touching the device.
  SimDuration drain_period = 5 * kMinute;
  std::uint32_t drain_batch = 4;

  /// Journal every forward to the shard's WAL (write-ahead order, group
  /// commit flushed at publish-block boundaries).
  bool journal_forwards = true;
  /// Publishes scheduled into a shard's simulator per pump block; bounds
  /// pending-event memory without changing results.
  std::size_t publish_block = 4096;

  std::uint64_t seed = 1;
};

/// One event of the global publish trace (sorted by time, seq breaks ties).
struct PublishEvent {
  SimTime time = 0;
  std::uint32_t topic = 0;
  double rank = 0.0;
  std::uint64_t seq = 0;
};

struct ShardOutcome {
  std::uint64_t devices = 0;
  std::uint64_t subscriptions = 0;
  std::uint64_t topics_managed = 0;
  /// NOTIFICATION arrivals handled by this shard's proxy.
  std::uint64_t publishes_routed = 0;
  /// Channel deliver() calls — the staged per-shard batches.
  std::uint64_t batches = 0;
  /// Per-device deliveries applied by the fan-out walk.
  std::uint64_t deliveries = 0;
  std::uint64_t overflow_drops = 0;
  std::uint64_t drained = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t events_fired = 0;
  /// Durable WAL + snapshot lineage of this shard's backend after the run —
  /// what migration tests and waif_fsck-style checks assert (clean tail,
  /// record count matching the writer) without reaching into internals.
  /// Scanned after the final sync; never part of the digest (wal_records
  /// above already covers the deterministic content).
  storage::WalLineage lineage;
  /// End-of-run health snapshot (core/health.h): the same per-shard signal
  /// surface the elastic fleet feeds its controller at every checkpoint,
  /// sampled here once at the horizon so fixed-fleet harnesses and tests
  /// can assert on it without an autoscaler in the loop.
  core::HealthSnapshot health;
};

struct FleetOutcome {
  std::vector<ShardOutcome> shards;

  // Aggregates over the shards, reduced in shard order.
  std::uint64_t publishes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t overflow_drops = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t events_fired = 0;
  /// max/mean devices (respectively deliveries) per shard; 1.0 = even.
  double device_imbalance = 0.0;
  double delivery_imbalance = 0.0;
  /// Max current-RSS sample observed right after each shard finished (0 when
  /// /proc is unavailable). Reporting only — never part of the digest.
  std::uint64_t peak_rss_bytes = 0;

  /// Canonical fingerprint of every deterministic field above.
  std::uint64_t digest = 0;
};

/// The canonical topic name of topic index t ("t0", "t1", ...).
std::string fleet_topic_name(std::uint32_t topic);

/// The index k of the canonical topic name "t<k>". Aborts unless `name` is
/// fleet_topic_name(k) for some k < `topics`.
std::uint32_t fleet_topic_index(std::string_view name, std::uint32_t topics);

/// Draws the global publish trace for `config` — pure function of the seed.
std::vector<PublishEvent> draw_publishes(const FleetConfig& config);

class ShardedFleet {
 public:
  /// Builds the ring, the population and the publish trace. The heavyweight
  /// per-shard machinery (proxy, WAL, device queue state) lives only inside
  /// run(), so a fleet object between runs holds just the population.
  explicit ShardedFleet(const FleetConfig& config);

  const FleetConfig& config() const { return config_; }
  const core::ShardRing& ring() const { return ring_; }
  const workload::Population& population() const { return population_; }
  const std::vector<PublishEvent>& publishes() const { return publishes_; }

  /// Replays the whole trace across every shard on `runner`'s pool.
  /// Byte-identical outcome at any worker count.
  FleetOutcome run(ParallelRunner& runner) const;

 private:
  FleetConfig config_;
  core::ShardRing ring_;
  workload::Population population_;
  std::vector<PublishEvent> publishes_;
  /// One immutable notification per publish, shared read-only by shards.
  std::vector<pubsub::NotificationPtr> notifications_;
};

}  // namespace waif::experiments
