#include "experiments/sharded_fleet.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/check.h"
#include "common/distributions.h"
#include "common/resource.h"
#include "common/rng.h"
#include "core/channel.h"
#include "core/forwarding_policy.h"
#include "core/journal.h"
#include "core/proxy.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/fsck.h"
#include "storage/wal.h"

namespace waif::experiments {

namespace {

/// Per-device mutable state, 8 bytes: the bounded queue depth plus the
/// drain-period bucket of the last lazy settlement.
struct CompactDevice {
  std::uint32_t queued = 0;
  std::uint32_t drain_bucket = 0;
};

/// The per-shard batch applier: one deliver() per (publish, shard) walks the
/// shard-local subscriber slots of the topic — the fan-out batching that
/// replaces per-device sends.
class FanoutChannel final : public core::DeviceChannel {
 public:
  FanoutChannel(sim::Simulator& sim, const workload::ShardPopulation& pop,
                const FleetConfig& config)
      : sim_(sim), pop_(pop), config_(config) {
    devices_.resize(pop.device_count());
    topic_ids_.reserve(pop.topic_subscribers.size());
    for (std::uint32_t t = 0;
         t < static_cast<std::uint32_t>(pop.topic_subscribers.size()); ++t) {
      if (!pop.topic_subscribers[t].empty())
        topic_ids_.emplace(fleet_topic_name(t), t);
    }
  }

  bool link_up() const override { return true; }

  bool deliver(const pubsub::NotificationPtr& notification) override {
    const auto it = topic_ids_.find(notification->topic);
    WAIF_CHECK(it != topic_ids_.end());
    const auto bucket = static_cast<std::uint32_t>(
        sim_.now() / std::max<SimDuration>(config_.drain_period, 1));
    ++batches_;
    for (const std::uint32_t slot : pop_.topic_subscribers[it->second]) {
      CompactDevice& device = devices_[slot];
      if (device.drain_bucket != bucket) {
        const std::uint64_t can_drain =
            static_cast<std::uint64_t>(bucket - device.drain_bucket) *
            config_.drain_batch;
        const std::uint32_t drained = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(device.queued, can_drain));
        device.queued -= drained;
        drained_ += drained;
        device.drain_bucket = bucket;
      }
      if (device.queued >= config_.device_queue_cap) {
        ++overflow_drops_;
      } else {
        ++device.queued;
        ++deliveries_;
      }
    }
    return true;
  }

  std::uint64_t batches() const { return batches_; }
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t overflow_drops() const { return overflow_drops_; }
  std::uint64_t drained() const { return drained_; }

 private:
  sim::Simulator& sim_;
  const workload::ShardPopulation& pop_;
  const FleetConfig& config_;
  std::vector<CompactDevice> devices_;
  std::unordered_map<std::string, std::uint32_t> topic_ids_;
  std::uint64_t batches_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t overflow_drops_ = 0;
  std::uint64_t drained_ = 0;
};

/// Journals every forward into the shard's own WAL, in write-ahead order
/// (the record is staged before deliver() runs; block boundaries flush).
class ForwardJournal final : public core::ProxyJournal {
 public:
  explicit ForwardJournal(storage::WalWriter& wal) : wal_(wal) {
    record_.type = storage::WalRecordType::kForward;
  }

  bool on_forward(const std::string& topic,
                  const pubsub::NotificationPtr& event, SimTime at,
                  double rate_credit, bool replicated) override {
    // Assigned into the kept capacity of one reused record.
    record_.topic = topic;
    record_.at = at;
    record_.event = *event;
    record_.rate_credit = rate_credit;
    record_.replicated = replicated;
    wal_.append(record_);
    return true;
  }

 private:
  storage::WalWriter& wal_;
  storage::WalRecord record_;
};

void fold(std::uint64_t& h, std::uint64_t v) {
  h = core::ShardRing::hash_u64(h ^ v);
}

}  // namespace

std::string fleet_topic_name(std::uint32_t topic) {
  return "t" + std::to_string(topic);
}

std::vector<PublishEvent> draw_publishes(const FleetConfig& config) {
  WAIF_CHECK(config.horizon > 0);
  // Publish times are N uniform order statistics over the horizon (a
  // Poisson process conditioned on its count); topics are uniform — the
  // population's subscription mix carries the Zipf skew, so the expected
  // fan-out of one publish is devices * mean_subs / topics.
  Rng rng = job_rng(config.seed, /*job_index=*/0x9B115Bull);
  Rng time_rng = rng.split();
  Rng topic_rng = rng.split();
  Rng rank_rng = rng.split();

  std::vector<PublishEvent> events(config.publishes);
  const UniformReal rank(config.rank_lo, config.rank_hi);
  for (std::uint64_t i = 0; i < config.publishes; ++i) {
    events[i].time = static_cast<SimTime>(
        time_rng.next_double() * static_cast<double>(config.horizon));
    events[i].topic = static_cast<std::uint32_t>(
        topic_rng.next_below(config.population.topics));
    events[i].rank = rank(rank_rng);
  }
  std::sort(events.begin(), events.end(),
            [](const PublishEvent& a, const PublishEvent& b) {
              return a.time < b.time;
            });
  for (std::uint64_t i = 0; i < events.size(); ++i) events[i].seq = i;
  return events;
}

ShardedFleet::ShardedFleet(const FleetConfig& config)
    : config_(config),
      ring_(config.shards, config.vnodes),
      population_(config.population, ring_),
      publishes_(draw_publishes(config)) {
  notifications_.reserve(publishes_.size());
  for (const PublishEvent& publish : publishes_) {
    auto notification = std::make_shared<pubsub::Notification>();
    notification->id = NotificationId{publish.seq + 1};
    notification->topic = fleet_topic_name(publish.topic);
    notification->publisher = PublisherId{1};
    notification->rank = publish.rank;
    notification->published_at = publish.time;
    notifications_.push_back(std::move(notification));
  }
}

FleetOutcome ShardedFleet::run(ParallelRunner& runner) const {
  std::atomic<std::uint64_t> rss_peak{0};

  const auto run_shard = [this, &rss_peak](std::size_t s) -> ShardOutcome {
    const workload::ShardPopulation& pop = population_.shard(s);

    sim::Simulator sim;
    FanoutChannel channel(sim, pop, config_);
    core::Proxy proxy(sim, channel, "shard" + std::to_string(s));

    core::TopicConfig topic_config;
    topic_config.mode = core::DeliveryMode::kOnLine;
    topic_config.policy = core::PolicyConfig::online();

    // The publishes this shard cares about: topics with local subscribers.
    std::uint64_t topics_managed = 0;
    for (std::uint32_t t = 0; t < config_.population.topics; ++t) {
      if (pop.topic_subscribers[t].empty()) continue;
      proxy.add_topic(fleet_topic_name(t), topic_config);
      ++topics_managed;
    }
    std::vector<std::uint32_t> relevant;
    relevant.reserve(publishes_.size());
    for (std::uint32_t i = 0; i < publishes_.size(); ++i) {
      if (!pop.topic_subscribers[publishes_[i].topic].empty())
        relevant.push_back(i);
    }

    storage::MemBackend backend;
    storage::WalWriter wal(backend, storage::kWalBlobName);
    wal.set_group_commit(true);
    ForwardJournal journal(wal);
    if (config_.journal_forwards) proxy.set_journal(&journal);

    // Pump the trace in blocks so pending-event memory stays bounded:
    // schedule `publish_block` arrivals, then a continuation at the last
    // arrival's instant (scheduled after it, so it fires after it).
    const std::size_t block = std::max<std::size_t>(config_.publish_block, 1);
    struct Pump {
      const ShardedFleet* fleet;
      core::Proxy* proxy;
      storage::WalWriter* wal;
      const std::vector<std::uint32_t>* relevant;
      sim::Simulator* sim;
      std::size_t block;

      void schedule_from(std::size_t begin) {
        const std::size_t end =
            std::min(begin + block, relevant->size());
        for (std::size_t j = begin; j < end; ++j) {
          const std::uint32_t index = (*relevant)[j];
          sim->schedule_at(
              fleet->publishes_[index].time, [this, index] {
                proxy->on_notification(fleet->notifications_[index]);
              });
        }
        if (end < relevant->size()) {
          sim->schedule_at(fleet->publishes_[(*relevant)[end - 1]].time,
                           [this, end] {
                             // Group-commit boundary, then the next block.
                             wal->flush();
                             wal->sync();
                             schedule_from(end);
                           });
        }
      }
    };
    Pump pump{this, &proxy, &wal, &relevant, &sim, block};
    if (!relevant.empty()) pump.schedule_from(0);
    sim.run_until(config_.horizon);
    wal.flush();
    wal.sync();

    ShardOutcome outcome;
    outcome.devices = pop.device_count();
    outcome.subscriptions = pop.subscriptions;
    outcome.topics_managed = topics_managed;
    outcome.publishes_routed = proxy.stats().notifications;
    outcome.batches = channel.batches();
    outcome.deliveries = channel.deliveries();
    outcome.overflow_drops = channel.overflow_drops();
    outcome.drained = channel.drained();
    outcome.wal_records = wal.record_count();
    outcome.events_fired = sim.fired_events();
    outcome.lineage = storage::wal_lineage(backend);

    // The per-shard health surface (core/health.h), sampled once at the
    // horizon: proxy-owned signals plus this harness's WAL overlay. The
    // fixed fleet has no capacity budget armed, so occupancy() reads 0 and
    // queued is whatever the settled holding queues still carry.
    outcome.health = core::proxy_health(proxy);
    outcome.health.shard = static_cast<std::uint32_t>(s);
    outcome.health.at = config_.horizon;
    outcome.health.wal_records = wal.record_count();
    outcome.health.topics_owned = topics_managed;
    outcome.health.deliveries = channel.deliveries();

    // Sample RSS while this shard's machinery is still alive; lock-free
    // max, reporting only (never digested).
    std::uint64_t sample = current_rss_bytes();
    std::uint64_t seen = rss_peak.load(std::memory_order_relaxed);
    while (sample > seen &&
           !rss_peak.compare_exchange_weak(seen, sample,
                                           std::memory_order_relaxed)) {
    }
    return outcome;
  };

  FleetOutcome outcome;
  outcome.shards = runner.map(ring_.shard_count(), run_shard);

  std::uint64_t max_deliveries = 0;
  std::uint64_t max_devices = 0;
  for (const ShardOutcome& shard : outcome.shards) {
    outcome.publishes += shard.publishes_routed;
    outcome.deliveries += shard.deliveries;
    outcome.overflow_drops += shard.overflow_drops;
    outcome.wal_records += shard.wal_records;
    outcome.events_fired += shard.events_fired;
    max_deliveries = std::max(max_deliveries, shard.deliveries);
    max_devices = std::max(max_devices, shard.devices);
  }
  const double shard_count = static_cast<double>(outcome.shards.size());
  outcome.device_imbalance =
      static_cast<double>(max_devices) * shard_count /
      static_cast<double>(std::max<std::uint64_t>(config_.population.devices, 1));
  outcome.delivery_imbalance =
      outcome.deliveries > 0
          ? static_cast<double>(max_deliveries) * shard_count /
                static_cast<double>(outcome.deliveries)
          : 0.0;
  outcome.peak_rss_bytes = rss_peak.load(std::memory_order_relaxed);

  std::uint64_t digest = 0xF1EE7ull ^ config_.seed;
  for (const ShardOutcome& shard : outcome.shards) {
    fold(digest, shard.devices);
    fold(digest, shard.subscriptions);
    fold(digest, shard.topics_managed);
    fold(digest, shard.publishes_routed);
    fold(digest, shard.batches);
    fold(digest, shard.deliveries);
    fold(digest, shard.overflow_drops);
    fold(digest, shard.drained);
    fold(digest, shard.wal_records);
    fold(digest, shard.events_fired);
  }
  outcome.digest = digest;
  return outcome;
}

}  // namespace waif::experiments
