#include "experiments/elastic_fleet.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/channel.h"
#include "core/forwarding_policy.h"
#include "core/proxy.h"
#include "experiments/drain_queue.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace waif::experiments {

namespace {

core::TopicConfig elastic_topic_config() {
  core::TopicConfig config;
  config.mode = core::DeliveryMode::kOnLine;
  config.policy = core::PolicyConfig::online();
  return config;
}

/// Per-topic delivery-visible state. Written only by the topic's current
/// owner node (ownership changes only at single-threaded boundaries), read
/// by the coordinator at boundaries — never concurrently.
struct TopicRow {
  /// One mailbox per subscriber, in the topic's *global* subscriber order,
  /// so the image is independent of topology.
  std::vector<DrainQueue> boxes;
  std::uint64_t batches = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t overflow_drops = 0;
  std::uint64_t drained = 0;
  /// Drain ticks cell outages froze, counted when a delivery settles them.
  std::uint64_t frozen_ticks = 0;
  std::uint64_t last_seq = 0;
  std::uint64_t seq_violations = 0;
};

/// The per-node device channel: applies one forwarded notification to the
/// topic's global subscriber slots. All drain arithmetic uses the event's
/// `published_at` — not the node clock — so an event held through a
/// migration and drained late lands in exactly the bucket it would have
/// landed in on a fixed fleet.
class ElasticFanout final : public core::DeviceChannel {
 public:
  ElasticFanout(const workload::ShardPopulation& pop, const FleetConfig& config,
                const std::vector<workload::CellOutage>& outages,
                const std::vector<std::vector<char>>& outage_members,
                std::vector<TopicRow>& rows)
      : pop_(pop),
        config_(config),
        outages_(outages),
        outage_members_(outage_members),
        rows_(rows) {}

  bool link_up() const override { return true; }

  bool deliver(const pubsub::NotificationPtr& notification) override {
    const std::uint32_t topic = fleet_topic_index(
        notification->topic, static_cast<std::uint32_t>(rows_.size()));
    TopicRow& row = rows_[topic];
    const std::uint64_t seq = notification->id.value;
    if (seq <= row.last_seq) ++row.seq_violations;
    row.last_seq = seq;
    ++row.batches;
    const auto bucket = static_cast<std::uint32_t>(
        notification->published_at /
        std::max<SimDuration>(config_.drain_period, 1));
    const std::vector<std::uint32_t>& subscribers =
        pop_.topic_subscribers[topic];
    std::uint64_t admitted = 0;
    std::uint64_t drained = 0;
    std::uint64_t frozen = 0;
    for (std::size_t i = 0; i < subscribers.size(); ++i) {
      DrainQueue& box = row.boxes[i];
      std::uint64_t ticks = bucket - box.drain_bucket;
      if (!outages_.empty()) {
        // 0 ticks (a touch inside the box's bucket) freeze 0.
        const std::uint64_t blocked = std::min(
            ticks, blocked_ticks(subscribers[i], box.drain_bucket, bucket));
        ticks -= blocked;
        frozen += blocked;
      }
      admitted += offer(box, bucket, ticks, config_.drain_batch,
                        config_.device_queue_cap, drained);
    }
    row.deliveries += admitted;
    row.overflow_drops += subscribers.size() - admitted;
    row.drained += drained;
    row.frozen_ticks += frozen;
    return true;
  }

 private:
  /// Drain ticks in (b0, b1] frozen by an active cell outage for the device
  /// at `slot`. A tick at bucket b is frozen iff from <= b * period < to for
  /// an outage the device is hashed into. Pure arithmetic on the bucket
  /// clock, so the freeze is identical however the fleet is sliced
  /// (overlapping outage windows may double-charge; the caller clamps).
  std::uint64_t blocked_ticks(std::uint32_t slot, std::uint32_t b0,
                              std::uint32_t b1) const {
    const SimDuration period = std::max<SimDuration>(config_.drain_period, 1);
    std::uint64_t blocked = 0;
    for (std::size_t o = 0; o < outages_.size(); ++o) {
      if (outage_members_[o][slot] == 0) continue;
      const workload::CellOutage& outage = outages_[o];
      const std::int64_t lo = (outage.from + period - 1) / period;
      const std::int64_t hi = (outage.to + period - 1) / period;
      const std::int64_t first = std::max<std::int64_t>(b0 + 1, lo);
      const std::int64_t last = std::min<std::int64_t>(b1, hi - 1);
      if (last >= first) {
        blocked += static_cast<std::uint64_t>(last - first + 1);
      }
    }
    return blocked;
  }

  const workload::ShardPopulation& pop_;
  const FleetConfig& config_;
  const std::vector<workload::CellOutage>& outages_;
  const std::vector<std::vector<char>>& outage_members_;
  std::vector<TopicRow>& rows_;
};

/// One proxy node. Construction order matters: the backend outlives the
/// persistence, the channel outlives the proxy.
struct Node {
  std::uint32_t shard = 0;
  sim::Simulator sim;
  storage::MemBackend backend;
  std::unique_ptr<ElasticFanout> channel;
  std::unique_ptr<core::Proxy> proxy;
  std::unique_ptr<storage::ProxyPersistence> persistence;
  std::map<std::string, core::TopicConfig> owned;
};

void fold(std::uint64_t& h, std::uint64_t v) {
  h = core::ShardRing::hash_u64(h ^ v);
}

/// Everything mutable about one run, so ElasticFleet::run stays const and
/// reentrant.
class ElasticRun {
 public:
  ElasticRun(const ElasticFleetConfig& config,
             const workload::ShardPopulation& pop,
             const std::vector<PublishEvent>& publishes,
             const std::vector<pubsub::NotificationPtr>& notifications,
             const ElasticFaults& faults, InvariantMonitor* monitor,
             FleetController* controller)
      : config_(config),
        pop_(pop),
        publishes_(publishes),
        notifications_(notifications),
        faults_(faults),
        monitor_(monitor),
        controller_(controller),
        ring_(config.base.shards, config.base.vnodes),
        journal_(control_backend_) {
    const std::size_t topics = pop_.topic_subscribers.size();
    rows_.resize(topics);
    topic_names_.resize(topics);
    owner_.assign(topics, -1);
    journal_owner_.assign(topics, -1);
    for (std::uint32_t t = 0; t < topics; ++t) {
      if (pop_.topic_subscribers[t].empty()) continue;
      managed_.push_back(t);
      rows_[t].boxes.resize(pop_.topic_subscribers[t].size());
      topic_names_[t] = fleet_topic_name(t);
      const auto shard =
          static_cast<std::int32_t>(ring_.shard_of_key(topic_names_[t]));
      owner_[t] = shard;
      journal_owner_[t] = shard;
      initial_owner_names_.emplace(topic_names_[t],
                                   static_cast<std::uint32_t>(shard));
    }
    crash_fired_.assign(faults_.migration_crashes.size(), false);
    node_crash_fired_.assign(faults_.node_crashes.size(), false);
    record_crash_fired_.assign(faults_.record_crashes.size(), false);
    resize_fired_.assign(config_.resizes.size(), false);

    capacity_on_ = config_.capacity.fanout_per_sec > 0.0;
    rate_ = config_.capacity.fanout_per_sec;

    // Cell-outage membership, precomputed once: per outage, a bitset over
    // device slots (drives the fan-out drain freeze) and per-topic member
    // counts (drives the breaker_open_fraction health signal).
    const std::size_t outages = config_.cell_outages.size();
    outage_members_.resize(outages);
    outage_topic_subs_.assign(outages,
                              std::vector<std::uint32_t>(topics, 0));
    for (std::size_t o = 0; o < outages; ++o) {
      const workload::CellOutage& outage = config_.cell_outages[o];
      outage_members_[o].resize(pop_.device_index.size(), 0);
      for (std::size_t slot = 0; slot < pop_.device_index.size(); ++slot) {
        outage_members_[o][slot] =
            workload::device_in_cell(pop_.device_index[slot],
                                     outage.cell_seed, outage.fraction)
                ? 1
                : 0;
      }
      for (const std::uint32_t t : managed_) {
        std::uint32_t count = 0;
        for (const std::uint32_t slot : pop_.topic_subscribers[t]) {
          if (outage_members_[o][slot] != 0) ++count;
        }
        outage_topic_subs_[o][t] = count;
      }
    }
  }

  ElasticOutcome execute(ParallelRunner& runner) {
    for (std::size_t s = 0; s < config_.base.shards; ++s) {
      nodes_.push_back(make_node(static_cast<std::uint32_t>(s)));
      push_node_state();
    }

    const std::vector<SimTime> boundaries = make_boundaries();
    SimTime prev = 0;
    for (const SimTime boundary : boundaries) {
      run_segment(runner, prev, boundary);
      finalize_drains(boundary);
      apply_crashes(boundary);
      apply_resizes(boundary);
      apply_controller(boundary);
      update_gates(boundary);
      checkpoint(boundary);
      prev = boundary;
    }
    settle();
    return build_outcome();
  }

 private:
  // --- one hold per in-flight or draining migration ------------------------
  struct Hold {
    std::uint64_t id = 0;
    std::uint32_t from = 0;
    std::uint32_t to = 0;        // drain target (source again on rollback)
    SimTime flip_at = kNever;    // when held traffic may flow again
    bool committed = false;      // kFlipped durable (vs rolled back)
    bool scheduled = false;      // drain event scheduled into `to`'s sim
    bool drained = false;        // drain event fired (set on the node thread)
    std::vector<std::uint32_t> events;  // trace indices, in arrival order
  };

  std::unique_ptr<Node> make_node(std::uint32_t shard) {
    auto node = std::make_unique<Node>();
    node->shard = shard;
    node->channel = std::make_unique<ElasticFanout>(
        pop_, config_.base, config_.cell_outages, outage_members_, rows_);
    node->proxy = std::make_unique<core::Proxy>(
        node->sim, *node->channel, "node" + std::to_string(shard));
    node->persistence = std::make_unique<storage::ProxyPersistence>(
        node->sim, node->backend, config_.persistence);
    for (const std::uint32_t t : managed_) {
      if (owner_[t] != static_cast<std::int32_t>(shard)) continue;
      node->owned.emplace(topic_names_[t], elastic_topic_config());
      node->proxy->add_topic(topic_names_[t], elastic_topic_config());
    }
    node->persistence->attach(*node->proxy);
    return node;
  }

  std::vector<SimTime> make_boundaries() const {
    std::vector<SimTime> boundaries;
    const SimTime horizon = config_.base.horizon;
    const std::size_t checkpoints = std::max<std::size_t>(config_.checkpoints, 1);
    const SimTime step =
        std::max<SimTime>(horizon / static_cast<SimTime>(checkpoints), 1);
    for (std::size_t k = 1; k < checkpoints; ++k) {
      const SimTime at = static_cast<SimTime>(k) * step;
      if (at > 0 && at < horizon) boundaries.push_back(at);
    }
    for (const ElasticResize& resize : config_.resizes) {
      if (resize.at > 0 && resize.at < horizon) boundaries.push_back(resize.at);
    }
    boundaries.push_back(horizon);
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());
    return boundaries;
  }

  // --- segment execution ----------------------------------------------------

  // Capacity-model helpers. All of this state lives on the coordinator
  // thread: node sims only ever see events that fire inside the current
  // segment, so the single-writer-per-segment discipline is untouched.

  void push_node_state() {
    free_at_.push_back(0);
    carry_.emplace_back();
    carry_units_.push_back(0);
    shed_queue_.emplace_back();
    gate_closed_.push_back(0);
    node_shed_units_.push_back(0);
    node_shed_batches_.push_back(0);
    node_rejects_.push_back(0);
  }

  void pop_node_state() {
    free_at_.pop_back();
    carry_.pop_back();
    carry_units_.pop_back();
    shed_queue_.pop_back();
    gate_closed_.pop_back();
    node_shed_units_.pop_back();
    node_shed_batches_.pop_back();
    node_rejects_.pop_back();
  }

  std::uint64_t topic_cost(std::uint32_t topic) const {
    return pop_.topic_subscribers[topic].size();
  }

  SimDuration work_duration(std::uint64_t cost) const {
    return std::max<SimDuration>(
        1, static_cast<SimDuration>(std::llround(
               static_cast<double>(cost) * static_cast<double>(kSecond) /
               rate_)));
  }

  /// Queued work units at `at`: the carry queue plus whatever the virtual
  /// service clock still owes past `at`.
  std::uint64_t backlog_units(std::size_t n, SimTime at) const {
    std::uint64_t units = carry_units_[n];
    if (free_at_[n] > at) {
      units += static_cast<std::uint64_t>(
          static_cast<double>(free_at_[n] - at) * rate_ /
          static_cast<double>(kSecond));
    }
    return units;
  }

  void shed_carried(std::size_t n, std::map<std::uint32_t, std::uint64_t>::
                                       iterator it) {
    ++fanout_shed_batches_;
    fanout_shed_units_ += it->second;
    ++node_shed_batches_[n];
    node_shed_units_[n] += it->second;
    carry_units_[n] -= it->second;
    shed_queue_[n].erase({publishes_[it->first].rank, it->first});
    carry_[n].erase(it);
  }

  void run_segment(ParallelRunner& runner, SimTime t0, SimTime t1) {
    source_lineage_.clear();  // the segment appends to every node's WAL
    // Route the segment's slice of the trace (coordinator thread). Each
    // entry is (fire instant, trace index); without the capacity model the
    // fire instant is simply the publish time (the legacy path, byte for
    // byte).
    std::vector<std::vector<std::pair<SimTime, std::uint32_t>>> sched(
        nodes_.size());

    // Carried backlog first: a saturated node serves its queue in arrival
    // order before anything routed this segment. If carry is non-empty the
    // service clock is >= t0, so every fire instant is schedulable.
    if (capacity_on_) {
      for (std::size_t n = 0; n < nodes_.size(); ++n) {
        auto& carry = carry_[n];
        while (!carry.empty() && free_at_[n] < t1) {
          const std::uint32_t index = carry.begin()->first;
          const std::uint64_t cost = carry.begin()->second;
          const SimTime fire = std::max(free_at_[n], t0);
          sched[n].emplace_back(fire, index);
          free_at_[n] = fire + work_duration(cost);
          carry_units_[n] -= cost;
          shed_queue_[n].erase({publishes_[index].rank, index});
          carry.erase(carry.begin());
        }
      }
    }

    while (cursor_ < publishes_.size() && publishes_[cursor_].time < t1) {
      const PublishEvent& event = publishes_[cursor_];
      const std::uint32_t topic = event.topic;
      if (owner_[topic] < 0) {  // no subscribers anywhere
        ++cursor_;
        continue;
      }
      ++due_;
      const auto index = static_cast<std::uint32_t>(cursor_);
      ++cursor_;
      const auto hold = holds_.find(topic);
      if (hold != holds_.end() && event.time < hold->second.flip_at) {
        // Held (migrating) traffic was admitted before the quiesce: it is
        // never gated or shed, and its work is charged as a burst when the
        // hold drains.
        hold->second.events.push_back(index);
        ++held_;
        continue;
      }
      const auto n = static_cast<std::size_t>(owner_[topic]);
      if (!capacity_on_) {
        sched[n].emplace_back(event.time, index);
        continue;
      }

      const std::uint64_t cost = topic_cost(topic);
      if (gate_closed_[n] != 0) {
        ++admission_rejected_;
        rejected_units_ += cost;
        ++node_rejects_[n];
        continue;
      }
      // Backlog budget: rank-aware shedding, lowest rank first (ties by
      // arrival), until the event fits or is itself the cheapest victim.
      bool shed_incoming = false;
      if (config_.capacity.backlog_budget > 0) {
        const std::uint64_t budget =
            std::max<std::uint64_t>(
                config_.capacity.backlog_budget >> shed_level_, 1);
        while (backlog_units(n, event.time) + cost > budget) {
          auto& queue = shed_queue_[n];
          const std::pair<double, std::uint32_t> incoming{event.rank, index};
          if (queue.empty() || incoming < *queue.begin()) {
            shed_incoming = true;
            ++fanout_shed_batches_;
            fanout_shed_units_ += cost;
            ++node_shed_batches_[n];
            node_shed_units_[n] += cost;
            break;
          }
          shed_carried(n, carry_[n].find(queue.begin()->second));
        }
      }
      if (shed_incoming) continue;
      const SimTime service_start = std::max(free_at_[n], event.time);
      if (service_start < t1) {
        sched[n].emplace_back(service_start, index);
        free_at_[n] = service_start + work_duration(cost);
      } else {
        carry_[n].emplace(index, cost);
        carry_units_[n] += cost;
        shed_queue_[n].insert({event.rank, index});
      }
    }

    // Drains first: a held event due at the same instant as a fresh publish
    // must reach the proxy first (same-instant events fire in scheduling
    // order), preserving per-topic sequence order through the flip.
    for (auto& [topic, hold] : holds_) {
      if (hold.scheduled || hold.flip_at >= t1) continue;
      hold.scheduled = true;
      routed_ += hold.events.size();
      Node& node = *nodes_[hold.to];
      const SimTime at = std::max(hold.flip_at, t0);
      if (capacity_on_) {
        // The drain is a burst: it fires at once, but its work charges the
        // new owner's service clock so subsequent traffic backs up behind
        // it.
        std::uint64_t burst = 0;
        for (const std::uint32_t index : hold.events) {
          burst += topic_cost(publishes_[index].topic);
        }
        if (burst > 0) {
          free_at_[hold.to] =
              std::max(free_at_[hold.to], at) + work_duration(burst);
        }
      }
      Hold* armed = &hold;  // std::map: stable until erased post-drain
      node.sim.schedule_at(at, [this, armed, &node] {
        for (const std::uint32_t index : armed->events) {
          node.proxy->on_notification(notifications_[index]);
        }
        armed->drained = true;
      });
    }
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      routed_ += sched[n].size();
      Node& node = *nodes_[n];
      for (const auto& [fire, index] : sched[n]) {
        node.sim.schedule_at(fire, [this, index = index, &node] {
          node.proxy->on_notification(notifications_[index]);
        });
      }
    }

    runner.map(nodes_.size(), [this, t1](std::size_t n) -> char {
      nodes_[n]->sim.run_until(t1);
      return 0;
    });
  }

  // --- boundary processing (single-threaded) --------------------------------

  void finalize_drains(SimTime boundary) {
    for (auto it = holds_.begin(); it != holds_.end();) {
      Hold& hold = it->second;
      if (!hold.drained) {
        ++it;
        continue;
      }
      if (hold.committed) {
        SimTime now = std::max(boundary, hold.flip_at);
        Rng rng = job_rng(config_.base.seed, 0xD4A100ull + hold.id);
        MigrationRecord record{hold.id,
                               MigrationStage::kDrained,
                               topic_names_[it->first],
                               hold.from,
                               hold.to,
                               0,
                               0,
                               now};
        journal_append_retry(record, rng, &now);
        maybe_crash(MigrationStage::kDrained, hold.id, hold.from, hold.to,
                    &now);
        // GC the shipped blobs: the destination's own WAL (the kAdopt fold
        // before the flip) carries the state now.
        nodes_[hold.to]->backend.remove(migration_image_blob(hold.id));
        nodes_[hold.to]->backend.remove(migration_tail_blob(hold.id));
        record.stage = MigrationStage::kDone;
        record.at = now;
        journal_append_retry(record, rng, &now);
        ++migrations_done_;
      }
      it = holds_.erase(it);
    }
  }

  void apply_crashes(SimTime boundary) {
    for (std::size_t i = 0; i < faults_.node_crashes.size(); ++i) {
      const ElasticFaults::NodeCrash& crash = faults_.node_crashes[i];
      if (node_crash_fired_[i] || crash.at > boundary) continue;
      node_crash_fired_[i] = true;
      if (crash.node < nodes_.size()) crash_node(crash.node, boundary);
    }
    for (std::size_t i = 0; i < faults_.record_crashes.size(); ++i) {
      const ElasticFaults::RecordCrash& crash = faults_.record_crashes[i];
      if (record_crash_fired_[i] || crash.node >= nodes_.size()) continue;
      if (nodes_[crash.node]->persistence->record_count() < crash.records)
        continue;
      record_crash_fired_[i] = true;
      crash_node(crash.node, boundary);
    }
  }

  void apply_resizes(SimTime boundary) {
    for (std::size_t i = 0; i < config_.resizes.size(); ++i) {
      const ElasticResize& resize = config_.resizes[i];
      if (resize_fired_[i] || resize.at > boundary) continue;
      resize_fired_[i] = true;
      const std::size_t target = std::max<std::size_t>(resize.shards, 1);
      if (target == ring_.shard_count()) {
        ++resizes_applied_;
      } else if (target > ring_.shard_count()) {
        grow_to(target, boundary);
      } else {
        shrink_to(target, boundary);
      }
    }
  }

  void grow_to(std::size_t target, SimTime boundary) {
    while (ring_.shard_count() < target) {
      ring_.add_shard();
      nodes_.push_back(
          make_node(static_cast<std::uint32_t>(ring_.shard_count() - 1)));
      push_node_state();
      nodes_.back()->sim.run_until(boundary);  // clock catch-up, no events
    }
    // Migrate every topic whose ring placement disagrees with the live
    // owner — that covers the keys the new shards took over AND any
    // leftovers from earlier aborted migrations (the grow self-heals them).
    for (const std::uint32_t t : managed_) {
      const auto placement =
          static_cast<std::int32_t>(ring_.shard_of_key(topic_names_[t]));
      if (placement == owner_[t]) continue;
      migrate(t, static_cast<std::uint32_t>(owner_[t]),
              static_cast<std::uint32_t>(placement), boundary);
    }
    ++resizes_applied_;
  }

  void shrink_to(std::size_t target, SimTime boundary) {
    // Plan the evacuation against the shrunk ring without touching ring_.
    core::ShardRing shrunk = ring_;
    while (shrunk.shard_count() > target) shrunk.remove_shard();

    std::vector<std::pair<std::uint32_t, std::uint32_t>> moves;  // topic, to
    bool blocked = false;
    for (const std::uint32_t t : managed_) {
      if (owner_[t] < static_cast<std::int32_t>(target)) continue;
      if (holds_.count(t) != 0) blocked = true;  // migration still draining
      moves.emplace_back(t, static_cast<std::uint32_t>(
                                shrunk.shard_of_key(topic_names_[t])));
    }
    // A hold still draining toward a doomed node also blocks the shrink.
    for (const auto& [topic, hold] : holds_) {
      if (hold.to >= target) blocked = true;
    }
    if (blocked) {
      ++resizes_abandoned_;
      return;
    }

    bool all_moved = true;
    for (const auto& [t, to] : moves) {
      all_moved &=
          migrate(t, static_cast<std::uint32_t>(owner_[t]), to, boundary);
    }
    if (!all_moved) {
      // Some topic still lives on a doomed node (its migration aborted):
      // the fleet keeps the node. Abandoning is safe — the digest does not
      // depend on topology — and visible in the counters.
      ++resizes_abandoned_;
      return;
    }
    while (ring_.shard_count() > target) {
      retire_node(*nodes_.back());
      nodes_.pop_back();
      pop_node_state();
      ring_.remove_shard();
    }
    ++resizes_applied_;
  }

  /// Folds one node incarnation's durability counters into the run totals.
  void add_durability_totals(const storage::PersistenceStats& stats) {
    wal_records_total_ += stats.records;
    snapshots_total_ += stats.snapshots;
    snapshot_bytes_total_ += stats.snapshot_bytes;
  }

  void retire_node(Node& node) {
    source_lineage_.erase(node.shard);
    add_durability_totals(node.persistence->stats());
    node.persistence->detach();
    WAIF_CHECK(node.owned.empty());
    // Every carried event belongs to a topic the node owns, and migrate()
    // swept those into the hold — a doomed node retires with a dry queue.
    WAIF_CHECK(carry_[node.shard].empty());
  }

  // --- the control loop (single-threaded, at boundaries) --------------------

  FleetControlInput collect_input(SimTime boundary) const {
    FleetControlInput input;
    input.at = boundary;
    input.shards = nodes_.size();
    input.topics = managed_.size();
    input.migrations_done = migrations_done_;
    input.migrations_rolled_back = migrations_rolled_back_;
    input.resizes_applied = resizes_applied_;
    input.resizes_abandoned = resizes_abandoned_;
    input.holds_in_flight = holds_.size();
    input.nodes.reserve(nodes_.size());
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      const Node& node = *nodes_[n];
      core::HealthSnapshot health = core::proxy_health(*node.proxy);
      health.shard = static_cast<std::uint32_t>(n);
      health.at = boundary;
      health.queued = capacity_on_ ? backlog_units(n, boundary) : 0;
      health.queue_budget = config_.capacity.backlog_budget >> shed_level_;
      health.shed = node_shed_units_[n];
      health.admission_rejects = node_rejects_[n];
      health.admission_closed = gate_closed_[n] != 0;
      const storage::PersistenceStats stats = node.persistence->stats();
      health.wal_records = stats.records;
      health.wal_syncs = stats.syncs;
      health.topics_owned = node.owned.size();
      std::uint64_t deliveries = 0;
      std::uint64_t subscribers = 0;
      std::uint64_t outage_subscribers = 0;
      for (const std::uint32_t t : managed_) {
        if (owner_[t] != static_cast<std::int32_t>(n)) continue;
        deliveries += rows_[t].deliveries;
        subscribers += pop_.topic_subscribers[t].size();
        for (std::size_t o = 0; o < config_.cell_outages.size(); ++o) {
          const workload::CellOutage& outage = config_.cell_outages[o];
          if (boundary < outage.from || boundary >= outage.to) continue;
          outage_subscribers += outage_topic_subs_[o][t];
        }
      }
      health.deliveries = deliveries;
      health.breaker_open_fraction =
          subscribers > 0
              ? std::min(1.0, static_cast<double>(outage_subscribers) /
                                  static_cast<double>(subscribers))
              : 0.0;
      input.nodes.push_back(health);
    }
    return input;
  }

  void apply_controller(SimTime boundary) {
    if (controller_ == nullptr || boundary >= config_.base.horizon) return;
    const FleetController::Directive directive =
        controller_->on_checkpoint(collect_input(boundary));
    if (directive.shed_level >= 0) {
      shed_level_ = std::min(directive.shed_level, 1);
    }
    if (directive.admission_level >= 0) {
      admission_level_ = std::min(directive.admission_level, 1);
    }
    if (directive.target_shards > 0 &&
        directive.target_shards != ring_.shard_count()) {
      const std::size_t before = ring_.shard_count();
      const std::uint64_t applied = resizes_applied_;
      if (directive.target_shards > before) {
        grow_to(directive.target_shards, boundary);
      } else {
        shrink_to(directive.target_shards, boundary);
      }
      if (resizes_applied_ > applied) {
        ++controller_resizes_;
        if (monitor_ != nullptr) {
          monitor_->note_resize(before, ring_.shard_count(), boundary);
        }
      }
    }
  }

  void update_gates(SimTime boundary) {
    if (!capacity_on_ || config_.capacity.admission_high == 0) return;
    const std::uint64_t high = std::max<std::uint64_t>(
        config_.capacity.admission_high >> admission_level_, 1);
    const std::uint64_t low = config_.capacity.admission_low >> admission_level_;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      const std::uint64_t backlog = backlog_units(n, boundary);
      if (gate_closed_[n] == 0 && backlog >= high) {
        gate_closed_[n] = 1;
      } else if (gate_closed_[n] != 0 && backlog <= low) {
        gate_closed_[n] = 0;
      }
    }
  }

  // --- the migration protocol (shard_migration.h, driven per topic) --------

  bool op_fails(SimTime at, Rng& rng) {
    for (const ElasticFaults::StorageWindow& window : faults_.storage_windows) {
      if (at >= window.from && at < window.to) {
        return rng.next_double() < window.magnitude;
      }
    }
    return false;
  }

  /// One durable migration step, retried: each attempt charges `latency`,
  /// draws whether the storage fault fails it and, if not, tries `step`; a
  /// failed attempt counts a retry and backs off, up to
  /// kMigrationMaxAttempts. False when every attempt failed.
  template <typename Step>
  bool retried(SimDuration latency, Rng& rng, SimTime* now, Step&& step) {
    for (std::uint32_t attempt = 1; attempt <= kMigrationMaxAttempts;
         ++attempt) {
      *now += latency;
      if (!op_fails(*now, rng) && step()) return true;
      if (attempt < kMigrationMaxAttempts) {
        ++migration_retries_;
        *now += migration_backoff(attempt);
      }
    }
    return false;
  }

  bool journal_append_retry(MigrationRecord record, Rng& rng, SimTime* now) {
    return retried(kMigrationJournalLatency, rng, now, [&] {
      record.at = *now;
      return journal_.append(record);
    });
  }

  /// Fires any armed crash fault matching the just-committed stage. Returns
  /// whether one fired (the caller then follows migration_resume_action).
  bool maybe_crash(MigrationStage stage, std::uint64_t id, std::uint32_t from,
                   std::uint32_t to, SimTime* now) {
    bool crashed = false;
    for (std::size_t i = 0; i < faults_.migration_crashes.size(); ++i) {
      const ElasticFaults::MigrationCrash& crash = faults_.migration_crashes[i];
      if (crash_fired_[i] || crash.stage != stage) continue;
      if (crash.migration_id != 0 && crash.migration_id != id) continue;
      crash_fired_[i] = true;
      crashed = true;
      if (crash.journal) {
        control_backend_.crash();
        const MigrationJournal::ReadResult read =
            MigrationJournal::read(control_backend_);
        journal_.resume(read);
        rebuild_journal_owners(read.records);
      }
      if (crash.source && from < nodes_.size()) crash_node(from, *now);
      if (crash.dest && to < nodes_.size()) crash_node(to, *now);
      *now += kMigrationRestartDelay;
    }
    return crashed;
  }

  void rebuild_journal_owners(const std::vector<MigrationRecord>& records) {
    const std::map<std::string, std::uint32_t> derived =
        derive_owners(initial_owner_names_, records);
    for (const std::uint32_t t : managed_) {
      journal_owner_[t] =
          static_cast<std::int32_t>(derived.at(topic_names_[t]));
    }
  }

  /// Machine-crashes one node and rebuilds it from its durable lineage.
  /// Ownership comes from the *journal-derived* map, never coordinator
  /// memory — the structural enforcement of single-owner on recovery.
  void crash_node(std::uint32_t shard, SimTime) {
    Node& node = *nodes_[shard];
    source_lineage_.erase(shard);  // the crash may cut its log
    ++crashes_;
    add_durability_totals(node.persistence->stats());
    node.persistence->detach();
    node.backend.crash();
    node.owned.clear();
    for (const std::uint32_t t : managed_) {
      if (journal_owner_[t] != static_cast<std::int32_t>(shard)) continue;
      node.owned.emplace(topic_names_[t], elastic_topic_config());
    }
    storage::RecoveryResult recovery =
        storage::ProxyPersistence::recover(node.backend, node.owned);
    if (recovery.repaired) ++wal_repairs_;
    node.proxy = std::make_unique<core::Proxy>(
        node.sim, *node.channel, "node" + std::to_string(shard));
    for (const auto& [name, config] : node.owned) {
      node.proxy->add_topic(name, config);
    }
    // recover() resurrects every topic it finds in the snapshot + WAL; only
    // the journal-owned ones are restored (a stale image of a migrated-away
    // topic must not come back — it ages out at the next checkpoint).
    for (const storage::TopicImageRange& image : recovery.state.topics) {
      if (node.owned.count(image.name) == 0) continue;
      WAIF_CHECK(storage::restore_topic_image(recovery.state.image(image),
                                              *node.proxy->topic(image.name)));
    }
    node.persistence = std::make_unique<storage::ProxyPersistence>(
        node.sim, node.backend, config_.persistence);
    node.persistence->resume_from(recovery);
    node.persistence->attach(*node.proxy);
  }

  bool migrate(std::uint32_t topic, std::uint32_t from, std::uint32_t to,
               SimTime boundary) {
    if (holds_.count(topic) != 0) return false;  // previous move still drains
    const std::string& name = topic_names_[topic];
    Node& src = *nodes_[from];
    Node& dst = *nodes_[to];
    const std::uint64_t id = journal_.allocate_id();
    Rng rng = job_rng(config_.base.seed, 0xE1A000ull + id);
    ++migrations_;
    SimTime now = boundary;
    bool held = false;

    const auto journal_step = [&](MigrationStage stage, std::uint64_t watermark,
                                  std::uint64_t tail_records) -> bool {
      return journal_append_retry(
          MigrationRecord{id, stage, name, from, to, watermark, tail_records,
                          now},
          rng, &now);
    };
    const auto rollback = [&]() -> bool {
      // Undo the destination side (skip what a dest crash already undid).
      if (dst.owned.count(name) != 0) {
        dst.proxy->remove_topic(name);
        dst.owned.erase(name);
        dst.persistence->snapshot_now();  // best-effort re-base
      }
      dst.backend.remove(migration_image_blob(id));
      dst.backend.remove(migration_tail_blob(id));
      journal_step(MigrationStage::kAborted, 0, 0);  // best-effort
      if (held) {
        Hold& hold = holds_.at(topic);
        hold.to = from;
        hold.flip_at = now;
        account_pause(boundary, now);
      }
      ++migrations_rolled_back_;
      return false;
    };

    // 1. Plan.
    if (!journal_step(MigrationStage::kPlanned, 0, 0)) return rollback();
    if (maybe_crash(MigrationStage::kPlanned, id, from, to, &now)) {
      return rollback();
    }

    // 2. Quiesce: from here the topic's traffic is held, outage-style.
    Hold& hold = holds_[topic];
    hold.id = id;
    hold.from = from;
    hold.to = from;
    hold.flip_at = kNever;
    held = true;
    if (capacity_on_) {
      // Carried (paced, not yet applied) events of the topic move into the
      // hold: the map iterates in trace order and the hold is empty here,
      // so they drain ahead of anything held after the quiesce — per-topic
      // order survives the flip.
      auto& carry = carry_[from];
      for (auto it = carry.begin(); it != carry.end();) {
        const std::uint32_t index = it->first;
        if (publishes_[index].topic != topic) {
          ++it;
          continue;
        }
        hold.events.push_back(index);
        ++held_;
        carry_units_[from] -= it->second;
        shed_queue_[from].erase({publishes_[index].rank, index});
        it = carry.erase(it);
      }
    }
    if (!journal_step(MigrationStage::kQuiesced, 0, 0)) return rollback();
    if (maybe_crash(MigrationStage::kQuiesced, id, from, to, &now)) {
      return rollback();
    }

    // 3. Ship: snapshot image + WAL tail, durable on the destination. The
    // source's lineage is read once per boundary and each moved topic
    // picked from it. The destination's backend changes from here on
    // (ship, fold, a rollback's re-base), so any read of it is dropped.
    auto source = source_lineage_.find(from);
    if (source == source_lineage_.end()) {
      NodeLineage read;
      if (!read_node_lineage(src.backend, &read)) return rollback();
      source = source_lineage_.emplace(from, std::move(read)).first;
    }
    const TopicLineage lineage = pick_topic_lineage(source->second, name);
    const std::vector<std::uint8_t> image_bytes =
        encode_topic_image(name, lineage.image);
    const std::vector<std::uint8_t> tail_bytes = encode_wal_tail(lineage.tail);
    const std::uint64_t tail_records = lineage.tail.size();
    source_lineage_.erase(to);
    const auto durable_put = [&](const std::string& blob,
                                 const std::vector<std::uint8_t>& bytes) {
      return retried(config_.migration.ship_latency, rng, &now, [&] {
        dst.backend.write(blob, bytes);
        return dst.backend.sync(blob);
      });
    };
    if (!durable_put(migration_image_blob(id), image_bytes)) return rollback();
    if (!durable_put(migration_tail_blob(id), tail_bytes)) return rollback();
    if (!journal_step(MigrationStage::kShipped, lineage.watermark,
                      tail_records)) {
      return rollback();
    }
    if (maybe_crash(MigrationStage::kShipped, id, from, to, &now)) {
      return rollback();
    }

    // 4. Replay the shipment into the destination, then fold the topic
    // into the destination's own WAL (one kAdopt record) before the flip.
    std::vector<std::uint8_t> image_read;
    std::vector<std::uint8_t> tail_read;
    if (!dst.backend.read(migration_image_blob(id), &image_read) ||
        !dst.backend.read(migration_tail_blob(id), &tail_read)) {
      return rollback();
    }
    now += config_.migration.replay_latency;
    if (!replay_shipped_topic(std::move(image_read), tail_read, tail_records,
                              name, elastic_topic_config(), *dst.proxy)) {
      return rollback();
    }
    dst.owned.emplace(name, elastic_topic_config());
    if (!retried(config_.migration.fold_latency, rng, &now,
                 [&] { return dst.persistence->adopt(name); })) {
      return rollback();
    }
    if (!journal_step(MigrationStage::kReplayed, 0, 0)) return rollback();
    if (maybe_crash(MigrationStage::kReplayed, id, from, to, &now)) {
      return rollback();
    }

    // 5. Flip — THE commit. Everything after rolls forward.
    if (!journal_step(MigrationStage::kFlipped, 0, 0)) return rollback();
    journal_owner_[topic] = static_cast<std::int32_t>(to);
    owner_[topic] = static_cast<std::int32_t>(to);
    src.proxy->remove_topic(name);
    src.owned.erase(name);
    maybe_crash(MigrationStage::kFlipped, id, from, to, &now);
    hold.to = to;
    hold.committed = true;
    hold.flip_at = now;
    account_pause(boundary, now);
    return true;
  }

  void account_pause(SimTime quiesced, SimTime resumed) {
    const SimDuration pause = resumed - quiesced;
    max_pause_ = std::max(max_pause_, pause);
    total_pause_ += pause;
  }

  // --- invariant checkpoint -------------------------------------------------

  void checkpoint(SimTime boundary) {
    ++checks_;
    if (monitor_ == nullptr) return;

    // The journal is the authority: re-derive ownership from its durable
    // records and hold the live owner map to it.
    const MigrationJournal::ReadResult read =
        MigrationJournal::read(control_backend_);
    const std::map<std::string, std::uint32_t> derived =
        derive_owners(initial_owner_names_, read.records);
    for (const std::uint32_t t : managed_) {
      const std::string& name = topic_names_[t];
      std::size_t owners = 0;
      for (const auto& node : nodes_) {
        if (node->proxy->topic(name) != nullptr) ++owners;
      }
      monitor_->note_topic_owners(name, owners, boundary);
      if (derived.at(name) != static_cast<std::uint32_t>(owner_[t])) {
        monitor_->record("owner-journal",
                         name + " live owner disagrees with the journal",
                         boundary);
      }
      if (nodes_[static_cast<std::size_t>(owner_[t])]->proxy->topic(name) ==
          nullptr) {
        monitor_->record("single-owner", name + " owner does not hold it",
                         boundary);
      }
      monitor_->note_topic_seq(name, rows_[t].last_seq, boundary);
    }
    std::uint64_t seq_violations = 0;
    for (const std::uint32_t t : managed_) {
      seq_violations += rows_[t].seq_violations;
    }
    if (seq_violations > reported_seq_violations_) {
      monitor_->record("topic-seq",
                       std::to_string(seq_violations - reported_seq_violations_) +
                           " in-segment seq regressions",
                       boundary);
      reported_seq_violations_ = seq_violations;
    }
    std::uint64_t pending = 0;
    for (const auto& [topic, hold] : holds_) {
      if (!hold.scheduled) pending += hold.events.size();
    }
    for (const auto& carry : carry_) pending += carry.size();
    monitor_->note_routed(due_,
                          routed_ + pending + admission_rejected_ +
                              fanout_shed_batches_,
                          boundary);
  }

  // --- end of run -----------------------------------------------------------

  /// Drains every hold whose flip landed at or past the horizon: the trace
  /// is over, but held events must still reach their owner (the fixed-fleet
  /// run delivered them in-horizon, and the digest must agree).
  void settle() {
    // Flush the carry queues past the horizon — nothing is shed or gated
    // here: every admitted event must reach its owner so the digest agrees
    // with the fixed-fleet run (a hold's topic never has carried events
    // while the hold is undrained, so the two flushes are disjoint).
    if (capacity_on_) {
      for (std::size_t n = 0; n < nodes_.size(); ++n) {
        auto& carry = carry_[n];
        if (carry.empty()) continue;
        Node& node = *nodes_[n];
        SimTime last = config_.base.horizon;
        while (!carry.empty()) {
          const std::uint32_t index = carry.begin()->first;
          const std::uint64_t cost = carry.begin()->second;
          const SimTime fire = std::max(free_at_[n], config_.base.horizon);
          ++routed_;
          node.sim.schedule_at(fire, [this, index, &node] {
            node.proxy->on_notification(notifications_[index]);
          });
          free_at_[n] = fire + work_duration(cost);
          last = free_at_[n];
          carry_units_[n] -= cost;
          shed_queue_[n].erase({publishes_[index].rank, index});
          carry.erase(carry.begin());
        }
        node.sim.run_until(last);
      }
    }
    for (auto& [topic, hold] : holds_) {
      if (hold.scheduled) continue;
      hold.scheduled = true;
      routed_ += hold.events.size();
      Node& node = *nodes_[hold.to];
      Hold* armed = &hold;
      const SimTime at = std::max(hold.flip_at, config_.base.horizon);
      node.sim.schedule_at(at, [this, armed, &node] {
        for (const std::uint32_t index : armed->events) {
          node.proxy->on_notification(notifications_[index]);
        }
        armed->drained = true;
      });
      node.sim.run_until(at);
    }
    finalize_drains(config_.base.horizon);
    WAIF_CHECK(holds_.empty());
  }

  ElasticOutcome build_outcome() {
    ElasticOutcome out;
    out.topics_managed = managed_.size();
    out.publishes_routed = routed_;
    out.held = held_;
    for (const std::uint32_t t : managed_) {
      out.batches += rows_[t].batches;
      out.deliveries += rows_[t].deliveries;
      out.overflow_drops += rows_[t].overflow_drops;
      out.drained += rows_[t].drained;
      out.frozen_ticks += rows_[t].frozen_ticks;
      out.seq_violations += rows_[t].seq_violations;
    }
    for (const auto& node : nodes_) {
      add_durability_totals(node->persistence->stats());
      out.lineage.push_back(storage::wal_lineage(node->backend));
    }
    out.wal_records = wal_records_total_;
    out.snapshots = snapshots_total_;
    out.snapshot_bytes = snapshot_bytes_total_;
    out.migrations = migrations_;
    out.migrations_done = migrations_done_;
    out.migrations_rolled_back = migrations_rolled_back_;
    out.migration_retries = migration_retries_;
    out.journal_appends = journal_.appends();
    out.journal_failed_appends = journal_.failed_appends();
    out.resizes_applied = resizes_applied_;
    out.resizes_abandoned = resizes_abandoned_;
    out.crashes = crashes_;
    out.wal_repairs = wal_repairs_;
    out.checks = checks_;
    out.fanout_shed_batches = fanout_shed_batches_;
    out.fanout_shed_units = fanout_shed_units_;
    out.admission_rejected = admission_rejected_;
    out.rejected_units = rejected_units_;
    out.controller_resizes = controller_resizes_;
    out.max_pause = max_pause_;
    out.total_pause = total_pause_;
    out.final_shards = ring_.shard_count();

    // Delivery-visible state only: per-topic totals, then the mailbox
    // images. Everything here is a function of the per-topic trace slice
    // alone — growing, shrinking, crashing or rolling back must not move it.
    std::uint64_t digest = 0xE1A57ull ^ config_.base.seed;
    fold(digest, out.topics_managed);
    fold(digest, out.publishes_routed);
    for (const std::uint32_t t : managed_) {
      const TopicRow& row = rows_[t];
      fold(digest, row.batches);
      fold(digest, row.deliveries);
      fold(digest, row.overflow_drops);
      fold(digest, row.drained);
      fold(digest, row.last_seq);
      fold(digest, row.seq_violations);
      // Only when nonzero, so a run without cell outages keeps its digest.
      if (row.frozen_ticks != 0) fold(digest, row.frozen_ticks);
      for (const DrainQueue& box : row.boxes) {
        fold(digest, (static_cast<std::uint64_t>(box.queued) << 32) |
                         box.drain_bucket);
      }
    }
    out.digest = digest;
    return out;
  }

  const ElasticFleetConfig& config_;
  const workload::ShardPopulation& pop_;
  const std::vector<PublishEvent>& publishes_;
  const std::vector<pubsub::NotificationPtr>& notifications_;
  ElasticFaults faults_;
  InvariantMonitor* monitor_;
  FleetController* controller_;

  core::ShardRing ring_;
  storage::MemBackend control_backend_;
  MigrationJournal journal_;

  std::vector<std::uint32_t> managed_;
  std::vector<std::string> topic_names_;
  std::vector<std::int32_t> owner_;          // live routing authority
  std::vector<std::int32_t> journal_owner_;  // durable-record-derived
  std::map<std::string, std::uint32_t> initial_owner_names_;
  std::vector<TopicRow> rows_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<std::uint32_t, Hold> holds_;
  /// Each migration source's decoded lineage at the current boundary, by
  /// shard (coordinator thread only). Giving a topic away writes nothing
  /// (Proxy::remove_topic), so every move off one node at one boundary
  /// picks from one read. An entry goes whenever its node's backend can
  /// change: segment start, the node turning destination, a crash, retiring.
  std::map<std::uint32_t, NodeLineage> source_lineage_;

  std::vector<bool> crash_fired_;
  std::vector<bool> node_crash_fired_;
  std::vector<bool> record_crash_fired_;
  std::vector<bool> resize_fired_;

  std::size_t cursor_ = 0;
  std::uint64_t due_ = 0;
  std::uint64_t routed_ = 0;
  std::uint64_t held_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t migrations_done_ = 0;
  std::uint64_t migrations_rolled_back_ = 0;
  std::uint64_t migration_retries_ = 0;
  std::uint64_t resizes_applied_ = 0;
  std::uint64_t resizes_abandoned_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t wal_repairs_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t wal_records_total_ = 0;
  std::uint64_t snapshots_total_ = 0;
  std::uint64_t snapshot_bytes_total_ = 0;
  std::uint64_t reported_seq_violations_ = 0;
  SimDuration max_pause_ = 0;
  SimDuration total_pause_ = 0;

  // Capacity-model state (all on the coordinator thread; empty when the
  // model is disarmed).
  bool capacity_on_ = false;
  double rate_ = 0.0;
  std::vector<SimTime> free_at_;
  /// Per node: trace index -> work units, FIFO by index (events enter in
  /// global trace order, so index order IS arrival order).
  std::vector<std::map<std::uint32_t, std::uint64_t>> carry_;
  std::vector<std::uint64_t> carry_units_;
  /// Per node: (rank, index) of every carried event; begin() sheds first.
  std::vector<std::set<std::pair<double, std::uint32_t>>> shed_queue_;
  std::vector<char> gate_closed_;
  std::vector<std::uint64_t> node_shed_units_;
  std::vector<std::uint64_t> node_shed_batches_;
  std::vector<std::uint64_t> node_rejects_;
  int shed_level_ = 0;
  int admission_level_ = 0;
  std::uint64_t fanout_shed_batches_ = 0;
  std::uint64_t fanout_shed_units_ = 0;
  std::uint64_t admission_rejected_ = 0;
  std::uint64_t rejected_units_ = 0;
  std::uint64_t controller_resizes_ = 0;

  // Cell-outage precompute (ctor): per outage, slot membership bitset and
  // per-topic member counts.
  std::vector<std::vector<char>> outage_members_;
  std::vector<std::vector<std::uint32_t>> outage_topic_subs_;
};

}  // namespace

/// Config validation: a bad schedule is a caller bug, reported as
/// std::invalid_argument naming this file, the throwing line and the
/// offending entry — not a WAIF_CHECK abort (harnesses compose schedules
/// programmatically and want to catch and surface these).
#define ELASTIC_REQUIRE(condition, message)                             \
  do {                                                                  \
    if (!(condition)) {                                                 \
      throw std::invalid_argument(std::string("elastic_fleet.cpp:") +   \
                                  std::to_string(__LINE__) + ": " +     \
                                  (message));                           \
    }                                                                   \
  } while (0)

ElasticFleet::ElasticFleet(const ElasticFleetConfig& config)
    : config_(config),
      global_ring_(1, config.base.vnodes),
      population_(config.base.population, global_ring_),
      publishes_(draw_publishes(config.base)) {
  ELASTIC_REQUIRE(config_.base.shards >= 1, "base.shards must be >= 1");
  SimTime previous = -1;
  for (std::size_t i = 0; i < config_.resizes.size(); ++i) {
    const ElasticResize& resize = config_.resizes[i];
    const std::string entry = "resizes[" + std::to_string(i) + "]: ";
    ELASTIC_REQUIRE(resize.shards >= 1,
                    entry + "cannot shrink below 1 shard");
    ELASTIC_REQUIRE(resize.at >= 0 && resize.at < config_.base.horizon,
                    entry + "instant " + std::to_string(resize.at) +
                        " outside [0, horizon)");
    ELASTIC_REQUIRE(resize.at > previous,
                    entry + "instants must be strictly increasing");
    previous = resize.at;
  }
  if (!config_.extra_publishes.empty()) {
    for (std::size_t i = 0; i < config_.extra_publishes.size(); ++i) {
      const PublishEvent& extra = config_.extra_publishes[i];
      const std::string entry =
          "extra_publishes[" + std::to_string(i) + "]: ";
      ELASTIC_REQUIRE(extra.time >= 0 && extra.time < config_.base.horizon,
                      entry + "instant " + std::to_string(extra.time) +
                          " outside [0, horizon)");
      ELASTIC_REQUIRE(extra.topic < config_.base.population.topics,
                      entry + "topic " + std::to_string(extra.topic) +
                          " out of range");
      publishes_.push_back(extra);
    }
    std::stable_sort(publishes_.begin(), publishes_.end(),
                     [](const PublishEvent& a, const PublishEvent& b) {
                       return a.time < b.time;
                     });
  }
  for (std::uint64_t i = 0; i < publishes_.size(); ++i) publishes_[i].seq = i;

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

ElasticOutcome ElasticFleet::run(ParallelRunner& runner,
                                 const ElasticFaults& faults,
                                 InvariantMonitor* monitor,
                                 FleetController* controller) const {
  ElasticRun run(config_, population_.shard(0), publishes_, notifications_,
                 faults, monitor, controller);
  return run.execute(runner);
}

}  // namespace waif::experiments
