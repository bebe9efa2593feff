#include "experiments/chaos_orchestrator.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/channel.h"
#include "core/overload.h"
#include "core/proxy.h"
#include "core/replication.h"
#include "core/reliable_channel.h"
#include "core/snapshot.h"
#include "device/device.h"
#include "experiments/elastic_chaos.h"
#include "net/link.h"
#include "pubsub/broker.h"
#include "pubsub/publisher.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/fsck.h"
#include "storage/persistence.h"
#include "storage/snapshot.h"
#include "workload/serialization.h"
#include "workload/trace.h"

namespace waif::experiments {

namespace {

constexpr char kAdaptiveTopic[] = "chaos/adaptive";
constexpr char kBufferTopic[] = "chaos/buffer";
constexpr char kOnlineTopic[] = "chaos/online";

/// Heartbeat silence after which the failure detector promotes the standby.
/// A crash fault whose duration is shorter restarts the active in place.
constexpr SimDuration kSuspicionTimeout = 5 * kMinute;

/// Floor on a failing-over crash's restart delay. The failure detector
/// (30 s heartbeats, kSuspicionTimeout) promotes the standby well inside
/// this window, so the dead replica comes back as the standby.
constexpr SimDuration kMinRestartDelay = 8 * kMinute;

/// Three topics across the policy spectrum, so a composed schedule crosses
/// every queue and journal stage.
std::map<std::string, core::TopicConfig> topic_configs(
    const workload::ScenarioConfig& scenario) {
  std::map<std::string, core::TopicConfig> configs;
  {
    core::TopicConfig config;
    config.options.max = scenario.max;
    config.options.threshold = scenario.threshold;
    config.policy = core::PolicyConfig::adaptive();
    config.policy.delay = 30 * kMinute;
    configs.emplace(kAdaptiveTopic, config);
  }
  {
    core::TopicConfig config;
    config.options.max = scenario.max;
    config.options.threshold = scenario.threshold;
    config.policy = core::PolicyConfig::buffer(8, 2 * kHour);
    config.refinements.interrupt_threshold = 4.8;
    configs.emplace(kBufferTopic, config);
  }
  {
    core::TopicConfig config;
    config.mode = core::DeliveryMode::kOnLine;
    config.options.max = scenario.max;
    config.options.threshold = scenario.threshold;
    config.policy = core::PolicyConfig::online();
    config.refinements.max_per_day = 16;
    configs.emplace(kOnlineTopic, config);
  }
  return configs;
}

struct TopicTrace {
  std::string topic;
  workload::Trace trace;
};

/// One trace per topic from independent substreams of the schedule seed.
/// No trace outages and no rank churn: the link belongs to the schedule's
/// kOutage faults, and chaos measures fault composition, not rank changes.
std::vector<TopicTrace> build_traces(const ChaosSchedule& schedule) {
  workload::ScenarioConfig adaptive = chaos_scenario();
  adaptive.horizon = schedule.horizon;

  workload::ScenarioConfig buffer = adaptive;
  buffer.event_frequency = adaptive.event_frequency * 0.75;
  buffer.expiring_fraction = 1.0;
  buffer.mean_expiration = 4 * kHour;

  workload::ScenarioConfig online = adaptive;
  online.event_frequency = adaptive.event_frequency * 0.5;
  online.expiring_fraction = 0.0;
  online.mean_expiration = 0;

  std::uint64_t state = schedule.seed;
  std::vector<TopicTrace> traces;
  traces.push_back(
      {kAdaptiveTopic, workload::generate_trace(adaptive, splitmix64(state))});
  traces.push_back(
      {kBufferTopic, workload::generate_trace(buffer, splitmix64(state))});
  traces.push_back(
      {kOnlineTopic, workload::generate_trace(online, splitmix64(state))});
  return traces;
}

/// Compact shape summary of a topic image, for violation details.
std::string image_shape(const core::TopicSnapshot& state) {
  auto ids = [](const std::vector<pubsub::Notification>& events) {
    std::string out;
    for (const pubsub::Notification& event : events) {
      if (!out.empty()) out += ',';
      out += std::to_string(event.id.value);
    }
    return out.empty() ? std::string("-") : out;
  };
  return "out[" + ids(state.outgoing) + "] pre[" + ids(state.prefetch) +
         "] hold[" + ids(state.holding) + "] delayed:" +
         std::to_string(state.delayed.size()) + " hist:" +
         std::to_string(state.history.size()) + " fwd:" +
         std::to_string(state.forwarded.size()) + " credit:" +
         std::to_string(state.rate_credit);
}

/// A TopicSnapshot's canonical serialization, for byte-comparisons.
std::vector<std::uint8_t> canonical_bytes(const std::string& topic,
                                          const core::TopicSnapshot& state) {
  storage::ProxySnapshot wrapper;
  wrapper.topics.emplace_back(topic, state);
  return storage::encode_snapshot(wrapper);
}

/// Guards the proxy -> channel boundary: an expired notification handed to
/// the transport is a violation (recorded, not aborted — the shrinker needs
/// violations as data). Forwards accepting() so the breaker's hold-only
/// mode stays visible through the wrapper.
class GuardChannel final : public core::DeviceChannel {
 public:
  GuardChannel(sim::Simulator& sim, core::DeviceChannel& inner,
               InvariantMonitor& monitor)
      : sim_(sim), inner_(inner), monitor_(monitor) {}

  bool link_up() const override { return inner_.link_up(); }
  bool accepting() const override { return inner_.accepting(); }

  bool deliver(const pubsub::NotificationPtr& notification) override {
    if (notification->expired_at(sim_.now())) {
      monitor_.record("expired-delivery",
                      "expired event " +
                          std::to_string(notification->id.value) +
                          " handed to the transport",
                      sim_.now());
    }
    return inner_.deliver(notification);
  }

 private:
  sim::Simulator& sim_;
  core::DeviceChannel& inner_;
  InvariantMonitor& monitor_;
};

/// Sits between the active proxy and the persistence layer, and doubles as
/// the ReplicatedProxy's recovery hook so the journal follows the active
/// role across failovers. Forwards every journal hook, counts sheds and
/// verifies each victim is the canonical worst of its topic; with the
/// kSwallowShedJournal bug armed it drops on_shed records on the floor —
/// the intentional invariant bug the acceptance tests shrink.
class ChaosTee final : public core::ProxyJournal, public core::ProxyRecovery {
 public:
  void wire(storage::ProxyPersistence* inner, ChaosOutcome* outcome,
            InvariantMonitor* monitor, sim::Simulator* sim,
            bool swallow_sheds) {
    inner_ = inner;
    outcome_ = outcome;
    monitor_ = monitor;
    sim_ = sim;
    swallow_sheds_ = swallow_sheds;
  }

  /// The proxy the journal is attached to; null while detached (between a
  /// machine crash and the next promotion).
  core::Proxy* proxy() const { return proxy_; }
  void set_proxy(core::Proxy* proxy) { proxy_ = proxy; }

  /// Runs after a promotion re-based the journal on the new active.
  void set_promoted_hook(std::function<void()> hook) {
    promoted_hook_ = std::move(hook);
  }

  // --- ProxyJournal ----------------------------------------------------------

  void on_enqueue(const std::string& topic,
                  const core::EnqueueRecord& record) override {
    inner_->on_enqueue(topic, record);
  }

  bool on_forward(const std::string& topic,
                  const pubsub::NotificationPtr& event, SimTime at,
                  double rate_credit, bool replicated) override {
    return inner_->on_forward(topic, event, at, rate_credit, replicated);
  }

  void on_read(const std::string& topic, std::uint64_t request_id, int n,
               std::size_t queue_size, SimTime at) override {
    inner_->on_read(topic, request_id, n, queue_size, at);
  }

  void on_sync(const std::string& topic, std::size_t queue_size,
               std::uint64_t sync_id,
               const std::vector<core::ReadRecord>& offline_reads,
               SimTime at) override {
    inner_->on_sync(topic, queue_size, sync_id, offline_reads, at);
  }

  void on_expire(const std::string& topic, NotificationId id, bool timer_fired,
                 SimTime at) override {
    inner_->on_expire(topic, id, timer_fired, at);
  }

  void on_requeue(const std::string& topic,
                  const pubsub::NotificationPtr& event, SimTime at) override {
    inner_->on_requeue(topic, event, at);
  }

  void on_shed(const std::string& topic, const pubsub::NotificationPtr& event,
               SimTime at) override {
    ++outcome_->journaled_sheds;
    if (proxy_ != nullptr) {
      if (const core::TopicState* state = proxy_->topic(topic)) {
        for (const pubsub::NotificationPtr& candidate :
             state->queued_events()) {
          if (candidate->id.value != event->id.value &&
              core::shed_before(*candidate, *event)) {
            monitor_->record("shed-order",
                             topic + " shed " +
                                 std::to_string(event->id.value) +
                                 " before worse candidate " +
                                 std::to_string(candidate->id.value),
                             at);
          }
        }
      }
    }
    if (swallow_sheds_) return;  // the armed bug: the WAL never learns
    inner_->on_shed(topic, event, at);
  }

  // --- ProxyRecovery ---------------------------------------------------------

  void on_promoted(core::Proxy& active) override {
    inner_->on_promoted(active);
    // Re-interpose on whatever attach() installed.
    active.set_journal(this);
    proxy_ = &active;
    if (promoted_hook_) promoted_hook_();
  }

  void warm_restart(core::Proxy& fresh) override {
    inner_->warm_restart(fresh);
  }

 private:
  storage::ProxyPersistence* inner_ = nullptr;
  ChaosOutcome* outcome_ = nullptr;
  InvariantMonitor* monitor_ = nullptr;
  sim::Simulator* sim_ = nullptr;
  core::Proxy* proxy_ = nullptr;
  std::function<void()> promoted_hook_;
  bool swallow_sheds_ = false;
};

class ChaosHarness {
 public:
  explicit ChaosHarness(const ChaosSchedule& schedule)
      : schedule_(schedule),
        configs_(topic_configs(chaos_scenario())),
        traces_(build_traces(schedule)),
        sim_(),
        broker_(sim_, std::max<std::size_t>(
                          total_arrivals() + total_storm_events(), 1)),
        link_(sim_),
        device_(sim_, DeviceId{1}),
        monitor_(expectations(schedule)),
        reliable_(sim_, link_, device_, channel_config(schedule),
                  channel_seed(schedule.seed)),
        guard_(sim_, reliable_, monitor_),
        replicated_(sim_, link_, device_, guard_, replication_config()),
        publisher_(broker_, "workload"),
        persistence_(sim_, backend_, schedule.persistence),
        link_seed_state_(schedule.seed ^ 0xC4A05FA17ull),
        storage_seed_state_(schedule.seed ^ 0xC4A05D15Cull) {
    for (const auto& [topic, config] : configs_) {
      replicated_.add_topic(topic, config);
    }
    arm_overload();

    persistence_.set_channel(&reliable_);
    persistence_.attach(replicated_.active_proxy());
    tee_.wire(&persistence_, &outcome_, &monitor_, &sim_,
              schedule_.bug == ChaosBug::kSwallowShedJournal);
    tee_.set_proxy(&replicated_.active_proxy());
    tee_.set_promoted_hook([this] {
      // on_promoted re-based the WAL with a fresh checkpoint, but that
      // snapshot can fail under an fsync-fault window; treat the lineage as
      // dirty until a checkpoint provably lands.
      lineage_clean_ = false;
      arm_overload();
    });
    replicated_.active_proxy().set_journal(&tee_);
    replicated_.set_recovery(&tee_);

    reliable_.set_delivery_observer(
        [this](const pubsub::NotificationPtr& event) {
          if (event->expired_at(sim_.now())) {
            monitor_.record("expired-delivery",
                            "expired event " +
                                std::to_string(event->id.value) +
                                " arrived at the device",
                            sim_.now());
          }
        });
    reliable_.set_failure_handler(
        [this](const pubsub::NotificationPtr& event) {
          core::Proxy& active = replicated_.active_proxy();
          if (core::TopicState* topic = active.topic(event->topic)) {
            topic->requeue_undelivered(event);
            sample_queues();
          }
        });
    // One observer, two jobs: invariant-check the transition and wake the
    // held queues the moment the breaker admits transfers again.
    reliable_.set_breaker_observer([this](core::BreakerState state) {
      monitor_.note_breaker(state, sim_.now());
      if (state != core::BreakerState::kOpen) {
        wake_forwarding();
        sample_queues();
      }
    });

    for (const auto& [topic, config] : configs_) {
      broker_.subscribe(topic, replicated_, config.options);
      publisher_.advertise(topic);
    }

    for (const TopicTrace& entry : traces_) {
      const std::string& topic = entry.topic;
      for (const workload::Arrival& arrival : entry.trace.arrivals) {
        sim_.schedule_at(arrival.time, [this, &topic, arrival] {
          publish(topic, arrival.rank, arrival.lifetime);
        });
      }
      for (SimTime read_at : entry.trace.reads) {
        sim_.schedule_at(read_at, [this, &topic] { do_read(topic); });
      }
    }

    for (const ChaosFault& fault : schedule_.faults) schedule_fault(fault);
    if (!crash_targets_.empty()) {
      std::sort(crash_targets_.begin(), crash_targets_.end(),
                [](const ChaosFault& a, const ChaosFault& b) {
                  return a.param < b.param;
                });
      persistence_.set_record_hook(
          [this](std::uint64_t count) { on_record(count); });
    }

    // The monitor's heartbeat: periodic checkpoints across the whole run,
    // plus dense ones after each storm (sheds concentrate there, and the
    // live-vs-recovered comparison must look before the next snapshot
    // absorbs the divergence).
    const SimDuration step = std::max<SimDuration>(schedule_.horizon / 24, 1);
    for (SimTime at = step; at < schedule_.horizon; at += step) {
      sim_.schedule_at(at, [this] { checkpoint(); });
    }
    for (const ChaosFault& fault : schedule_.faults) {
      if (fault.kind != ChaosFaultKind::kStorm) continue;
      for (SimDuration offset : {2 * kMinute, 7 * kMinute, 20 * kMinute}) {
        const SimTime at = fault.at + offset;
        if (at < schedule_.horizon) {
          sim_.schedule_at(at, [this] { checkpoint(); });
        }
      }
    }
  }

  ~ChaosHarness() { persistence_.detach(); }

  ChaosOutcome run() {
    sim_.run_until(schedule_.horizon);
    checkpoint();
    finish();
    return outcome_;
  }

 private:
  static InvariantMonitor::Expectations expectations(
      const ChaosSchedule& schedule) {
    InvariantMonitor::Expectations expectations;
    expectations.topic_budget = schedule.topic_budget;
    expectations.proxy_budget = schedule.proxy_budget;
    expectations.admission_armed = schedule.admission_high > 0;
    return expectations;
  }

  static core::ReliableChannelConfig channel_config(
      const ChaosSchedule& schedule) {
    core::ReliableChannelConfig config;
    config.max_backlog = 64;
    config.breaker_failure_threshold = schedule.breaker_threshold;
    return config;
  }

  static core::ReplicationConfig replication_config() {
    core::ReplicationConfig config;
    config.replication_latency = 50 * kMillisecond;
    config.heartbeat_interval = 30 * kSecond;
    config.suspicion_timeout = 5 * kMinute;
    return config;
  }

  static std::uint64_t channel_seed(std::uint64_t seed) {
    std::uint64_t state = seed ^ 0x52E11AB1Eull;
    return splitmix64(state);
  }

  std::size_t total_arrivals() const {
    std::size_t total = 0;
    for (const TopicTrace& entry : traces_) {
      total += entry.trace.arrivals.size();
    }
    return total;
  }

  std::size_t total_storm_events() const {
    std::size_t total = 0;
    for (const ChaosFault& fault : schedule_.faults) {
      if (fault.kind == ChaosFaultKind::kStorm) total += fault.param;
    }
    return total;
  }

  void arm_overload() {
    core::OverloadConfig config;
    config.topic_queue_budget = schedule_.topic_budget;
    config.proxy_queue_budget = schedule_.proxy_budget;
    config.admission_high = schedule_.admission_high;
    config.admission_low = schedule_.admission_low;
    replicated_.active_proxy().set_overload(config);
    replicated_.standby_proxy().set_overload(config);
  }

  void wake_forwarding() {
    core::Proxy& active = replicated_.active_proxy();
    for (const std::string& name : active.topic_names()) {
      active.topic(name)->try_forwarding();
    }
  }

  std::size_t active_index() const {
    return replicated_.primary_is_active() ? 0 : 1;
  }

  // --- fault application -----------------------------------------------------

  void schedule_fault(const ChaosFault& fault) {
    if (fault.at >= schedule_.horizon) {
      ++outcome_.faults_skipped;
      return;
    }
    const SimTime end = fault.at + fault.duration;
    switch (fault.kind) {
      case ChaosFaultKind::kLinkFault:
        sim_.schedule_at(fault.at, [this, fault] {
          ++outcome_.faults_applied;
          link_windows_.push_back(fault.magnitude);
          refresh_link_faults();
        });
        if (end < schedule_.horizon) {
          sim_.schedule_at(end, [this, fault] {
            const auto it = std::find(link_windows_.begin(),
                                      link_windows_.end(), fault.magnitude);
            if (it != link_windows_.end()) link_windows_.erase(it);
            refresh_link_faults();
          });
        }
        break;
      case ChaosFaultKind::kOutage:
        sim_.schedule_at(fault.at, [this] {
          ++outcome_.faults_applied;
          if (outage_depth_++ == 0) link_.set_state(net::LinkState::kDown);
        });
        if (end < schedule_.horizon) {
          sim_.schedule_at(end, [this] {
            if (--outage_depth_ == 0) link_.set_state(net::LinkState::kUp);
          });
        }
        break;
      case ChaosFaultKind::kStorageFault:
        sim_.schedule_at(fault.at, [this, fault] {
          ++outcome_.faults_applied;
          storage_windows_.push_back(fault.magnitude);
          refresh_storage_faults();
        });
        if (end < schedule_.horizon) {
          sim_.schedule_at(end, [this, fault] {
            const auto it =
                std::find(storage_windows_.begin(), storage_windows_.end(),
                          fault.magnitude);
            if (it != storage_windows_.end()) storage_windows_.erase(it);
            refresh_storage_faults();
          });
        }
        break;
      case ChaosFaultKind::kCrashActive:
        sim_.schedule_at(fault.at,
                         [this, fault] { do_crash(fault, /*machine=*/false); });
        break;
      case ChaosFaultKind::kCrashAtRecord:
        crash_targets_.push_back(fault);
        break;
      case ChaosFaultKind::kStorm:
        schedule_storm(fault);
        break;
      case ChaosFaultKind::kDeviceStall:
        sim_.schedule_at(fault.at, [this] {
          ++outcome_.faults_applied;
          ++stall_depth_;
          refresh_link_faults();
        });
        if (end < schedule_.horizon) {
          sim_.schedule_at(end, [this] {
            --stall_depth_;
            refresh_link_faults();
          });
        }
        break;
      case ChaosFaultKind::kRebalance:
      case ChaosFaultKind::kAutoscale:
        // run_chaos dispatches rebalance/autoscale schedules to the elastic
        // harness before this one is built; count defensively if one slips
        // in.
        ++outcome_.faults_skipped;
        break;
    }
  }

  /// Recomputes the composite link fault model from every active window
  /// (strongest drop magnitude wins) plus any device stall. Each refresh
  /// installs a fresh model with a fresh substream seed — deterministic
  /// because window edges are schedule events, identical across runs.
  void refresh_link_faults() {
    net::FaultConfig config;
    double drop = 0.0;
    for (double magnitude : link_windows_) drop = std::max(drop, magnitude);
    if (drop > 0.0) {
      config.drop_probability = drop;
      config.burst_start_probability = drop / 8.0;
      config.mean_burst_length = 4.0;
      config.half_open_probability = drop / 4.0;
      config.mean_half_open = 2 * kMinute;
      config.uplink_drop_probability = drop / 2.0;
    }
    if (stall_depth_ > 0) config.uplink_drop_probability = 1.0;
    if (!config.enabled() && !link_fault_armed_) return;
    accumulate_link_stats();
    link_.set_fault_model(config, splitmix64(link_seed_state_));
    link_fault_armed_ = config.enabled();
  }

  void accumulate_link_stats() {
    const net::FaultModel* model = link_.fault_model();
    if (model == nullptr) return;
    const net::FaultStats& stats = model->stats();
    outcome_.link_faults.independent_drops += stats.independent_drops;
    outcome_.link_faults.burst_drops += stats.burst_drops;
    outcome_.link_faults.half_open_drops += stats.half_open_drops;
    outcome_.link_faults.uplink_drops += stats.uplink_drops;
    outcome_.link_faults.bursts += stats.bursts;
    outcome_.link_faults.half_open_windows += stats.half_open_windows;
  }

  void refresh_storage_faults() {
    accumulate_storage_stats();
    backend_.set_fault_model(nullptr);
    storage_fault_.reset();
    double magnitude = 0.0;
    for (double window : storage_windows_) {
      magnitude = std::max(magnitude, window);
    }
    if (magnitude <= 0.0) return;
    storage::StorageFaultConfig config;
    config.fsync_failure_probability = magnitude;
    config.torn_write_probability = std::min(1.0, magnitude * 2.0);
    config.bit_flip_probability = magnitude / 2.0;
    storage_fault_.emplace(config, splitmix64(storage_seed_state_));
    backend_.set_fault_model(&*storage_fault_);
  }

  void accumulate_storage_stats() {
    if (!storage_fault_) return;
    const storage::StorageFaultStats& stats = storage_fault_->stats();
    outcome_.storage_faults.fsync_failures += stats.fsync_failures;
    outcome_.storage_faults.torn_writes += stats.torn_writes;
    outcome_.storage_faults.bit_flips += stats.bit_flips;
  }

  void schedule_storm(const ChaosFault& fault) {
    sim_.schedule_at(fault.at, [this] { ++outcome_.faults_applied; });
    Rng rng(fault.seed);
    const std::vector<std::string> topics = chaos_topics();
    for (std::uint64_t k = 0; k < fault.param; ++k) {
      const SimTime at = fault.at + static_cast<SimDuration>(k) * kSecond;
      if (at >= schedule_.horizon) break;
      const std::string topic = topics[k % topics.size()];
      const double rank = 1.0 + 4.0 * rng.next_double();
      // Half the storm expires quickly, so shedding exercises both of its
      // orderings (rank first, soonest expiration second).
      const SimDuration lifetime =
          (k % 2 == 0) ? 2 * kHour + static_cast<SimDuration>(rng.next_below(
                                         static_cast<std::uint64_t>(2 * kHour)))
                       : kNever;
      sim_.schedule_at(at, [this, topic, rank, lifetime] {
        publish(topic, rank, lifetime);
      });
    }
  }

  void publish(const std::string& topic, double rank, SimDuration lifetime) {
    ++outcome_.arrivals;
    publisher_.publish(topic, rank, lifetime);
    sample_queues();
  }

  // --- crashes ---------------------------------------------------------------

  void on_record(std::uint64_t count) {
    if (crash_pending_ || next_crash_ >= crash_targets_.size()) return;
    const ChaosFault fault = crash_targets_[next_crash_];
    if (count < fault.param) return;
    ++next_crash_;
    crash_pending_ = true;
    // Never kill mid-callback: the "machine" dies between events.
    sim_.schedule_at(sim_.now(), [this, fault] {
      crash_pending_ = false;
      do_crash(fault, /*machine=*/true);
    });
  }

  void do_crash(const ChaosFault& fault, bool machine) {
    // Only a healthy pair absorbs a kill: the detector needs a live standby
    // to promote, and back-to-back kills would leave the hop permanently
    // headless instead of exploring recovery.
    if (replicated_.live_replicas() < 2 || !replicated_.active_is_alive()) {
      ++outcome_.faults_skipped;
      return;
    }
    ++outcome_.faults_applied;
    ++outcome_.crashes;
    const std::size_t dead = active_index();
    if (machine) {
      ++outcome_.machine_crashes;
      // The active's machine dies: the journal loses its writer, the disk
      // loses (or tears) the unsynced tail, and the proxy-side connection
      // state evaporates with the process.
      outcome_.lost_records += persistence_.unsynced_records();
      persistence_.detach();
      tee_.set_proxy(nullptr);
      lineage_clean_ = false;
      backend_.crash();
      const storage::RecoveryResult recovery =
          storage::ProxyPersistence::recover(backend_, configs_);
      outcome_.replayed += recovery.replayed;
      if (recovery.repaired) ++outcome_.wal_repairs;
      if (!storage::waif_fsck(backend_).recoverable()) {
        monitor_.record("fsck", "backend unrecoverable after machine crash",
                        sim_.now());
      }
      persistence_.resume_from(recovery);
      reliable_.crash_proxy_side();
      // crash_proxy_side resets the breaker without notifying the observer;
      // re-sync the monitor so the next real transition checks correctly.
      monitor_.reset_breaker(core::BreakerState::kClosed);
    }
    replicated_.crash_active();
    // Back before the detector suspects anything: restart in place.
    // Otherwise the standby takes over and the dead replica rejoins later.
    const SimDuration delay = fault.duration < kSuspicionTimeout
                                  ? fault.duration
                                  : std::max(fault.duration, kMinRestartDelay);
    sim_.schedule_at(sim_.now() + delay, [this, dead] { do_restart(dead); });
  }

  /// Warm-restarts a dead replica from the durable image. Still the active
  /// index (no promotion yet) means an in-place restart: restart_replica
  /// hands the fresh proxy the journal through the tee's on_promoted.
  void do_restart(std::size_t index) {
    if (replicated_.replica_alive(index)) return;
    replicated_.restart_replica(index);
    ++outcome_.restarts;
    // A fresh proxy process needs the budgets re-armed.
    arm_overload();
  }

  // --- reads -----------------------------------------------------------------

  void do_read(const std::string& topic) {
    const auto read = replicated_.user_read(topic);
    ++outcome_.read_operations;
    outcome_.total_read += read.size();

    std::vector<std::uint64_t> ids;
    ids.reserve(read.size());
    for (const pubsub::NotificationPtr& event : read) {
      ids.push_back(event->id.value);
    }
    std::sort(ids.begin(), ids.end());
    digest_.i64(sim_.now());
    digest_.str(topic);
    digest_.u64(ids.size());
    std::unordered_set<std::uint64_t>& seen = ever_read_[topic];
    for (std::uint64_t id : ids) {
      digest_.u64(id);
      if (!seen.insert(id).second) ++outcome_.duplicate_user_reads;
    }
    sample_queues();
  }

  // --- the monitor's checkpoint ----------------------------------------------

  void checkpoint() {
    ++outcome_.checks;
    const SimTime now = sim_.now();
    monitor_.note_channel(reliable_.snapshot().next_seq, reliable_.stats(),
                          now);
    sample_queues();
    monitor_.note_admission_rejects(
        replicated_.active_proxy().stats().admission_rejects +
            replicated_.standby_proxy().stats().admission_rejects,
        now);
    check_image(now);
  }

  /// Feeds both replicas' occupancy to the monitor and the peaks. Called
  /// only once a mutation settled (budgets enforced), never from inside
  /// one: on_enqueue fires before enforcement and may see budget + 1.
  void sample_queues() {
    const SimTime now = sim_.now();
    core::Proxy* proxies[2] = {&replicated_.active_proxy(),
                               &replicated_.standby_proxy()};
    for (core::Proxy* proxy : proxies) {
      std::size_t total = 0;
      for (const std::string& name : proxy->topic_names()) {
        const std::size_t queued = proxy->topic(name)->queued_total();
        monitor_.note_queue(name, queued, now);
        outcome_.peak_topic_queued =
            std::max(outcome_.peak_topic_queued, queued);
        total += queued;
      }
      monitor_.note_proxy_total(total, now);
      outcome_.peak_queued = std::max(outcome_.peak_queued, total);
    }
  }

  /// Live-vs-recovered digest equality: replay the written snapshot+WAL
  /// through recover() — TopicState's replay entry points, not the live
  /// handlers — and byte-compare the rebuilt images with the journaled
  /// proxy's snapshots. An event shed (or expired, or moved)
  /// without its journal record survives in the replayed image and breaks
  /// the comparison. Skipped while the journal is detached or while a
  /// promotion's re-base checkpoint has not provably landed.
  void check_image(SimTime now) {
    core::Proxy* attached = tee_.proxy();
    if (attached == nullptr) {
      ++outcome_.image_skips;
      return;
    }
    // A failed WAL fsync leaves live and durable state *legitimately* apart:
    // the proxy aborts the forward to holding (bounded loss, never
    // duplication) while the written-but-unsynced record vanishes at a
    // crash. Equality is only promised on clean lineage, so any fsync
    // failure or forward abort since the last checkpoint dirties it.
    std::uint64_t aborts = 0;
    for (const std::string& name : attached->topic_names()) {
      aborts += attached->topic(name)->stats().forward_aborts;
    }
    std::uint64_t fsync_failures = outcome_.storage_faults.fsync_failures;
    if (storage_fault_) {
      fsync_failures += storage_fault_->stats().fsync_failures;
    }
    if (aborts != last_forward_aborts_ ||
        fsync_failures != last_fsync_failures_) {
      lineage_clean_ = false;
    }
    last_forward_aborts_ = aborts;
    last_fsync_failures_ = fsync_failures;

    if (!lineage_clean_) {
      // Heal with a fresh checkpoint; compare from the next checkpoint on.
      if (persistence_.snapshot_now()) lineage_clean_ = true;
      ++outcome_.image_skips;
      return;
    }
    // Replay everything written, not just the durable prefix: under a
    // batched sync policy the two legitimately differ by the unsynced
    // window (crash consistency is the crash sweeps' and fsck's job). The
    // copy keeps the check free of side effects — recover()'s tail repair
    // truncates the copy, never the live WAL, and the null fault model
    // keeps the live model's random stream untouched.
    storage::MemBackend copy = backend_;
    copy.set_fault_model(nullptr);
    const storage::RecoveryResult recovery =
        storage::ProxyPersistence::recover(copy, configs_);
    if (recovery.repaired || recovery.crc_failures > 0) {
      // Damage a crash left in the log: repair is recovery's promise,
      // equality is not. Re-base on a fresh checkpoint.
      lineage_clean_ = false;
      ++outcome_.image_skips;
      return;
    }
    std::map<std::string, core::TopicSnapshot> replayed;
    for (const auto& [name, image] : recovery.state.topics) {
      replayed.emplace(name, image);
    }
    for (const auto& [name, config] : configs_) {
      core::TopicSnapshot recovered;  // empty when nothing was logged
      if (auto it = replayed.find(name); it != replayed.end()) {
        recovered = it->second;
      }
      const core::TopicSnapshot live = attached->topic(name)->snapshot();
      if (canonical_bytes(name, recovered) != canonical_bytes(name, live)) {
        monitor_.record("image-equality",
                        name + ": durable image diverged from live state (" +
                            image_shape(recovered) + " vs " +
                            image_shape(live) + ")",
                        now);
      }
    }
    ++outcome_.image_checks;
  }

  // --- end of run ------------------------------------------------------------

  void finish() {
    outcome_.read_digest = digest_.value();
    outcome_.records_logged = persistence_.record_count();
    outcome_.wal_syncs = persistence_.stats().syncs;
    outcome_.forward_refusals = persistence_.stats().forward_refusals;
    const core::ReliableChannelStats& channel = reliable_.stats();
    outcome_.breaker_trips = channel.breaker_trips;
    outcome_.breaker_closes = channel.breaker_closes;
    outcome_.requeued = channel.requeued;
    const core::ReplicationStats& replication = replicated_.stats();
    outcome_.failovers = replication.failovers;
    std::uint64_t active_shed = 0;
    core::Proxy* proxies[2] = {&replicated_.active_proxy(),
                               &replicated_.standby_proxy()};
    for (core::Proxy* proxy : proxies) {
      outcome_.admission_rejects += proxy->stats().admission_rejects;
      for (const std::string& name : proxy->topic_names()) {
        const std::uint64_t shed = proxy->topic(name)->stats().shed;
        outcome_.shed += shed;
        if (proxy == proxies[0]) active_shed += shed;
      }
    }
    accumulate_link_stats();
    accumulate_storage_stats();

    // Every shed of the journaled replica reached the journal. Checkable
    // only while one proxy held the journal all run: a crash hands it to a
    // proxy whose counters started elsewhere.
    if (outcome_.crashes == 0 && active_shed != outcome_.journaled_sheds) {
      monitor_.record("shed-journal",
                      std::to_string(active_shed) + " sheds but " +
                          std::to_string(outcome_.journaled_sheds) +
                          " reached the journal",
                      sim_.now());
    }

    // Post-recovery duplicate reads: with the write-ahead discipline on and
    // no failovers, machine losses or requeues, a repeated id in the user's
    // reads has no legitimate source.
    if (outcome_.duplicate_user_reads > 0 && outcome_.failovers == 0 &&
        outcome_.machine_crashes == 0 && channel.requeued == 0) {
      monitor_.record("duplicate-read",
                      std::to_string(outcome_.duplicate_user_reads) +
                          " duplicate user reads without failover/requeue",
                      sim_.now());
    }
    if (!storage::waif_fsck(backend_).recoverable()) {
      monitor_.record("fsck", "backend unrecoverable at end of run",
                      sim_.now());
    }
    outcome_.violations = monitor_.violations();
  }

  ChaosSchedule schedule_;
  std::map<std::string, core::TopicConfig> configs_;
  std::vector<TopicTrace> traces_;
  sim::Simulator sim_;
  pubsub::Broker broker_;
  net::Link link_;
  device::Device device_;
  storage::MemBackend backend_;
  ChaosOutcome outcome_;
  InvariantMonitor monitor_;
  core::ReliableDeviceChannel reliable_;
  GuardChannel guard_;
  core::ReplicatedProxy replicated_;
  // After replicated_: the publisher's destructor withdraws its topics,
  // which calls into every subscriber still subscribed.
  pubsub::Publisher publisher_;
  storage::ProxyPersistence persistence_;
  ChaosTee tee_;

  // Fault-window state.
  std::vector<double> link_windows_;
  std::vector<double> storage_windows_;
  std::optional<storage::StorageFaultModel> storage_fault_;
  std::uint64_t link_seed_state_;
  std::uint64_t storage_seed_state_;
  std::size_t outage_depth_ = 0;
  std::size_t stall_depth_ = 0;
  bool link_fault_armed_ = false;

  // Crash state.
  std::vector<ChaosFault> crash_targets_;
  std::size_t next_crash_ = 0;
  bool crash_pending_ = false;

  // Image-equality lineage: true while every WAL byte since the newest
  // checkpoint came from the currently attached proxy and made it to disk.
  bool lineage_clean_ = true;
  std::uint64_t last_forward_aborts_ = 0;
  std::uint64_t last_fsync_failures_ = 0;

  std::map<std::string, std::unordered_set<std::uint64_t>> ever_read_;
  workload::CanonicalDigest digest_;
};

/// An elastic chaos run folded back into a ChaosOutcome, so replay files,
/// the fuzzer and the shrinker cover the fleet unchanged.
ChaosOutcome fold_elastic(const ElasticChaosOutcome& run) {
  const ElasticOutcome& elastic = run.elastic;
  ChaosOutcome outcome;
  outcome.read_digest = elastic.digest;
  outcome.arrivals = elastic.publishes_routed;
  outcome.total_read = elastic.drained;
  outcome.read_operations = elastic.deliveries;
  outcome.faults_applied = run.faults_applied;
  outcome.faults_skipped = run.faults_skipped;
  outcome.crashes = elastic.crashes;
  outcome.machine_crashes = elastic.crashes;
  outcome.restarts = elastic.crashes;
  outcome.wal_repairs = elastic.wal_repairs;
  outcome.records_logged = elastic.wal_records;
  outcome.checks = elastic.checks;
  outcome.shed = elastic.fanout_shed_batches;
  outcome.admission_rejects = elastic.admission_rejected;
  outcome.violations = run.violations;
  return outcome;
}

}  // namespace

std::vector<std::string> chaos_topics() {
  return {kAdaptiveTopic, kBufferTopic, kOnlineTopic};
}

workload::ScenarioConfig chaos_scenario() {
  workload::ScenarioConfig config;
  config.event_frequency = 24.0;
  config.user_frequency = 4.0;
  config.max = 8;
  config.threshold = 1.0;
  config.expiring_fraction = 0.5;
  config.mean_expiration = 6 * kHour;
  config.outage_fraction = 0.0;
  config.mean_outage = 0;
  config.horizon = 3 * kDay;
  return config;
}

std::uint64_t ChaosOutcome::digest() const {
  workload::CanonicalDigest digest;
  digest.u64(read_digest);
  digest.u64(arrivals);
  digest.u64(total_read);
  digest.u64(read_operations);
  digest.u64(duplicate_user_reads);
  digest.u64(faults_applied);
  digest.u64(faults_skipped);
  digest.u64(crashes);
  digest.u64(machine_crashes);
  digest.u64(restarts);
  digest.u64(failovers);
  digest.u64(wal_repairs);
  digest.u64(records_logged);
  digest.u64(wal_syncs);
  digest.u64(forward_refusals);
  digest.u64(lost_records);
  digest.u64(replayed);
  digest.u64(shed);
  digest.u64(journaled_sheds);
  digest.u64(admission_rejects);
  digest.u64(breaker_trips);
  digest.u64(breaker_closes);
  digest.u64(requeued);
  digest.u64(peak_queued);
  digest.u64(peak_topic_queued);
  digest.u64(checks);
  digest.u64(image_checks);
  digest.u64(image_skips);
  digest.u64(link_faults.downlink_drops());
  digest.u64(link_faults.uplink_drops);
  digest.u64(storage_faults.fsync_failures);
  digest.u64(storage_faults.torn_writes);
  digest.u64(storage_faults.bit_flips);
  digest.u64(violations.size());
  for (const ChaosViolation& violation : violations) {
    digest.str(violation.invariant);
    digest.str(violation.detail);
    digest.i64(violation.at);
  }
  return digest.value();
}

ChaosOutcome run_chaos(const ChaosSchedule& schedule) {
  validate_chaos(schedule);
  // A schedule with a rebalance or autoscale fault runs against the elastic
  // shard fleet (elastic_chaos.h).
  const bool elastic = std::any_of(
      schedule.faults.begin(), schedule.faults.end(),
      [](const ChaosFault& fault) {
        return fault.kind == ChaosFaultKind::kRebalance ||
               fault.kind == ChaosFaultKind::kAutoscale;
      });
  if (elastic) return fold_elastic(run_elastic_chaos(schedule));
  ChaosHarness harness(schedule);
  return harness.run();
}

ChaosShrinkResult shrink_chaos(const ChaosSchedule& schedule) {
  ChaosShrinkResult result;
  result.original_faults = schedule.faults.size();
  auto violates = [&result](const ChaosSchedule& candidate) {
    ++result.replays;
    return !run_chaos(candidate).ok();
  };
  if (!violates(schedule)) {
    throw std::invalid_argument(
        "shrink_chaos: the schedule does not violate any invariant");
  }

  // Phase 1: ddmin over the fault list — drop whole segments while the
  // violation still reproduces, refining the segment size down to 1.
  ChaosSchedule current = schedule;
  std::size_t granularity = 2;
  while (current.faults.size() >= 2) {
    const std::size_t chunk =
        (current.faults.size() + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t start = 0; start < current.faults.size();
         start += chunk) {
      ChaosSchedule candidate = current;
      const auto first =
          candidate.faults.begin() + static_cast<std::ptrdiff_t>(start);
      const auto last =
          candidate.faults.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(start + chunk, candidate.faults.size()));
      candidate.faults.erase(first, last);
      if (violates(candidate)) {
        current = candidate;
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk <= 1) break;
      granularity = std::min(current.faults.size(), granularity * 2);
    }
  }

  // Phase 2: per-fault minimization — halve the window, the intensity and
  // the count while the violation survives.
  for (std::size_t i = 0; i < current.faults.size(); ++i) {
    while (current.faults[i].duration >= 2 * kMinute) {
      ChaosSchedule candidate = current;
      candidate.faults[i].duration /= 2;
      if (!violates(candidate)) break;
      current = candidate;
    }
    while (current.faults[i].magnitude >= 0.02) {
      ChaosSchedule candidate = current;
      candidate.faults[i].magnitude /= 2;
      if (!violates(candidate)) break;
      current = candidate;
    }
    while (current.faults[i].param >= 2) {
      ChaosSchedule candidate = current;
      candidate.faults[i].param /= 2;
      if (!violates(candidate)) break;
      current = candidate;
    }
  }

  result.minimized = current;
  ++result.replays;
  result.outcome = run_chaos(current);
  return result;
}

}  // namespace waif::experiments
