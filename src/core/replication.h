// Proxy replication (the paper's second future-work item, Section 4): "to
// avoid making the proxy a single point of failure, we will consider
// approaches to replicating it."
//
// A ReplicatedProxy runs two warm replicas. Both receive every notification
// from the routing substrate (they are both in the fixed infrastructure), so
// their queues track each other; only the *active* replica forwards over the
// last hop. The active replica asynchronously replicates two kinds of state
// the standby cannot observe on its own:
//   - forward records ("id X is on the device"), captured by intercepting
//     the device channel;
//   - read records (queue size + read log), captured from READ/sync traffic.
// Replication is asynchronous with a configurable latency, so a failover can
// lose in-flight records; the promoted replica then re-forwards a few
// messages the device already holds — visible as duplicate receives, the
// price of asynchrony.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/channel.h"
#include "core/forwarding_policy.h"
#include "core/proxy.h"
#include "core/read_protocol.h"
#include "device/device.h"
#include "net/link.h"
#include "pubsub/subscriber.h"
#include "sim/simulator.h"

namespace waif::core {

struct ReplicationConfig {
  /// One-way delay of the replication channel between the replicas.
  SimDuration replication_latency = 50 * kMillisecond;
  /// Interval between heartbeats from the active replica to the failure
  /// detector. 0 disables the detector (manual failover only): no recurring
  /// events are scheduled, so existing run-to-completion setups never block.
  SimDuration heartbeat_interval = 0;
  /// Heartbeat silence after which the detector suspects the active replica
  /// and promotes the standby. Must exceed heartbeat_interval (plus the
  /// replication latency the heartbeat rides on) when the detector is on.
  SimDuration suspicion_timeout = 0;
};

struct ReplicationStats {
  std::uint64_t replicated_forwards = 0;
  std::uint64_t replicated_reads = 0;
  std::uint64_t failovers = 0;
  /// Replication records that arrived at a replica after it had already
  /// been promoted (the asynchrony window made them redundant-or-late).
  std::uint64_t late_records = 0;
  /// Heartbeats the active replica sent.
  std::uint64_t heartbeats = 0;
  /// Failovers triggered by the failure detector (subset of `failovers`).
  std::uint64_t auto_promotions = 0;
  /// Replica crashes injected (fail_active or crash_active).
  std::uint64_t crashes = 0;
  /// Dead replicas brought back by restart_replica.
  std::uint64_t restarts = 0;
};

/// Two-replica proxy with manual or heartbeat-driven failover. Subscribe the
/// ReplicatedProxy itself at the broker; it relays notifications to every
/// live replica.
class ReplicatedProxy final : public pubsub::Subscriber {
 public:
  ReplicatedProxy(sim::Simulator& sim, net::Link& link, device::Device& device,
                  ReplicationConfig config = {});

  /// Same, but forwarding over a caller-owned channel (e.g. a
  /// ReliableDeviceChannel layered on a faulty link) instead of an internal
  /// SimDeviceChannel. `channel` must outlive the ReplicatedProxy.
  ReplicatedProxy(sim::Simulator& sim, net::Link& link, device::Device& device,
                  DeviceChannel& channel, ReplicationConfig config = {});

  /// Cancels the detector/heartbeat timers so a ReplicatedProxy can be torn
  /// down while its simulator still runs.
  ~ReplicatedProxy() override;

  /// Configures a topic on both replicas and registers the device-side
  /// threshold for retraction handling.
  void add_topic(const std::string& topic, TopicConfig config);

  // --- substrate side -------------------------------------------------------
  void on_notification(const pubsub::NotificationPtr& notification) override;

  // --- device side -----------------------------------------------------------
  /// One user read, served by the active replica (deferring a sync while the
  /// link is down, like LastHopSession).
  std::vector<pubsub::NotificationPtr> user_read(const std::string& topic);

  // --- failure injection -----------------------------------------------------
  /// Crashes the active replica and promotes the standby immediately
  /// (manual failover). Throws std::logic_error with no live standby.
  void fail_active();

  /// Crashes the active replica *without* promoting anyone: the crashed
  /// replica just goes silent. With the failure detector enabled the standby
  /// is promoted automatically once heartbeat silence reaches the suspicion
  /// timeout; until then the last hop is headless (reads are served from the
  /// device's local queue only).
  void crash_active();

  /// Brings a crashed replica back as a fresh process: a new Proxy with the
  /// recorded topic configuration. Without a recovery hook it rejoins cold
  /// (empty queues, re-warming from the live feed); with set_recovery the
  /// hook's warm_restart fills it from durable snapshot+WAL state first.
  /// A replica restarted after a failover rejoins as the standby; a crashed
  /// active restarted before the detector fired resumes as the active, and
  /// the hook's on_promoted moves the journal onto it.
  void restart_replica(std::size_t index);

  /// Wires a durability layer (storage::ProxyPersistence) into failover:
  /// on_promoted runs when the standby takes the active role (so the journal
  /// can follow the active replica), warm_restart runs inside
  /// restart_replica after the topics are configured. Pass nullptr to
  /// detach; the hook must outlive the proxy otherwise.
  void set_recovery(ProxyRecovery* recovery) { recovery_ = recovery; }

  bool primary_is_active() const { return active_ == 0; }
  bool active_is_alive() const { return replicas_[active_].alive; }
  bool replica_alive(std::size_t index) const {
    return index < 2 && replicas_[index].alive;
  }
  /// Live replicas remaining.
  std::size_t live_replicas() const;

  Proxy& active_proxy() { return *replicas_[active_].proxy; }
  Proxy& standby_proxy() { return *replicas_[1 - active_].proxy; }

  const ReplicationStats& stats() const { return stats_; }

 private:
  /// Channel wrapper: only the active replica's channel passes traffic; every
  /// successful delivery is captured for replication.
  class ReplicaChannel final : public DeviceChannel {
   public:
    ReplicaChannel(ReplicatedProxy& owner, std::size_t index)
        : owner_(owner), index_(index) {}

    bool link_up() const override {
      return owner_.active_ == index_ && owner_.real_channel_.link_up();
    }
    bool accepting() const override {
      // The standby never transfers, so it must not hold its queues when the
      // real channel's breaker opens; only the active mirrors the breaker.
      return owner_.active_ != index_ || owner_.real_channel_.accepting();
    }
    bool deliver(const pubsub::NotificationPtr& notification) override {
      const bool accepted = owner_.real_channel_.deliver(notification);
      owner_.replicate_forward(index_, notification);
      return accepted;
    }

   private:
    ReplicatedProxy& owner_;
    std::size_t index_;
  };

  struct Replica {
    std::unique_ptr<ReplicaChannel> channel;
    std::unique_ptr<Proxy> proxy;
    bool alive = true;
  };

  void replicate_forward(std::size_t from,
                         const pubsub::NotificationPtr& notification);
  void replicate_read(std::size_t from, const std::string& topic,
                      std::size_t queue_size, const ReadRecord& record);
  void send_read(const std::string& topic, TopicState& state);
  void flush_pending_syncs();
  /// Shared constructor body: builds the replicas and wires the link.
  void init();
  /// Switches the active role to the standby and wakes it.
  void promote_standby();
  /// Starts the recurring heartbeat/detector events (detector enabled only).
  void start_failure_detector();
  void schedule_heartbeat();
  void schedule_detector();
  /// Detector tick: promotes the standby after sustained heartbeat silence.
  void check_active_liveness();

  sim::Simulator& sim_;
  net::Link& link_;
  device::Device& device_;
  /// Set when this ReplicatedProxy owns its forwarding channel (the plain
  /// SimDeviceChannel constructor); null when the caller supplied one.
  std::unique_ptr<DeviceChannel> owned_channel_;
  DeviceChannel& real_channel_;
  ReplicationConfig config_;
  Replica replicas_[2];
  std::size_t active_ = 0;
  /// Topic configuration, recorded so restart_replica can rebuild a proxy.
  std::vector<std::pair<std::string, TopicConfig>> topic_configs_;
  /// Failure-detector state: when the last heartbeat *arrived*.
  SimTime last_active_heartbeat_ = 0;
  sim::EventHandle heartbeat_timer_;
  sim::EventHandle detector_timer_;
  /// Device-side log of offline reads per topic (survives failovers: it
  /// lives on the device, not on a proxy).
  std::map<std::string, std::vector<ReadRecord>> pending_sync_;
  ProxyRecovery* recovery_ = nullptr;
  ReplicationStats stats_;
};

}  // namespace waif::core
