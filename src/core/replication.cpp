#include "core/replication.h"

#include <stdexcept>
#include <utility>

#include "common/check.h"

namespace waif::core {

using pubsub::NotificationPtr;

ReplicatedProxy::ReplicatedProxy(sim::Simulator& sim, net::Link& link,
                                 device::Device& device,
                                 ReplicationConfig config)
    : sim_(sim),
      link_(link),
      device_(device),
      owned_channel_(std::make_unique<SimDeviceChannel>(link, device)),
      real_channel_(*owned_channel_),
      config_(config) {
  init();
}

ReplicatedProxy::ReplicatedProxy(sim::Simulator& sim, net::Link& link,
                                 device::Device& device, DeviceChannel& channel,
                                 ReplicationConfig config)
    : sim_(sim),
      link_(link),
      device_(device),
      real_channel_(channel),
      config_(config) {
  init();
}

ReplicatedProxy::~ReplicatedProxy() {
  heartbeat_timer_.cancel();
  detector_timer_.cancel();
}

void ReplicatedProxy::init() {
  for (std::size_t i = 0; i < 2; ++i) {
    replicas_[i].channel = std::make_unique<ReplicaChannel>(*this, i);
    replicas_[i].proxy = std::make_unique<Proxy>(
        sim_, *replicas_[i].channel,
        i == 0 ? "replica-primary" : "replica-standby");
  }
  link_.on_state_change([this](net::LinkState state) {
    if (state != net::LinkState::kUp) return;
    // Wake the active replica, then flush device-side syncs to it.
    active_proxy().handle_network(state);
    flush_pending_syncs();
  });
  start_failure_detector();
}

void ReplicatedProxy::add_topic(const std::string& topic, TopicConfig config) {
  for (Replica& replica : replicas_) replica.proxy->add_topic(topic, config);
  device_.set_topic_threshold(topic, config.options.threshold);
  topic_configs_.emplace_back(topic, config);
}

void ReplicatedProxy::on_notification(const NotificationPtr& notification) {
  // Both replicas sit in the fixed infrastructure and receive the feed
  // directly; a crashed replica is gone.
  for (Replica& replica : replicas_) {
    if (replica.alive) replica.proxy->on_notification(notification);
  }
}

std::vector<NotificationPtr> ReplicatedProxy::user_read(
    const std::string& topic) {
  Proxy& proxy = active_proxy();
  TopicState* state = proxy.topic(topic);
  if (state == nullptr) {
    throw std::invalid_argument("user_read: unmanaged topic: " + topic);
  }
  const auto& options = state->config().options;

  // A crashed-but-not-yet-replaced active replica leaves the hop headless:
  // the read is served from the device's local queue only, like an outage.
  const bool online = replicas_[active_].alive && real_channel_.link_up() &&
                      !device_.battery_dead();
  if (online) {
    send_read(topic, *state);
  } else if (!device_.battery_dead()) {
    pending_sync_[topic].push_back(ReadRecord{sim_.now(), options.max});
  }
  return device_.read(topic, options.max, options.threshold,
                      /*charge_uplink=*/online);
}

void ReplicatedProxy::send_read(const std::string& topic, TopicState& state) {
  const auto& options = state.config().options;
  ReadRequest request;
  request.n = options.max;
  request.queue_size = device_.queue_size(topic);
  request.client_events = device_.top_ids(topic, options.max, options.threshold);
  constexpr std::size_t kRequestHeaderBytes = 32;
  constexpr std::size_t kBytesPerId = 8;
  link_.record_uplink(kRequestHeaderBytes +
                      kBytesPerId * request.client_events.size());
  active_proxy().handle_read(topic, request);
  replicate_read(active_, topic, request.queue_size,
                 ReadRecord{sim_.now(), request.n});
}

void ReplicatedProxy::flush_pending_syncs() {
  const auto pending = std::move(pending_sync_);
  pending_sync_.clear();
  for (const auto& [topic, offline_reads] : pending) {
    Proxy& proxy = active_proxy();
    if (proxy.topic(topic) == nullptr) continue;
    constexpr std::size_t kSyncBytes = 16;
    constexpr std::size_t kBytesPerRecord = 12;
    link_.record_uplink(kSyncBytes + kBytesPerRecord * offline_reads.size());
    const std::size_t queue_size = device_.queue_size(topic);
    proxy.handle_sync(topic, queue_size, offline_reads);
    for (const ReadRecord& record : offline_reads) {
      replicate_read(active_, topic, queue_size, record);
    }
  }
}

void ReplicatedProxy::replicate_forward(std::size_t from,
                                        const NotificationPtr& notification) {
  const std::size_t peer_index = 1 - from;
  if (!replicas_[peer_index].alive) return;
  ++stats_.replicated_forwards;
  sim_.schedule_after(config_.replication_latency, [this, peer_index,
                                                    notification] {
    Replica& peer = replicas_[peer_index];
    if (!peer.alive) return;
    if (active_ == peer_index) {
      // The record chased a replica that has already been promoted.
      ++stats_.late_records;
    }
    if (TopicState* state = peer.proxy->topic(notification->topic)) {
      state->apply_replicated_forward(notification);
    }
  });
}

void ReplicatedProxy::replicate_read(std::size_t from, const std::string& topic,
                                     std::size_t queue_size,
                                     const ReadRecord& record) {
  const std::size_t peer_index = 1 - from;
  if (!replicas_[peer_index].alive) return;
  ++stats_.replicated_reads;
  sim_.schedule_after(
      config_.replication_latency,
      [this, peer_index, topic, queue_size, record] {
        Replica& peer = replicas_[peer_index];
        if (!peer.alive) return;
        if (active_ == peer_index) ++stats_.late_records;
        if (peer.proxy->topic(topic) != nullptr) {
          peer.proxy->handle_sync(topic, queue_size, {record});
        }
      });
}

void ReplicatedProxy::fail_active() {
  if (!replicas_[1 - active_].alive) {
    throw std::logic_error("fail_active: no replica left to promote");
  }
  crash_active();
  promote_standby();
}

void ReplicatedProxy::crash_active() {
  Replica& failed = replicas_[active_];
  WAIF_CHECK(failed.alive);
  failed.alive = false;
  ++stats_.crashes;
}

void ReplicatedProxy::restart_replica(std::size_t index) {
  WAIF_CHECK(index < 2);
  Replica& replica = replicas_[index];
  WAIF_CHECK(!replica.alive);
  // The dead process's objects outlive the restart: a crashed active that
  // nobody was promoted over still carries the durability layer's journal,
  // which moves to the fresh proxy (on_promoted below) before they go.
  const Replica crashed = std::move(replica);
  // A fresh process: empty queues, no memory of the device. It re-learns
  // what the device holds through replication records and future reads.
  replica.channel = std::make_unique<ReplicaChannel>(*this, index);
  replica.proxy = std::make_unique<Proxy>(
      sim_, *replica.channel,
      index == 0 ? "replica-primary" : "replica-standby");
  for (const auto& [topic, config] : topic_configs_) {
    replica.proxy->add_topic(topic, config);
  }
  // With a durability layer attached the replica catches up from
  // snapshot+WAL instead of rejoining cold.
  if (recovery_ != nullptr) recovery_->warm_restart(*replica.proxy);
  replica.alive = true;
  ++stats_.restarts;
  if (index == active_) {
    // The crashed active came back before the detector promoted anyone: it
    // resumes the active role, and the journal follows it before it
    // forwards anything.
    last_active_heartbeat_ = sim_.now();
    if (recovery_ != nullptr) recovery_->on_promoted(*replica.proxy);
    replica.proxy->handle_network(link_.is_up() ? net::LinkState::kUp
                                                : net::LinkState::kDown);
  }
}

void ReplicatedProxy::promote_standby() {
  const std::size_t survivor = 1 - active_;
  WAIF_CHECK(replicas_[survivor].alive);
  active_ = survivor;
  ++stats_.failovers;
  last_active_heartbeat_ = sim_.now();
  // Let the durability layer follow the active role (journal + snapshot the
  // promoted replica) before it starts forwarding.
  if (recovery_ != nullptr) recovery_->on_promoted(*replicas_[survivor].proxy);
  // The promoted replica starts forwarding immediately if the link allows;
  // anything the old active forwarded but did not replicate in time will be
  // sent again (duplicate receives on the device).
  replicas_[survivor].proxy->handle_network(
      link_.is_up() ? net::LinkState::kUp : net::LinkState::kDown);
}

void ReplicatedProxy::start_failure_detector() {
  if (config_.heartbeat_interval <= 0) return;
  WAIF_CHECK(config_.suspicion_timeout >
             config_.heartbeat_interval + config_.replication_latency);
  last_active_heartbeat_ = sim_.now();
  schedule_heartbeat();
  schedule_detector();
}

void ReplicatedProxy::schedule_heartbeat() {
  heartbeat_timer_ =
      sim_.schedule_after(config_.heartbeat_interval, [this] {
        if (replicas_[active_].alive) {
          ++stats_.heartbeats;
          // The heartbeat rides the same asynchronous channel as replication
          // records; the detector sees it one latency later.
          sim_.schedule_after(config_.replication_latency, [this] {
            last_active_heartbeat_ = sim_.now();
          });
        }
        schedule_heartbeat();
      });
}

void ReplicatedProxy::schedule_detector() {
  detector_timer_ = sim_.schedule_after(config_.heartbeat_interval, [this] {
    check_active_liveness();
    schedule_detector();
  });
}

void ReplicatedProxy::check_active_liveness() {
  if (!replicas_[1 - active_].alive) return;  // nobody to promote
  if (sim_.now() - last_active_heartbeat_ < config_.suspicion_timeout) return;
  // Sustained silence: the active replica crashed (or is half-open and its
  // heartbeats are not getting through). Either way the standby takes over.
  ++stats_.auto_promotions;
  promote_standby();
}

std::size_t ReplicatedProxy::live_replicas() const {
  std::size_t live = 0;
  for (const Replica& replica : replicas_) live += replica.alive ? 1 : 0;
  return live;
}

}  // namespace waif::core
