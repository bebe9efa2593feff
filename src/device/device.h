// The mobile device: a bounded notification buffer with the hardware
// constraints of Section 2.3 — finite storage (full buffers evict low-ranked
// unread messages, which is pure waste) and finite battery (every transfer
// costs energy; a drained device is inoperable).
//
// Notifications are kept per topic, so a read on one subscription never
// drains another; the cross-topic read()/top_ids() overloads serve
// inbox-style displays. The device is passive: *when* the user reads and
// *how much* is driven by the workload's read schedule; the device only
// stores, expires, evicts and hands over its highest-ranked messages.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/pool_allocator.h"
#include "common/time.h"
#include "pubsub/notification.h"
#include "pubsub/ranked_queue.h"
#include "sim/simulator.h"

namespace waif::device {

inline constexpr std::size_t kUnlimitedStorage =
    std::numeric_limits<std::size_t>::max();
inline constexpr double kUnlimitedBattery =
    std::numeric_limits<double>::infinity();

struct DeviceConfig {
  /// Maximum number of unread notifications held across all topics; beyond
  /// it the lowest-ranked unread message is deleted to make room
  /// (Section 2.3).
  std::size_t storage_limit = kUnlimitedStorage;
  /// Total energy budget in abstract units; infinity = mains-powered.
  double battery_capacity = kUnlimitedBattery;
  /// Energy per received (downlink) message.
  double receive_cost = 1.0;
  /// Energy per sent (uplink) message, e.g. a READ request.
  double send_cost = 1.0;
};

struct DeviceStats {
  std::uint64_t received = 0;
  std::uint64_t duplicate_receives = 0;
  std::uint64_t rank_updates = 0;
  std::uint64_t retracted = 0;  // deleted by a sub-threshold rank drop
  std::uint64_t read = 0;
  std::uint64_t expired_unread = 0;
  std::uint64_t evicted = 0;
  std::uint64_t rejected_dead_battery = 0;
  double energy_used = 0.0;
};

class Device {
 public:
  explicit Device(sim::Simulator& sim, DeviceId id, DeviceConfig config = {});

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  DeviceId id() const { return id_; }
  const DeviceConfig& config() const { return config_; }

  /// Registers the user's qualitative limit for a topic. A later rank-drop
  /// notice that takes a held message below this threshold *retracts* it:
  /// the copy is deleted from the buffer ("a negative change can help
  /// retract the notifications of malicious users after they reach the
  /// mailboxes of subscribers, but before the messages are read").
  void set_topic_threshold(const std::string& topic, double threshold);

  /// Stores a notification arriving over the downlink. Re-delivery of a held
  /// id replaces the stored copy (that is how rank updates reach the device)
  /// or deletes it when the new rank falls below the topic's threshold.
  /// Returns false when the battery is dead — the transfer never happens.
  bool receive(const pubsub::NotificationPtr& notification);

  /// Removes and returns up to `n` highest-ranked unexpired notifications on
  /// `topic` with rank >= threshold — one user read. Drains battery for the
  /// uplink request when `charge_uplink` is set; returns empty if the
  /// battery is dead.
  std::vector<pubsub::NotificationPtr> read(const std::string& topic, int n,
                                            double threshold,
                                            bool charge_uplink = false);

  /// Cross-topic read: the inbox view, highest-ranked first.
  std::vector<pubsub::NotificationPtr> read(int n, double threshold,
                                            bool charge_uplink = false);

  /// Ids of the up-to-`n` highest-ranked acceptable notifications on
  /// `topic` — the `client_events` field of the paper's READ request.
  std::vector<NotificationId> top_ids(const std::string& topic, int n,
                                      double threshold);

  /// Unread, unexpired notifications held on `topic` — the `queue_size`
  /// field of the READ request.
  std::size_t queue_size(const std::string& topic);

  /// Unread, unexpired notifications across all topics.
  std::size_t queue_size();

  bool contains(NotificationId id) const { return topic_of_.contains(id.value); }

  /// Rank of a held notification, if present.
  std::optional<double> rank_of(NotificationId id) const;

  bool battery_dead() const;
  double battery_remaining() const;

  const DeviceStats& stats() const { return stats_; }

 private:
  /// Drops expired messages; O(1) when nothing has reached its expiry yet.
  void purge_expired();
  /// Enforces the storage limit by deleting lowest-ranked messages.
  void enforce_storage_limit();
  bool drain(double energy);
  void forget_expiry(const pubsub::NotificationPtr& notification);
  /// Removes one notification from its queue and the indexes.
  void remove(const pubsub::NotificationPtr& notification);
  pubsub::RankedQueue* queue_for(const std::string& topic);
  /// Takes up to n acceptable messages out of `queue`.
  std::vector<pubsub::NotificationPtr> take_top(pubsub::RankedQueue& queue,
                                                int n, double threshold);

  using Expiry = std::pair<SimTime, std::uint64_t>;

  sim::Simulator& sim_;
  DeviceId id_;
  DeviceConfig config_;
  /// Unread notifications, one rank-ordered queue per topic. Never erased
  /// from, so a queue keeps its address and topic_of_ may point at it.
  std::map<std::string, pubsub::RankedQueue> held_;
  // The two indexes below draw their nodes from arenas of their own, so a
  // warm receive/read cycle allocates nothing.
  /// id -> the queue holding it, for membership and rank updates.
  std::map<std::uint64_t, pubsub::RankedQueue*, std::less<>,
           PoolAllocator<std::pair<const std::uint64_t, pubsub::RankedQueue*>>>
      topic_of_;
  /// (expires_at, id) for every held expiring message; the front is the next
  /// message to expire, making the lazy purge cheap.
  std::set<Expiry, std::less<>, PoolAllocator<Expiry>> expiry_index_;
  /// Per-topic qualitative limits for retraction handling.
  std::map<std::string, double> topic_thresholds_;
  std::size_t total_held_ = 0;
  DeviceStats stats_;
};

}  // namespace waif::device
