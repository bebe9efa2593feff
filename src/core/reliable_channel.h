// Reliable delivery over an unreliable last hop.
//
// SimDeviceChannel is fire-and-forget: on a faulty link (net/fault.h) a
// forwarded notification can silently vanish and the proxy's bookkeeping
// (forwarded set, queue-size view) drifts from reality for good.
// ReliableDeviceChannel adds the transport machinery real push pipelines
// run on the device connection:
//
//   * per-message sequence numbers;
//   * device-side ACKs on the uplink (themselves droppable);
//   * per-message delivery timeouts with capped exponential backoff and
//     deterministic jitter;
//   * a bounded in-flight window (excess transfers queue in a backlog);
//   * device-side duplicate suppression over a sliding sequence window, so
//     a retransmission whose original did arrive is absorbed silently;
//   * graceful degradation — a transfer that exhausts its attempts (or
//     expires in flight) is handed to the failure handler, which re-queues
//     it into the proxy's holding queue instead of losing the event.
//
// Determinism: the only randomness is retry jitter, drawn from the
// channel's own seeded RNG in simulation event order; together with the
// link's seeded FaultModel a chaos run replays bit-identically at any
// --jobs count. An expired notification is never delivered: every
// transmission and every arrival re-checks expiration.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_set>

#include "common/rng.h"
#include "common/time.h"
#include "core/channel.h"
#include "core/snapshot.h"
#include "device/device.h"
#include "net/link.h"
#include "pubsub/notification.h"
#include "sim/simulator.h"

namespace waif::core {

struct ReliableChannelConfig {
  /// First-attempt ACK timeout.
  SimDuration ack_timeout = 30 * kSecond;
  /// Timeout multiplier per retry.
  double backoff_factor = 2.0;
  /// Ceiling on the per-attempt timeout.
  SimDuration max_backoff = 10 * kMinute;
  /// Deterministic jitter: each armed timeout is scaled by a factor drawn
  /// uniformly from [1 - jitter, 1 + jitter]. 0 disables jitter.
  double jitter = 0.1;
  /// Transmissions per message before the transfer is abandoned.
  std::size_t max_attempts = 6;
  /// Maximum concurrently in-flight transfers; excess waits in a backlog.
  std::size_t window = 32;
  /// Device-side duplicate-suppression memory, in sequence numbers.
  std::size_t dedup_window = 4096;
  /// Backpressure: once the backlog holds this many waiting transfers the
  /// channel stops accepting() new ones (the proxy then holds events in its
  /// own rank-ordered queues, which shed canonically under a budget, rather
  /// than in this FIFO). 0 = unbounded (the default; byte-identical).
  std::size_t max_backlog = 0;
  /// Circuit breaker: consecutive exhausted transfers (ACK starvation on a
  /// live link) before the breaker trips into hold-only mode. 0 disables
  /// the breaker entirely (the default; byte-identical behaviour).
  std::size_t breaker_failure_threshold = 0;
  /// How long a tripped breaker stays open before probing half-open.
  SimDuration breaker_cooldown = 5 * kMinute;
  /// Transfers admitted while half-open; an ACK on any recloses the
  /// breaker, another exhaustion re-opens it for a fresh cooldown.
  std::size_t breaker_half_open_probes = 1;
};

/// Circuit-breaker state of a ReliableDeviceChannel: kClosed is normal
/// operation; kOpen is hold-only (the device looked persistently
/// unresponsive, nothing new is admitted); kHalfOpen admits a few probes to
/// test whether the device recovered.
enum class BreakerState : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

/// Human-readable name for logs and tables.
const char* breaker_state_name(BreakerState state);

struct ReliableChannelStats {
  /// deliver() calls admitted into the pipeline.
  std::uint64_t accepted = 0;
  /// Physical downlink transmissions, including retries.
  std::uint64_t transmissions = 0;
  /// Retransmissions (transmissions beyond each message's first).
  std::uint64_t retries = 0;
  /// Transmissions the fault model silently swallowed.
  std::uint64_t link_drops = 0;
  /// Messages/ACKs in flight when the link went down (lost mid-air).
  std::uint64_t outage_losses = 0;
  /// First-time arrivals handed to the device.
  std::uint64_t delivered = 0;
  /// Retransmission arrivals absorbed by the dedup window.
  std::uint64_t duplicates_suppressed = 0;
  /// ACKs the device transmitted.
  std::uint64_t acks_sent = 0;
  /// ACKs lost (fault model or link-down mid-flight).
  std::uint64_t ack_losses = 0;
  /// Transfers completed (ACK received by the proxy side).
  std::uint64_t acked = 0;
  /// Transfers abandoned because the notification expired undelivered.
  std::uint64_t expired_abandoned = 0;
  /// Transfers abandoned after max_attempts unacknowledged transmissions.
  std::uint64_t attempts_exhausted = 0;
  /// Abandoned transfers handed back to the failure handler.
  std::uint64_t requeued = 0;
  /// Circuit-breaker transitions: closed/half-open -> open.
  std::uint64_t breaker_trips = 0;
  /// Recoveries back to closed (an ACK while open or half-open).
  std::uint64_t breaker_closes = 0;
  /// Transfers admitted as half-open probes.
  std::uint64_t breaker_probes = 0;
};

class ReliableDeviceChannel final : public DeviceChannel {
 public:
  ReliableDeviceChannel(sim::Simulator& sim, net::Link& link,
                        device::Device& device,
                        ReliableChannelConfig config = {},
                        std::uint64_t seed = 0x52E11AB1Eull);

  /// Called with each abandoned notification (attempts exhausted); wire it
  /// to TopicState::requeue_undelivered so the event degrades into the
  /// holding queue instead of vanishing. Expired abandonments are not
  /// reported (there is nothing left to save).
  void set_failure_handler(
      std::function<void(const pubsub::NotificationPtr&)> handler);

  /// Called on every first-time delivery to the device, after the device
  /// accepted the transfer — chaos harnesses record the delivered set here
  /// to check reads against it.
  void set_delivery_observer(
      std::function<void(const pubsub::NotificationPtr&)> observer);

  /// Called when the proxy side receives the ACK completing a transfer —
  /// the durability layer journals device ACKs here.
  void set_ack_observer(
      std::function<void(const pubsub::NotificationPtr&)> observer);

  /// Durable transport state: the sequence counter and the device-side
  /// dedup window (see core/snapshot.h).
  ChannelSnapshot snapshot() const;

  /// Restores snapshot state into a fresh channel (no transfers admitted
  /// yet). The sequence counter never goes backwards. The breaker is not
  /// part of the snapshot: a warm start from a durable image re-learns a
  /// slow device from fresh evidence (the breaker is process-transient —
  /// see crash_proxy_side).
  void restore(const ChannelSnapshot& state);

  /// Models the proxy process dying while the channel object (and any
  /// frames already in the air) survives: every in-flight transfer and the
  /// backlog are dropped — their retry timers cancelled — while the
  /// device-side dedup window and the sequence counter stay, exactly like a
  /// connection teardown. Late arrivals still land on the device (and are
  /// ACKed into the void); the recovered proxy re-drives delivery from its
  /// own durable state.
  void crash_proxy_side();

  /// Observes circuit-breaker transitions; wire a try_forwarding nudge here
  /// so held events flow again the moment the breaker recloses (the proxy
  /// is otherwise only woken by arrivals, reads and link changes).
  void set_breaker_observer(std::function<void(BreakerState)> observer);

  BreakerState breaker_state() const { return breaker_; }
  /// Exhausted transfers since the last ACK (the breaker's trip counter).
  std::size_t consecutive_failures() const { return consecutive_failures_; }

  bool link_up() const override { return link_.is_up(); }

  /// False while the breaker is open (or out of half-open probes), or while
  /// the bounded backlog is full — the hold-only degraded mode: the proxy
  /// keeps events queued on its side instead of handing them over.
  bool accepting() const override;

  /// Admits one notification into the reliable pipeline. Returns true: the
  /// transfer is now the channel's responsibility (delivery, retry, or a
  /// failure-handler callback — exactly one of these eventually happens).
  /// Callers are expected to consult accepting() first; the breaker gates
  /// admission there, never mid-delivery (do_forward's bookkeeping must
  /// match what the channel took on).
  bool deliver(const pubsub::NotificationPtr& notification) override;

  std::size_t in_flight() const { return in_flight_.size(); }
  std::size_t backlog() const { return backlog_.size(); }

  const ReliableChannelStats& stats() const { return stats_; }
  net::Link& link() { return link_; }
  device::Device& device() { return device_; }

 private:
  struct Transfer {
    pubsub::NotificationPtr event;
    std::size_t attempts = 0;          // transmissions so far
    SimDuration timeout = 0;           // current backoff stage
    bool waiting_for_link = false;     // retry deferred until link recovery
    sim::EventHandle timer;
  };

  /// Starts (or defers) the next transmission of `seq`.
  void transmit(std::uint64_t seq);
  /// Device-side arrival of transmission `seq`.
  void on_arrival(std::uint64_t seq, const pubsub::NotificationPtr& event);
  /// Proxy-side ACK arrival.
  void on_ack(std::uint64_t seq);
  /// ACK timer fired without an ACK.
  void on_timeout(std::uint64_t seq);
  /// Abandons the transfer (already erased from in_flight_ by the caller).
  void fail(Transfer transfer, bool expired);
  /// Moves backlog entries into the window while there is room.
  void admit_from_backlog();
  /// Arms the ACK timer for the transfer's current backoff stage.
  void arm_timer(std::uint64_t seq, Transfer& transfer);
  /// One exhausted transfer: counts toward the breaker threshold and trips
  /// it (or re-opens a half-open probe that failed).
  void note_exhaustion();
  /// Trips the breaker open and arms the cooldown timer.
  void trip_breaker();
  /// Cooldown elapsed: admit probes.
  void enter_half_open();
  /// ACK observed: the device is alive — reclose from any state.
  void close_breaker();

  sim::Simulator& sim_;
  net::Link& link_;
  device::Device& device_;
  ReliableChannelConfig config_;
  Rng rng_;
  std::function<void(const pubsub::NotificationPtr&)> failure_handler_;
  std::function<void(const pubsub::NotificationPtr&)> delivery_observer_;
  std::function<void(const pubsub::NotificationPtr&)> ack_observer_;
  std::function<void(BreakerState)> breaker_observer_;

  // Circuit-breaker state. Process-transient: snapshot() leaves it out, so
  // a proxy warm-starting from a durable image re-learns a slow device from
  // fresh evidence.
  BreakerState breaker_ = BreakerState::kClosed;
  std::size_t consecutive_failures_ = 0;
  std::size_t probes_left_ = 0;
  sim::EventHandle cooldown_timer_;

  std::uint64_t next_seq_ = 1;
  // Ordered map: link-recovery retransmissions walk it in sequence order,
  // which keeps replays deterministic.
  std::map<std::uint64_t, Transfer> in_flight_;
  std::deque<pubsub::NotificationPtr> backlog_;

  /// Device-side transport state: sequences already delivered (bounded FIFO).
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> seen_order_;

  ReliableChannelStats stats_;
};

}  // namespace waif::core
