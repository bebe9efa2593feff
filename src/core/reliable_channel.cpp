#include "core/reliable_channel.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"

namespace waif::core {

using pubsub::NotificationPtr;

namespace {
// A reliable frame carries the SimDeviceChannel header plus a sequence
// number; an ACK is a bare sequence number with transport framing.
constexpr std::size_t kFrameHeaderBytes = 72;
constexpr std::size_t kAckBytes = 16;
}  // namespace

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

ReliableDeviceChannel::ReliableDeviceChannel(sim::Simulator& sim,
                                             net::Link& link,
                                             device::Device& device,
                                             ReliableChannelConfig config,
                                             std::uint64_t seed)
    : sim_(sim), link_(link), device_(device), config_(config), rng_(seed) {
  WAIF_CHECK(config.ack_timeout > 0);
  WAIF_CHECK(config.backoff_factor >= 1.0);
  WAIF_CHECK(config.max_backoff >= config.ack_timeout);
  WAIF_CHECK(config.jitter >= 0.0 && config.jitter < 1.0);
  WAIF_CHECK(config.max_attempts > 0);
  WAIF_CHECK(config.window > 0);
  WAIF_CHECK(config.dedup_window > 0);
  if (config.breaker_failure_threshold > 0) {
    WAIF_CHECK(config.breaker_cooldown > 0);
    WAIF_CHECK(config.breaker_half_open_probes > 0);
  }
  link_.on_state_change([this](net::LinkState state) {
    if (state != net::LinkState::kUp) return;
    // Retransmit every transfer that timed out during the outage, in
    // sequence order for determinism.
    std::vector<std::uint64_t> deferred;
    for (const auto& [seq, transfer] : in_flight_) {
      if (transfer.waiting_for_link) deferred.push_back(seq);
    }
    for (std::uint64_t seq : deferred) {
      auto it = in_flight_.find(seq);
      if (it == in_flight_.end()) continue;
      it->second.waiting_for_link = false;
      transmit(seq);
    }
  });
}

void ReliableDeviceChannel::set_failure_handler(
    std::function<void(const NotificationPtr&)> handler) {
  failure_handler_ = std::move(handler);
}

void ReliableDeviceChannel::set_delivery_observer(
    std::function<void(const NotificationPtr&)> observer) {
  delivery_observer_ = std::move(observer);
}

void ReliableDeviceChannel::set_ack_observer(
    std::function<void(const NotificationPtr&)> observer) {
  ack_observer_ = std::move(observer);
}

void ReliableDeviceChannel::set_breaker_observer(
    std::function<void(BreakerState)> observer) {
  breaker_observer_ = std::move(observer);
}

ChannelSnapshot ReliableDeviceChannel::snapshot() const {
  ChannelSnapshot snap;
  snap.next_seq = next_seq_;
  snap.seen.assign(seen_order_.begin(), seen_order_.end());
  return snap;
}

void ReliableDeviceChannel::restore(const ChannelSnapshot& state) {
  next_seq_ = std::max(next_seq_, state.next_seq);
  for (std::uint64_t seq : state.seen) {
    if (!seen_.insert(seq).second) continue;
    seen_order_.push_back(seq);
    if (seen_order_.size() > config_.dedup_window) {
      seen_.erase(seen_order_.front());
      seen_order_.pop_front();
    }
  }
}

void ReliableDeviceChannel::crash_proxy_side() {
  for (auto& [seq, transfer] : in_flight_) transfer.timer.cancel();
  in_flight_.clear();
  backlog_.clear();
  // The breaker is process-transient state, like the connection itself: the
  // recovered proxy re-learns a slow device from fresh evidence.
  cooldown_timer_.cancel();
  breaker_ = BreakerState::kClosed;
  consecutive_failures_ = 0;
  probes_left_ = 0;
}

bool ReliableDeviceChannel::accepting() const {
  if (breaker_ == BreakerState::kOpen) return false;
  if (breaker_ == BreakerState::kHalfOpen && probes_left_ == 0) return false;
  if (config_.max_backlog > 0 && backlog_.size() >= config_.max_backlog) {
    return false;
  }
  return true;
}

bool ReliableDeviceChannel::deliver(const NotificationPtr& notification) {
  ++stats_.accepted;
  if (breaker_ == BreakerState::kHalfOpen && probes_left_ > 0) {
    --probes_left_;
    ++stats_.breaker_probes;
  }
  if (in_flight_.size() >= config_.window) {
    backlog_.push_back(notification);
    return true;
  }
  const std::uint64_t seq = next_seq_++;
  Transfer transfer;
  transfer.event = notification;
  transfer.timeout = config_.ack_timeout;
  in_flight_.emplace(seq, std::move(transfer));
  transmit(seq);
  return true;
}

void ReliableDeviceChannel::transmit(std::uint64_t seq) {
  auto it = in_flight_.find(seq);
  WAIF_CHECK(it != in_flight_.end());
  Transfer& transfer = it->second;

  // Never push an expired notification onto the air — retries must not
  // deliver past expiration.
  if (transfer.event->expired_at(sim_.now())) {
    Transfer abandoned = std::move(transfer);
    abandoned.timer.cancel();
    in_flight_.erase(it);
    fail(std::move(abandoned), /*expired=*/true);
    return;
  }
  if (!link_.is_up()) {
    // The radio is visibly down; retry the moment it recovers.
    transfer.waiting_for_link = true;
    return;
  }

  ++transfer.attempts;
  ++stats_.transmissions;
  if (transfer.attempts > 1) ++stats_.retries;
  link_.record_downlink(kFrameHeaderBytes + transfer.event->payload.size());
  if (link_.downlink_passes()) {
    const NotificationPtr event = transfer.event;
    sim_.schedule_after(link_.draw_downlink_latency(),
                        [this, seq, event] { on_arrival(seq, event); });
  } else {
    ++stats_.link_drops;
  }
  arm_timer(seq, transfer);
}

void ReliableDeviceChannel::arm_timer(std::uint64_t seq, Transfer& transfer) {
  SimDuration timeout = transfer.timeout;
  if (config_.jitter > 0.0) {
    const double factor =
        1.0 + config_.jitter * (2.0 * rng_.next_double() - 1.0);
    timeout = std::max<SimDuration>(
        1, static_cast<SimDuration>(static_cast<double>(timeout) * factor));
  }
  transfer.timer =
      sim_.schedule_after(timeout, [this, seq] { on_timeout(seq); });
}

void ReliableDeviceChannel::on_arrival(std::uint64_t seq,
                                       const NotificationPtr& event) {
  if (!link_.is_up()) {
    // The link dropped while the frame was in the air.
    ++stats_.outage_losses;
    return;
  }
  // A frame that outlived its notification is discarded at the device's
  // transport layer: an expired event is never delivered, and never ACKed
  // (the sender's expiry check will abandon the transfer).
  if (event->expired_at(sim_.now())) return;

  if (seen_.contains(seq)) {
    // The original made it but its ACK did not: absorb the retransmission
    // and re-ACK.
    ++stats_.duplicates_suppressed;
  } else {
    device_.receive(event);
    ++stats_.delivered;
    seen_.insert(seq);
    seen_order_.push_back(seq);
    if (seen_order_.size() > config_.dedup_window) {
      seen_.erase(seen_order_.front());
      seen_order_.pop_front();
    }
    if (delivery_observer_) delivery_observer_(event);
  }

  // ACK on the uplink, subject to the same fault process.
  ++stats_.acks_sent;
  link_.record_uplink(kAckBytes);
  if (!link_.uplink_passes()) {
    ++stats_.ack_losses;
    return;
  }
  sim_.schedule_after(link_.draw_downlink_latency(),
                      [this, seq] { on_ack(seq); });
}

void ReliableDeviceChannel::on_ack(std::uint64_t seq) {
  if (!link_.is_up()) {
    ++stats_.ack_losses;
    return;
  }
  auto it = in_flight_.find(seq);
  if (it == in_flight_.end()) return;  // late ACK after a give-up
  it->second.timer.cancel();
  const NotificationPtr event = std::move(it->second.event);
  in_flight_.erase(it);
  ++stats_.acked;
  // Any completed round trip proves the device responsive: the breaker's
  // failure streak resets, and an open/half-open breaker recloses.
  consecutive_failures_ = 0;
  if (breaker_ != BreakerState::kClosed) close_breaker();
  if (ack_observer_) ack_observer_(event);
  admit_from_backlog();
}

void ReliableDeviceChannel::on_timeout(std::uint64_t seq) {
  auto it = in_flight_.find(seq);
  if (it == in_flight_.end()) return;
  Transfer& transfer = it->second;
  if (!link_.is_up()) {
    // No point retransmitting into a visible outage; park until recovery
    // (the attempt is not charged — nothing was sent).
    transfer.waiting_for_link = true;
    return;
  }
  if (transfer.attempts >= config_.max_attempts) {
    Transfer abandoned = std::move(transfer);
    in_flight_.erase(it);
    fail(std::move(abandoned), /*expired=*/false);
    return;
  }
  // Clamp in double space *before* converting back: past ~62 doublings the
  // product exceeds SimDuration's range and the float->int cast would be
  // undefined behaviour. Comparing as doubles first keeps the stepwise
  // multiply semantics bit-identical for every in-range config.
  const double next = static_cast<double>(transfer.timeout) *
                      config_.backoff_factor;
  transfer.timeout = next >= static_cast<double>(config_.max_backoff)
                         ? config_.max_backoff
                         : static_cast<SimDuration>(next);
  transmit(seq);
}

void ReliableDeviceChannel::fail(Transfer transfer, bool expired) {
  if (expired) {
    // Expirations say nothing about the device's health; only exhausted
    // retry ladders (ACK starvation on a live link) feed the breaker.
    ++stats_.expired_abandoned;
  } else {
    ++stats_.attempts_exhausted;
    note_exhaustion();
    if (failure_handler_) {
      ++stats_.requeued;
      failure_handler_(transfer.event);
    }
  }
  admit_from_backlog();
}

// ------------------------------------------------------------ circuit breaker

void ReliableDeviceChannel::note_exhaustion() {
  if (config_.breaker_failure_threshold == 0) return;
  switch (breaker_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= config_.breaker_failure_threshold) {
        trip_breaker();
      }
      break;
    case BreakerState::kHalfOpen:
      // A probe died on the vine: the device is still unresponsive.
      trip_breaker();
      break;
    case BreakerState::kOpen:
      // A transfer admitted before the trip finished its retry ladder while
      // the breaker was already open; the cooldown is already running.
      break;
  }
}

void ReliableDeviceChannel::trip_breaker() {
  breaker_ = BreakerState::kOpen;
  consecutive_failures_ = 0;
  probes_left_ = 0;
  ++stats_.breaker_trips;
  cooldown_timer_.cancel();
  cooldown_timer_ = sim_.schedule_after(config_.breaker_cooldown,
                                        [this] { enter_half_open(); });
  if (breaker_observer_) breaker_observer_(breaker_);
}

void ReliableDeviceChannel::enter_half_open() {
  breaker_ = BreakerState::kHalfOpen;
  probes_left_ = config_.breaker_half_open_probes;
  if (breaker_observer_) breaker_observer_(breaker_);
}

void ReliableDeviceChannel::close_breaker() {
  breaker_ = BreakerState::kClosed;
  probes_left_ = 0;
  cooldown_timer_.cancel();
  ++stats_.breaker_closes;
  if (breaker_observer_) breaker_observer_(breaker_);
}

void ReliableDeviceChannel::admit_from_backlog() {
  while (!backlog_.empty() && in_flight_.size() < config_.window) {
    NotificationPtr event = std::move(backlog_.front());
    backlog_.pop_front();
    const std::uint64_t seq = next_seq_++;
    Transfer transfer;
    transfer.event = std::move(event);
    transfer.timeout = config_.ack_timeout;
    in_flight_.emplace(seq, std::move(transfer));
    transmit(seq);
  }
}

}  // namespace waif::core
