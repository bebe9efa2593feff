#include "core/topic_state.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "core/overload.h"

namespace waif::core {

using pubsub::NotificationPtr;
using pubsub::RankHigher;

TopicState::TopicState(sim::Simulator& sim, DeviceChannel& channel,
                       std::string topic, TopicConfig config)
    : sim_(sim),
      channel_(channel),
      topic_(std::move(topic)),
      config_(config),
      old_reads_(config.policy.moving_average_window),
      read_times_(config.policy.moving_average_window),
      exp_times_(config.policy.moving_average_window),
      arrival_times_(config.policy.moving_average_window) {
  WAIF_CHECK(config.options.max > 0);
  for (const QuietWindow& window : config_.refinements.quiet_windows) {
    WAIF_CHECK(window.start >= 0 && window.start < kDay);
    WAIF_CHECK(window.end > window.start && window.end <= kDay);
  }
  if (config_.mode == DeliveryMode::kOnLine) {
    for (SimDuration time_of_day : config_.refinements.digest_times) {
      WAIF_CHECK(time_of_day >= 0 && time_of_day < kDay);
      schedule_digest(time_of_day);
    }
  }
}

TopicState::~TopicState() {
  for (auto& [id, armed] : expiration_timers_) armed.timer.cancel();
  for (auto& [id, delayed] : pending_delay_) delayed.timer.cancel();
  for (sim::EventHandle& timer : digest_timers_) timer.cancel();
  gate_wake_.cancel();
}

// --------------------------------------------------------------- NOTIFICATION

void TopicState::handle_notification(const NotificationPtr& event) {
  ++stats_.arrivals;
  if (event->expired_at(sim_.now())) {
    // E.g. a rank update routed for an event that just expired; any queued
    // copy has already been purged by the expiration timer.
    ++stats_.expired_on_arrival;
    return;
  }
  const bool was_known = known(event->id);
  if (was_known) ++stats_.rank_update_arrivals;

  Placement placement;  // defaults to kDropped
  const double threshold = config_.options.threshold;
  if (event->rank < threshold) {
    if (was_known) {
      // Rank has been lowered below the threshold (Figure 7, first branch):
      // withdraw it from the prefetch pipeline.
      holding_.erase(event->id);
      prefetch_.erase(event->id);
      if (erase_delayed(event->id)) ++stats_.delay_drops;
      if (forwarded_.contains(event->id.value)) {
        outgoing_.insert(event);  // tell the client of the rank drop
        placement.stage = JournalStage::kWithdrawn;
      } else {
        outgoing_.erase(event->id);  // don't bother the client
      }
    } else {
      ++stats_.below_threshold_drops;
    }
  } else {
    // Rank is above (or at) the threshold.
    if (config_.mode == DeliveryMode::kOnLine ||
        config_.policy.kind == PolicyKind::kOnline) {
      // Arm the expiration timer even here: a gate (day budget, quiet
      // window) or outage can strand the event in outgoing past its
      // lifetime, and an unjournaled lazy skip at forward time would
      // diverge from WAL replay.
      track_expiration(event);
      outgoing_.insert(event);  // send to client ASAP
      placement.stage = JournalStage::kOutgoing;
      placement.exp_tracked = event->expires();
    } else if (event->rank >= config_.refinements.interrupt_threshold &&
               !forwarded_.contains(event->id.value)) {
      // Hybrid model (Section 2.2): an on-demand topic interrupts for events
      // important enough (the tornado warning on a weather topic).
      track_expiration(event);
      holding_.erase(event->id);
      prefetch_.erase(event->id);
      outgoing_.insert(event);
      ++stats_.interrupts;
      placement.stage = JournalStage::kInterrupt;
      placement.exp_tracked = event->expires();
    } else {
      std::optional<Placement> refreshed;
      if (was_known) refreshed = refresh_known(event);
      placement = refreshed.has_value() ? *refreshed
                                        : place_on_demand(event, was_known);
      if (config_.policy.kind == PolicyKind::kRatePrefetch && !was_known) {
        rate_credit_ += current_ratio();
      }
    }
  }

  if (!was_known) {
    arrival_times_.add(to_seconds(sim_.now()));
  }
  record_history(event);  // record all events
  if (journal_ != nullptr) {
    const EnqueueRecord record{.event = *event,
                               .stage = placement.stage,
                               .at = sim_.now(),
                               .release_at = placement.release_at,
                               .fresh = !was_known,
                               .exp_tracked = placement.exp_tracked,
                               .rate_credit = rate_credit_};
    journal_->on_enqueue(topic_, record);
  }
  after_queue_growth();
  try_forwarding();
}

void TopicState::track_expiration(const NotificationPtr& event) {
  if (!event->expires()) return;
  exp_times_.add(to_seconds(event->remaining_lifetime(sim_.now())));
  arm_expiration_timer(event);
}

void TopicState::arm_expiration_timer(const NotificationPtr& event) {
  // schedule(&expiration_timeout, event.expires, event)
  if (event->expires()) arm_expiration(event->id, event->expires_at);
}

void TopicState::arm_expiration(NotificationId id, SimTime expires_at) {
  disarm_expiration(id);
  const SimTime when = std::max(expires_at, sim_.now());
  expiration_timers_.emplace(
      id.value,
      ExpirationTimer{sim_.schedule_at(when, [this, id] { on_expiration(id); }),
                      expires_at});
}

void TopicState::disarm_expiration(NotificationId id) {
  if (auto it = expiration_timers_.find(id.value);
      it != expiration_timers_.end()) {
    it->second.timer.cancel();
    expiration_timers_.erase(it);
  }
}

void TopicState::arm_delay(const NotificationPtr& event, SimTime release_at) {
  const NotificationId id = event->id;
  auto timer = sim_.schedule_at(std::max(release_at, sim_.now()),
                                [this, id] { on_delay_elapsed(id); });
  pending_delay_.insert_or_assign(
      id.value, DelayedEvent{event, std::move(timer), release_at});
}

bool TopicState::erase_delayed(NotificationId id) {
  auto it = pending_delay_.find(id.value);
  if (it == pending_delay_.end()) return false;
  it->second.timer.cancel();
  pending_delay_.erase(it);
  return true;
}

bool TopicState::purge(NotificationId id) {
  bool removed = outgoing_.erase(id) != nullptr;
  removed |= prefetch_.erase(id) != nullptr;
  removed |= holding_.erase(id) != nullptr;
  removed |= erase_delayed(id);
  return removed;
}

TopicState::Placement TopicState::place_on_demand(const NotificationPtr& event,
                                                  bool known_id) {
  track_expiration(event);
  const bool exp_tracked = event->expires();

  const SimDuration threshold = effective_expiration_threshold();
  if (event->expires() &&
      event->remaining_lifetime(sim_.now()) < threshold) {
    holding_.insert(event);
    ++stats_.held;
    return {JournalStage::kHolding, 0, exp_tracked};
  }
  if (config_.policy.delay > 0 && !known_id) {
    // Delay stage (Section 3.4): give rank drops time to arrive before the
    // event becomes prefetchable.
    const SimTime release_at = sim_.now() + config_.policy.delay;
    arm_delay(event, release_at);
    ++stats_.delayed;
    return {JournalStage::kDelay, release_at, exp_tracked};
  }
  prefetch_.insert(event);
  return {JournalStage::kPrefetch, 0, exp_tracked};
}

std::optional<TopicState::Placement> TopicState::refresh_known(
    const NotificationPtr& event) {
  if (outgoing_.contains(event->id)) {
    outgoing_.insert(event);  // replace with the re-ranked copy
    return Placement{JournalStage::kOutgoing, 0, false};
  }
  if (holding_.contains(event->id)) {
    holding_.insert(event);
    return Placement{JournalStage::kHolding, 0, false};
  }
  if (prefetch_.contains(event->id)) {
    prefetch_.insert(event);
    return Placement{JournalStage::kPrefetch, 0, false};
  }
  if (auto it = pending_delay_.find(event->id.value);
      it != pending_delay_.end()) {
    it->second.event = event;  // the delay stage will release the new copy
    return Placement{JournalStage::kDelay, it->second.release_at, false};
  }
  if (forwarded_.contains(event->id.value)) {
    // Already on the device: push the new rank so the device reorders.
    outgoing_.insert(event);
    return Placement{JournalStage::kOutgoing, 0, false};
  }
  return std::nullopt;  // known id, but expired/garbage-collected: place afresh
}

// ----------------------------------------------------------------------- READ

ReadStatus TopicState::handle_read_checked(
    const ReadRequest& request, std::vector<NotificationPtr>* difference) {
  const ReadStatus status = validate_read(request);
  if (status != ReadStatus::kOk) {
    // A malformed request from an untrusted device: reject at the boundary.
    // Nothing is journaled and no average trains — a flood of garbage READs
    // cannot skew the adaptive state or the durable log.
    ++stats_.protocol_errors;
    return status;
  }
  std::vector<NotificationPtr> moved = handle_read(request);
  if (difference != nullptr) *difference = std::move(moved);
  return ReadStatus::kOk;
}

std::vector<NotificationPtr> TopicState::handle_read(const ReadRequest& request) {
  WAIF_CHECK(request.n >= 0);
  ++stats_.read_requests;

  if (request.request_id != 0 &&
      !seen_read_ids_.insert(request.request_id).second) {
    // A retransmitted READ (the request or its effects were lost on an
    // unreliable hop). The queue-size report is current, so refresh the
    // view — but the moving averages must train once per *user* read, and
    // the first attempt already moved the difference into outgoing, so a
    // forwarding pass is all that is still needed.
    ++stats_.duplicate_reads;
    queue_size_view_ = request.queue_size;
    if (journal_ != nullptr) {
      journal_->on_read(topic_, request.request_id, request.n,
                        request.queue_size, sim_.now());
    }
    try_forwarding();
    return {};
  }

  // topic.old_reads ∪ N ; prefetch_limit = moving_average(old_reads) * 2
  old_reads_.add(static_cast<double>(request.n));
  // topic.old_times ∪ gettimeofday(); expiration_threshold =
  //   moving_average_difference(old_times)
  read_times_.add(to_seconds(sim_.now()));
  // topic.queue_size = queue_size  (the proxy's drifting view is corrected)
  queue_size_view_ = request.queue_size;

  // best = get_highest_ranked(N, outgoing ∪ prefetch ∪ holding)
  const double threshold = config_.options.threshold;
  auto best = top_n_across({&outgoing_, &prefetch_, &holding_}, request.n,
                           threshold);

  // difference = get_highest_ranked(N, best ∪ client_events) \ client_events.
  // The client sends only ids; ranks for them come from our history (the
  // proxy has seen every event it ever forwarded). Unknown ids — evicted from
  // history — are treated as top-ranked, which can only make us forward less.
  std::vector<ReadCandidate>& candidates = read_candidates_;
  for (const NotificationPtr& event : best) {
    candidates.push_back(
        {event->rank, event->published_at, event->id.value, event});
  }
  for (NotificationId id : request.client_events) {
    // Skip duplicates: an id both on the client and in our queues competes
    // as the client's copy (no transfer needed).
    std::erase_if(candidates,
                  [&](const ReadCandidate& c) { return c.id == id.value; });
    const auto rank = history_rank(id);
    candidates.push_back({rank.value_or(pubsub::kMaxRank), 0, id.value, nullptr});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ReadCandidate& a, const ReadCandidate& b) {
              if (a.rank != b.rank) return a.rank > b.rank;
              if (a.published_at != b.published_at)
                return a.published_at > b.published_at;
              return a.id > b.id;
            });

  const auto chosen = candidates.begin() +
                      std::min<std::ptrdiff_t>(
                          static_cast<std::ptrdiff_t>(candidates.size()),
                          request.n);
  std::vector<NotificationPtr> difference;
  difference.reserve(static_cast<std::size_t>(
      std::count_if(candidates.begin(), chosen, [](const ReadCandidate& c) {
        return c.event != nullptr;
      })));
  for (auto c = candidates.begin(); c != chosen; ++c) {
    if (c->event != nullptr) difference.push_back(std::move(c->event));
  }
  candidates.clear();

  // q.outgoing ← q.outgoing ∪ difference. We also remove the events from
  // prefetch/holding so a later prefetch pass cannot transfer them twice
  // (the pseudo-code's set notation leaves them behind).
  if (journal_ != nullptr) {
    journal_->on_read(topic_, request.request_id, request.n,
                      request.queue_size, sim_.now());
  }
  for (const NotificationPtr& event : difference) {
    prefetch_.erase(event->id);
    holding_.erase(event->id);
    outgoing_.insert(event);
    if (journal_ != nullptr) {
      const EnqueueRecord record{.event = *event,
                                 .stage = JournalStage::kReadDifference,
                                 .at = sim_.now(),
                                 .rate_credit = rate_credit_};
      journal_->on_enqueue(topic_, record);
    }
  }
  stats_.read_difference_forwards += difference.size();

  try_forwarding();
  return difference;
}

ReadStatus TopicState::handle_sync_checked(
    std::size_t queue_size, const std::vector<ReadRecord>& offline_reads,
    std::uint64_t sync_id) {
  if (queue_size > kMaxReadQueueSize) {
    ++stats_.protocol_errors;
    return ReadStatus::kBadQueueSize;
  }
  for (const ReadRecord& record : offline_reads) {
    if (record.n < 0 || record.n > kMaxReadN) {
      ++stats_.protocol_errors;
      return ReadStatus::kBadN;
    }
  }
  handle_sync(queue_size, offline_reads, sync_id);
  return ReadStatus::kOk;
}

void TopicState::handle_sync(std::size_t queue_size,
                             const std::vector<ReadRecord>& offline_reads,
                             std::uint64_t sync_id) {
  ++stats_.sync_requests;
  if (sync_id != 0 && !seen_sync_ids_.insert(sync_id).second) {
    // A retransmitted sync: the queue-size report is refreshed but the
    // offline-read log trains the averages exactly once.
    ++stats_.duplicate_syncs;
    queue_size_view_ = queue_size;
    if (journal_ != nullptr) {
      journal_->on_sync(topic_, queue_size, sync_id, offline_reads, sim_.now());
    }
    try_forwarding();
    return;
  }
  for (const ReadRecord& record : offline_reads) {
    old_reads_.add(static_cast<double>(record.n));
    read_times_.add(to_seconds(record.time));
  }
  queue_size_view_ = queue_size;
  if (journal_ != nullptr) {
    journal_->on_sync(topic_, queue_size, sync_id, offline_reads, sim_.now());
  }
  try_forwarding();
}

// -------------------------------------------------------------------- NETWORK

void TopicState::handle_network(net::LinkState status) {
  if (status == net::LinkState::kUp) try_forwarding();
}

// ------------------------------------------------------------- try_forwarding

void TopicState::try_forwarding() {
  if (!channel_.link_up()) return;
  // A channel whose circuit breaker tripped holds everything: events stay
  // queued (hold-only degraded mode) until the breaker recloses and the
  // observer nudges try_forwarding again.
  if (!channel_.accepting()) return;

  // First empty the outgoing queue — unless a Section 2.2 gate (quiet
  // window, digest schedule, daily budget) holds an on-line topic back.
  while (!outgoing_.empty()) {
    if (online_delivery_gated()) {
      schedule_gate_wake();
      break;
    }
    const bool digest = in_digest_;
    if (do_forward(outgoing_.pop_top(), &TopicStats::outgoing_forwards) &&
        digest) {
      ++stats_.digest_deliveries;
    }
  }

  // Then see if anything should be prefetched.
  switch (config_.policy.kind) {
    case PolicyKind::kOnline:
    case PolicyKind::kOnDemand:
      break;  // nothing beyond outgoing
    case PolicyKind::kBufferPrefetch:
    case PolicyKind::kAdaptive: {
      const std::size_t limit = effective_prefetch_limit();
      while (queue_size_view_ < limit && !prefetch_.empty()) {
        do_forward(prefetch_.pop_top(), &TopicStats::prefetch_forwards);
      }
      break;
    }
    case PolicyKind::kRatePrefetch:
      while (rate_credit_ >= 1.0 && !prefetch_.empty()) {
        rate_credit_ -= 1.0;
        do_forward(prefetch_.pop_top(), &TopicStats::prefetch_forwards);
      }
      break;
  }
}

bool TopicState::do_forward(const NotificationPtr& event,
                            std::uint64_t TopicStats::* counter) {
  if (event->expired_at(sim_.now())) {
    ++stats_.expired_at_proxy;
    return false;
  }
  if (journal_ != nullptr &&
      !journal_->on_forward(topic_, event, sim_.now(), rate_credit_,
                            /*replicated=*/false)) {
    // The write-ahead record could not be made durable. Delivering anyway
    // would let a recovered proxy — which never learns of this transfer —
    // re-send the event, a duplicate. Park it in holding instead, where an
    // explicit read can still pull it (bounded loss, never duplication).
    ++stats_.forward_aborts;
    arm_expiration_timer(event);
    holding_.insert(event);
    ++stats_.held;
    return false;
  }
  const bool repeat = forwarded_.contains(event->id.value);
  channel_.deliver(event);
  ++stats_.forwarded;
  stats_.*counter += 1;
  if (repeat) ++stats_.rank_change_notices;
  ++queue_size_view_;
  forwarded_.insert(event->id.value);
  if (config_.mode == DeliveryMode::kOnLine) {
    roll_day(sim_.now());
    ++forwarded_today_;
  }
  return true;
}

// ------------------------------------------------- Section 2.2 refinements

void TopicState::roll_day(SimTime at) {
  const std::int64_t day = at / kDay;
  if (day != current_day_) {
    current_day_ = day;
    forwarded_today_ = 0;
  }
}

std::size_t TopicState::forwarded_today() {
  roll_day(sim_.now());
  return forwarded_today_;
}

bool TopicState::online_delivery_gated() {
  if (config_.mode != DeliveryMode::kOnLine) return false;
  const DeliveryRefinements& refinements = config_.refinements;
  const SimDuration time_of_day = sim_.now() % kDay;
  for (const QuietWindow& window : refinements.quiet_windows) {
    if (time_of_day >= window.start && time_of_day < window.end) return true;
  }
  if (!refinements.digest_times.empty() && !in_digest_) return true;
  if (refinements.max_per_day > 0 &&
      forwarded_today() >= refinements.max_per_day) {
    return true;
  }
  return false;
}

void TopicState::schedule_gate_wake() {
  if (gate_wake_.active()) return;
  const DeliveryRefinements& refinements = config_.refinements;
  const SimTime day_start = (sim_.now() / kDay) * kDay;
  const SimDuration time_of_day = sim_.now() % kDay;
  SimTime wake = kNever;
  for (const QuietWindow& window : refinements.quiet_windows) {
    if (time_of_day >= window.start && time_of_day < window.end) {
      wake = std::min(wake, day_start + window.end);
    }
  }
  if (refinements.max_per_day > 0 &&
      forwarded_today() >= refinements.max_per_day) {
    wake = std::min(wake, day_start + kDay);
  }
  // A digest gate needs no wake: the digest timers fire on their own.
  if (wake == kNever) return;
  gate_wake_ = sim_.schedule_at(wake, [this] { try_forwarding(); });
}

void TopicState::schedule_digest(SimDuration time_of_day) {
  const SimTime day_start = (sim_.now() / kDay) * kDay;
  SimTime next = day_start + time_of_day;
  if (next <= sim_.now()) next += kDay;
  // One live timer per digest instant; each firing re-arms itself. Handles
  // of already-fired timers are pruned so the vector stays small.
  std::erase_if(digest_timers_,
                [](const sim::EventHandle& handle) { return !handle.active(); });
  digest_timers_.push_back(sim_.schedule_at(next, [this, time_of_day] {
    in_digest_ = true;
    try_forwarding();
    in_digest_ = false;
    schedule_digest(time_of_day);
  }));
}

void TopicState::apply_replicated_forward(const NotificationPtr& event) {
  if (journal_ != nullptr) {
    // The peer already delivered; the transfer cannot be aborted, so a
    // failed fsync here only widens the bounded-loss window.
    (void)journal_->on_forward(topic_, event, sim_.now(), rate_credit_,
                               /*replicated=*/true);
  }
  purge(event->id);
  forwarded_.insert(event->id.value);
  ++queue_size_view_;
  record_history(event);
}

void TopicState::requeue_undelivered(const NotificationPtr& event) {
  ++stats_.requeued_undelivered;
  if (journal_ != nullptr) journal_->on_requeue(topic_, event, sim_.now());
  // Reverse do_forward's bookkeeping: the transfer never completed, so the
  // event is not on the device and occupies no device queue slot.
  forwarded_.erase(event->id.value);
  if (queue_size_view_ > 0) --queue_size_view_;
  if (event->expired_at(sim_.now())) {
    ++stats_.expired_at_proxy;
    return;
  }
  // Park in holding rather than outgoing: the link just proved itself unable
  // to carry the event, so it should not be re-pushed blindly — but an
  // explicit read can still pull it. The expiration timer is re-armed
  // without retraining the lifetime average (the event is not new).
  arm_expiration_timer(event);
  holding_.insert(event);
  ++stats_.held;
  after_queue_growth();
}

// ------------------------------------------------------------------- timeouts

void TopicState::on_expiration(NotificationId id) {
  expiration_timers_.erase(id.value);
  if (journal_ != nullptr) {
    journal_->on_expire(topic_, id, /*timer_fired=*/true, sim_.now());
  }
  if (purge(id)) ++stats_.expired_at_proxy;
}

void TopicState::on_delay_elapsed(NotificationId id) {
  auto it = pending_delay_.find(id.value);
  if (it == pending_delay_.end()) return;
  NotificationPtr event = std::move(it->second.event);
  pending_delay_.erase(it);
  if (event->expired_at(sim_.now())) {
    ++stats_.expired_at_proxy;
    if (journal_ != nullptr) {
      journal_->on_expire(topic_, id, /*timer_fired=*/false, sim_.now());
    }
    return;
  }
  prefetch_.insert(event);
  if (journal_ != nullptr) {
    const EnqueueRecord record{.event = *event,
                               .stage = JournalStage::kDelayRelease,
                               .at = sim_.now(),
                               .rate_credit = rate_credit_};
    journal_->on_enqueue(topic_, record);
  }
  after_queue_growth();
  try_forwarding();
}

// ------------------------------------------------------- overload protection

std::vector<NotificationPtr> TopicState::queued_events() const {
  std::vector<NotificationPtr> events;
  events.reserve(queued_total());
  std::unordered_set<std::uint64_t> seen;
  for (const RankedQueue* queue : {&outgoing_, &prefetch_, &holding_}) {
    for (const NotificationPtr& event : *queue) {
      if (seen.insert(event->id.value).second) events.push_back(event);
    }
  }
  return events;
}

NotificationPtr TopicState::shed_candidate() const {
  NotificationPtr worst;
  for (const RankedQueue* queue : {&outgoing_, &prefetch_, &holding_}) {
    for (const NotificationPtr& event : *queue) {
      if (worst == nullptr || shed_before(*event, *worst)) worst = event;
    }
  }
  return worst;
}

bool TopicState::shed_one() {
  const NotificationPtr victim = shed_candidate();
  if (victim == nullptr) return false;
  // Journal while the victim is still queued (mirrors on_expiration): the
  // WAL then always orders an event's enqueue before its shed, and an
  // observing journal can verify the canonical order against the live
  // queues.
  if (journal_ != nullptr) journal_->on_shed(topic_, victim, sim_.now());
  // An interrupt leaves a copy in the delay stage; purging frees that too,
  // or the memory the budget exists to bound is not actually released.
  purge(victim->id);
  disarm_expiration(victim->id);
  ++stats_.shed;
  return true;
}

void TopicState::after_queue_growth() {
  if (queue_budget_ > 0) {
    while (queued_total() > queue_budget_ && shed_one()) {
    }
  }
  if (overflow_hook_) overflow_hook_();
}

// ------------------------------------------------------------ adaptive state

std::size_t TopicState::effective_prefetch_limit() const {
  switch (config_.policy.kind) {
    case PolicyKind::kOnline:
      return std::numeric_limits<std::size_t>::max();
    case PolicyKind::kOnDemand:
    case PolicyKind::kRatePrefetch:
      return 0;
    case PolicyKind::kBufferPrefetch:
      return config_.policy.prefetch_limit;
    case PolicyKind::kAdaptive: {
      if (old_reads_.empty()) return config_.policy.initial_prefetch_limit;
      const double limit =
          old_reads_.value() * config_.policy.prefetch_limit_factor;
      return static_cast<std::size_t>(limit + 0.5);
    }
  }
  return 0;
}

SimDuration TopicState::effective_expiration_threshold() const {
  if (config_.policy.kind != PolicyKind::kAdaptive) {
    return config_.policy.expiration_threshold;
  }
  const auto interval = read_times_.value();
  if (!interval.has_value()) return config_.policy.expiration_threshold;
  const SimDuration adaptive = seconds(*interval);
  if (config_.policy.auto_threshold_safety > 0.0) {
    // Section 3.3: the automatic threshold is only safe when events live an
    // order of magnitude longer than the interval between reads.
    const double avg_exp = static_cast<double>(average_lifetime());
    if (avg_exp <= config_.policy.auto_threshold_safety *
                       static_cast<double>(adaptive)) {
      return config_.policy.expiration_threshold;
    }
  }
  return adaptive;
}

SimDuration TopicState::average_lifetime() const {
  return seconds(exp_times_.value());
}

std::optional<SimDuration> TopicState::average_read_interval() const {
  const auto interval = read_times_.value();
  if (!interval.has_value()) return std::nullopt;
  return seconds(*interval);
}

double TopicState::current_ratio() const {
  if (config_.policy.rate_ratio > 0.0) return config_.policy.rate_ratio;
  const auto read_interval = read_times_.value();
  const auto arrival_interval = arrival_times_.value();
  if (!read_interval.has_value() || !arrival_interval.has_value() ||
      *read_interval <= 0.0 || old_reads_.empty()) {
    return 0.0;
  }
  const double consumption = old_reads_.value() / *read_interval;  // msgs/s
  if (*arrival_interval <= 0.0) return 1.0;
  const double production = 1.0 / *arrival_interval;  // msgs/s
  if (production <= 0.0) return 1.0;
  return std::min(consumption / production, 1.0);
}

// ------------------------------------------------------------------- history

void TopicState::record_history(const NotificationPtr& event) {
  auto [it, inserted] = history_.try_emplace(event->id.value, event);
  if (!inserted) {
    it->second = event;  // keep the latest rank
    return;
  }
  history_order_.push_back(event->id.value);
  if (history_order_.size() > kHistoryLimit) {
    // The "garbage collection" the paper's pseudo-code omits.
    history_.erase(history_order_.front());
    history_order_.pop_front();
  }
}

std::optional<double> TopicState::history_rank(NotificationId id) const {
  auto it = history_.find(id.value);
  if (it == history_.end()) return std::nullopt;
  return it->second->rank;
}

// ------------------------------------------------------------------- restore

TopicState::Restorer::Restorer(TopicState& state) : state_(state) {
  // Only a freshly constructed TopicState may be restored into.
  WAIF_CHECK(state.stats_.arrivals == 0 && state.history_.empty() &&
             state.outgoing_.empty() && state.forwarded_.empty());
}

void TopicState::Restorer::event(const pubsub::Notification& event) {
  auto copy = std::make_shared<const pubsub::Notification>(event);
  switch (section_) {
    case ImageSection::kOutgoing:
      state_.outgoing_.insert(copy);
      break;
    case ImageSection::kPrefetch:
      state_.prefetch_.insert(copy);
      break;
    case ImageSection::kHolding:
      state_.holding_.insert(copy);
      break;
    default:  // kHistory
      state_.record_history(copy);
      break;
  }
}

void TopicState::Restorer::delayed(const pubsub::Notification& event,
                                   SimTime release_at) {
  // Instants that passed while the proxy was down fire now.
  state_.arm_delay(std::make_shared<const pubsub::Notification>(event),
                   release_at);
}

void TopicState::Restorer::armed(std::uint64_t id, SimTime expires_at) {
  state_.arm_expiration(NotificationId{id}, expires_at);
}

void TopicState::Restorer::ids(ImageSection section,
                               const std::vector<std::uint64_t>& sorted) {
  if (section == ImageSection::kForwarded) {
    state_.forwarded_.insert(sorted.begin(), sorted.end());
  } else {
    (section == ImageSection::kSeenReads ? state_.seen_read_ids_
                                         : state_.seen_sync_ids_)
        .insert(sorted.begin(), sorted.end());
  }
}

void TopicState::Restorer::scalars(std::uint64_t queue_size_view,
                                   double rate_credit, std::int64_t current_day,
                                   std::uint64_t forwarded_today) {
  state_.queue_size_view_ = static_cast<std::size_t>(queue_size_view);
  state_.rate_credit_ = rate_credit;
  state_.current_day_ = current_day;
  state_.forwarded_today_ = static_cast<std::size_t>(forwarded_today);
}

// ----------------------------------------------------------------- WAL replay

void TopicState::replay_enqueue(const EnqueueRecord& record) {
  const auto event = std::make_shared<const pubsub::Notification>(record.event);
  const NotificationId id = event->id;
  if (record.fresh) arrival_times_.add(to_seconds(record.at));
  if (record.exp_tracked) {
    // track_expiration: train the lifetime average, arm the timer.
    exp_times_.add(to_seconds(event->remaining_lifetime(record.at)));
    arm_expiration(id, event->expires_at);
  }
  switch (record.stage) {
    case JournalStage::kOutgoing:
      outgoing_.insert(event);
      break;
    case JournalStage::kWithdrawn:
      holding_.erase(id);
      prefetch_.erase(id);
      erase_delayed(id);
      outgoing_.insert(event);
      break;
    case JournalStage::kDropped:
      purge(id);
      break;
    case JournalStage::kInterrupt:
    case JournalStage::kReadDifference:
      holding_.erase(id);
      prefetch_.erase(id);
      outgoing_.insert(event);
      break;
    case JournalStage::kPrefetch:
      prefetch_.insert(event);
      break;
    case JournalStage::kDelayRelease:
      erase_delayed(id);
      prefetch_.insert(event);
      break;
    case JournalStage::kHolding:
      holding_.insert(event);
      break;
    case JournalStage::kDelay:
      if (auto it = pending_delay_.find(id.value); it != pending_delay_.end()) {
        it->second.event = event;  // a rank refresh keeps its release timer
      } else {
        arm_delay(event, record.release_at);
      }
      break;
  }
  // handle_notification records history for every arrival; the two stages
  // emitted from other code paths (READ difference, delay release) do not.
  if (record.stage != JournalStage::kReadDifference &&
      record.stage != JournalStage::kDelayRelease) {
    record_history(event);
  }
  rate_credit_ = record.rate_credit;
}

void TopicState::replay_forward(const pubsub::Notification& event, SimTime at,
                                double rate_credit, bool replicated) {
  if (replicated) {
    // apply_replicated_forward: purge every stage, record history.
    purge(event.id);
    record_history(std::make_shared<const pubsub::Notification>(event));
  } else {
    // do_forward popped the event from outgoing or prefetch.
    outgoing_.erase(event.id);
    prefetch_.erase(event.id);
    if (config_.mode == DeliveryMode::kOnLine) {
      roll_day(at);
      ++forwarded_today_;
    }
  }
  forwarded_.insert(event.id.value);
  ++queue_size_view_;
  rate_credit_ = rate_credit;
}

void TopicState::replay_read(std::uint64_t request_id, int n,
                             std::size_t queue_size, SimTime at) {
  queue_size_view_ = queue_size;
  // A duplicate READ only refreshed the queue-size view.
  if (request_id != 0 && !seen_read_ids_.insert(request_id).second) return;
  old_reads_.add(static_cast<double>(n));
  read_times_.add(to_seconds(at));
}

void TopicState::replay_sync(std::size_t queue_size, std::uint64_t sync_id,
                             const std::vector<ReadRecord>& offline_reads) {
  queue_size_view_ = queue_size;
  if (sync_id != 0 && !seen_sync_ids_.insert(sync_id).second) return;
  for (const ReadRecord& read : offline_reads) {
    old_reads_.add(static_cast<double>(read.n));
    read_times_.add(to_seconds(read.time));
  }
}

void TopicState::replay_expire(NotificationId id, bool timer_fired) {
  if (timer_fired) {
    disarm_expiration(id);
    purge(id);
  } else {
    // The delay stage released an already-expired event; only the delay
    // entry goes (the expiration timer stays armed, as in the live path).
    erase_delayed(id);
  }
}

void TopicState::replay_requeue(const pubsub::Notification& event, SimTime at) {
  forwarded_.erase(event.id.value);
  if (queue_size_view_ > 0) --queue_size_view_;
  if (event.expired_at(at)) return;
  const auto copy = std::make_shared<const pubsub::Notification>(event);
  arm_expiration_timer(copy);
  holding_.insert(copy);
}

void TopicState::replay_shed(NotificationId id) {
  purge(id);
  disarm_expiration(id);
}

}  // namespace waif::core
