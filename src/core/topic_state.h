// Per-topic last-hop scheduling state — the paper's Figure 7 made concrete.
//
// One TopicState manages one topic for one device. It owns the three queues
// of the paper's pseudo-code:
//   outgoing — events that must be forwarded as soon as possible;
//   prefetch — events that passed the expiration check and the delay stage,
//              okay to push whenever the device has buffer room;
//   holding  — events expiring too soon to be worth prefetching; still
//              available to explicit reads.
// plus the adaptive state: the moving average of read sizes (driving the
// prefetch limit), the moving average interval between reads (driving the
// expiration threshold) and the moving average of event lifetimes.
//
// Entry points mirror the paper exactly: handle_notification() is
// NOTIFICATION, handle_read() is READ, handle_network() is NETWORK, and
// try_forwarding()/expiration/delay timeouts are the auxiliary routines.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/moving_stats.h"
#include "common/time.h"
#include "core/channel.h"
#include "core/forwarding_policy.h"
#include "core/journal.h"
#include "core/ranked_queue.h"
#include "core/read_protocol.h"
#include "core/snapshot.h"
#include "net/link.h"
#include "pubsub/notification.h"
#include "sim/simulator.h"

namespace waif::core {

/// Default bound on the per-topic history ("garbage collection" limit).
inline constexpr std::size_t kDefaultHistoryLimit = 1 << 16;

struct TopicStats {
  std::uint64_t arrivals = 0;              // NOTIFICATION invocations
  std::uint64_t rank_update_arrivals = 0;  // id already known (Section 3.4)
  std::uint64_t below_threshold_drops = 0; // fresh sub-threshold arrivals
  std::uint64_t forwarded = 0;             // downlink transfers
  std::uint64_t prefetch_forwards = 0;
  std::uint64_t outgoing_forwards = 0;
  std::uint64_t read_difference_forwards = 0;
  std::uint64_t rank_change_notices = 0;   // re-sends of already-forwarded ids
  std::uint64_t read_requests = 0;
  std::uint64_t sync_requests = 0;         // deferred offline-read syncs
  std::uint64_t expired_at_proxy = 0;      // expired while queued here
  std::uint64_t expired_on_arrival = 0;    // already expired when delivered
  std::uint64_t held = 0;                  // entered the holding queue
  std::uint64_t delayed = 0;               // entered the delay stage
  std::uint64_t delay_drops = 0;           // removed from the delay stage by a rank drop
  std::uint64_t interrupts = 0;            // on-demand events that interrupted
  std::uint64_t digest_deliveries = 0;     // forwarded from a digest instant
  std::uint64_t requeued_undelivered = 0;  // transport gave up; back to holding
  std::uint64_t duplicate_reads = 0;       // retried READs absorbed by id
  std::uint64_t duplicate_syncs = 0;       // retried syncs absorbed by id
  std::uint64_t forward_aborts = 0;        // journal refused (failed fsync)
  std::uint64_t shed = 0;                  // dropped by the overload budget
  std::uint64_t protocol_errors = 0;       // malformed READ/sync rejected
};

class TopicState {
 public:
  TopicState(sim::Simulator& sim, DeviceChannel& channel, std::string topic,
             TopicConfig config, std::size_t history_limit = kDefaultHistoryLimit);

  TopicState(const TopicState&) = delete;
  TopicState& operator=(const TopicState&) = delete;

  /// Cancels every timer this state scheduled (expiration, delay, digest,
  /// gate wake-ups), so removing a topic mid-run is safe.
  ~TopicState();

  const std::string& topic() const { return topic_; }
  const TopicConfig& config() const { return config_; }
  const TopicStats& stats() const { return stats_; }

  /// Attaches (or detaches, with nullptr) a durability journal. With no
  /// journal the behaviour is bit-identical to a build without one.
  void set_journal(ProxyJournal* journal) { journal_ = journal; }

  // --- overload protection (core/overload.h) -------------------------------

  /// Caps the events across outgoing+prefetch+holding (the delay stage is
  /// excluded — its events re-enter through prefetch, where the budget
  /// catches them at release). 0 = unbounded (the default: byte-identical
  /// behaviour). When a mutation pushes the total past the budget, events
  /// are shed in canonical order (overload.h shed_before), each journaled
  /// via ProxyJournal::on_shed before erasure.
  void set_queue_budget(std::size_t budget) { queue_budget_ = budget; }
  std::size_t queue_budget() const { return queue_budget_; }

  /// Hook invoked after any mutation that grew the queues (and after the
  /// topic budget was enforced) — the proxy hangs its proxy-wide budget
  /// here. Must not re-enter this topic's entry points.
  void set_overflow_hook(std::function<void()> hook) {
    overflow_hook_ = std::move(hook);
  }

  /// Events currently across outgoing+prefetch+holding (what the budget
  /// bounds; the delay stage is excluded by design).
  std::size_t queued_total() const {
    return outgoing_.size() + prefetch_.size() + holding_.size();
  }

  /// All budget-visible events (outgoing ∪ prefetch ∪ holding), deduplicated
  /// by id, in unspecified order. For overload verification in tests and the
  /// chaos harness.
  std::vector<pubsub::NotificationPtr> queued_events() const;

  /// The event the budget would shed next (the canonical worst across the
  /// three queues), or nullptr when they are empty.
  pubsub::NotificationPtr shed_candidate() const;

  /// Sheds the canonical worst event: journals on_shed, then erases it from
  /// every queue and cancels its timers. Returns false when nothing is
  /// queued. The proxy's global-budget enforcement calls this directly.
  bool shed_one();

  /// Captures the full durable state (see core/snapshot.h): write_image
  /// into a sink that collects a TopicSnapshot.
  TopicSnapshot snapshot() const;

  /// Walks the full durable state in TopicSnapshot's canonical order, with no
  /// copy of it: the one definition of that order, shared by snapshot() and
  /// the storage layer's checkpoint encoder. `sink` provides
  ///
  ///   std::vector<std::uint64_t>& scratch_ids();  // lent for the sorts
  ///   void begin(ImageSection section, std::size_t count);
  ///   void event(const pubsub::Notification& event);
  ///   void delayed(const pubsub::Notification& event, SimTime release_at);
  ///   void armed(std::uint64_t id, SimTime expires_at);
  ///   void ids(ImageSection section, const std::vector<std::uint64_t>& sorted);
  ///   void averages(const MovingAverage& old_reads,
  ///                 const IntervalAverage& read_times,
  ///                 const MovingAverage& exp_times,
  ///                 const IntervalAverage& arrival_times);
  ///   void scalars(std::uint64_t queue_size_view, double rate_credit,
  ///                std::int64_t current_day, std::uint64_t forwarded_today);
  ///
  /// Each event, delay and armed list opens with begin() and its count; each
  /// id list arrives whole and sorted, in the scratch vector.
  template <typename Sink>
  void write_image(Sink& sink) const;

  /// Fills a freshly constructed TopicState from a snapshot: rebuilds the
  /// queues, history, averages and day budget, and re-arms the recorded
  /// expiration timers (instants already in the past are clamped to now and
  /// fire immediately, purging entries that expired while the proxy was
  /// down). Does not forward anything — the caller drives handle_network/
  /// try_forwarding once wiring is complete. Must be called before any
  /// other entry point.
  void restore(const TopicSnapshot& state);

  // --- the paper's three main routines -------------------------------------

  /// NOTIFICATION(event): a new outside event, or a re-ranked copy of a known
  /// one, arrives from the routing substrate.
  void handle_notification(const pubsub::NotificationPtr& event);

  /// READ(N, queue_size, client_events): the user triggered a read on the
  /// device and the link carried the request here. Returns the `difference`
  /// set that was moved to outgoing and forwarded — the events the device
  /// lacked. Pre: the request is well-formed (trusted callers); untrusted
  /// input goes through handle_read_checked.
  std::vector<pubsub::NotificationPtr> handle_read(const ReadRequest& request);

  /// READ with protocol-boundary validation: a malformed request (negative
  /// or absurd N, oversized queue_size, duplicate client_events) is counted
  /// as a protocol error and rejected without touching any state — no
  /// journal record, no average trained, nothing forwarded. On kOk behaves
  /// exactly like handle_read, filling `difference` when non-null.
  ReadStatus handle_read_checked(const ReadRequest& request,
                                 std::vector<pubsub::NotificationPtr>* difference);

  /// Queue-state sync from the device: after reads performed while the link
  /// was down, the device reports its true queue size and the log of offline
  /// reads at reconnection. This corrects the drifting queue_size view so
  /// prefetching can refill the buffer, and trains the same moving averages
  /// a live READ would — but unlike READ it pulls no data.
  ///
  /// `sync_id` (0 = unstamped) makes retried syncs idempotent: a repeated id
  /// refreshes the queue-size view but trains the averages only once.
  void handle_sync(std::size_t queue_size,
                   const std::vector<ReadRecord>& offline_reads = {},
                   std::uint64_t sync_id = 0);

  /// handle_sync with protocol-boundary validation (untrusted device input):
  /// an oversized queue_size or an out-of-range offline-read N rejects the
  /// whole sync as a protocol error, touching no state.
  ReadStatus handle_sync_checked(std::size_t queue_size,
                                 const std::vector<ReadRecord>& offline_reads = {},
                                 std::uint64_t sync_id = 0);

  /// NETWORK(status): the last hop changed state.
  void handle_network(net::LinkState status);

  /// Drains outgoing, then prefetches within the policy's budget. Callable
  /// any time; a no-op while the link is down.
  void try_forwarding();

  /// Replication support: records that a peer replica already transferred
  /// `event` to the device — marks it forwarded, drops any queued copy and
  /// bumps the queue-size view — without touching this replica's channel.
  void apply_replicated_forward(const pubsub::NotificationPtr& event);

  /// Graceful degradation for a reliable transport: the channel abandoned a
  /// transfer after exhausting its retries, so the event never reached the
  /// device. Reverses do_forward's bookkeeping (forwarded set, queue-size
  /// view) and parks the still-live event in the holding queue, where an
  /// explicit read can still pull it. Wire this to
  /// ReliableDeviceChannel::set_failure_handler.
  void requeue_undelivered(const pubsub::NotificationPtr& event);

  // --- adaptive state, exposed for tests/benches ---------------------------

  /// Effective prefetch limit right now (policy-dependent).
  std::size_t effective_prefetch_limit() const;
  /// Effective expiration threshold right now (policy-dependent).
  SimDuration effective_expiration_threshold() const;
  /// Moving average of event lifetimes (topic.avg_exp), in sim duration.
  SimDuration average_lifetime() const;
  /// Moving average interval between reads, if two reads have been seen.
  std::optional<SimDuration> average_read_interval() const;
  /// Consumption/production ratio used by the rate-based policy.
  double current_ratio() const;

  /// On-line deliveries made today (Section 2.2 max_per_day budget).
  std::size_t forwarded_today();
  /// True when the Section 2.2 refinements currently hold back on-line
  /// deliveries (quiet window, digest mode between instants, or an exhausted
  /// daily budget).
  bool online_delivery_gated();

  std::size_t outgoing_size() const { return outgoing_.size(); }
  std::size_t prefetch_size() const { return prefetch_.size(); }
  std::size_t holding_size() const { return holding_.size(); }
  std::size_t delay_stage_size() const { return pending_delay_.size(); }
  /// The proxy's (possibly stale) view of the device queue size.
  std::size_t queue_size_view() const { return queue_size_view_; }
  bool was_forwarded(NotificationId id) const {
    return forwarded_.contains(id.value);
  }
  /// Distinct notification ids ever transferred to the device.
  std::size_t forwarded_unique() const { return forwarded_.size(); }

 private:
  struct DelayedEvent {
    pubsub::NotificationPtr event;  // latest copy (rank updates refresh it)
    sim::EventHandle timer;
    SimTime release_at = 0;
  };

  struct ExpirationTimer {
    sim::EventHandle timer;
    SimTime expires_at = 0;
  };

  /// Where handle_notification left an event, for the journal.
  struct Placement {
    JournalStage stage = JournalStage::kDropped;
    SimTime release_at = 0;
    bool exp_tracked = false;
  };

  /// Fresh or re-ranked event with rank >= threshold on an on-demand topic:
  /// route through expiration check -> delay stage -> prefetch queue.
  Placement place_on_demand(const pubsub::NotificationPtr& event, bool known);

  /// Resets the daily delivery budget when the day rolls over.
  void roll_day();
  /// Schedules a try_forwarding wake-up when a delivery gate will lift
  /// (quiet-window end or next-day budget reset).
  void schedule_gate_wake();
  /// Arms the daily timer for one digest instant (time of day).
  void schedule_digest(SimDuration time_of_day);
  /// Registers expiration bookkeeping (average, timer) for an event.
  void track_expiration(const pubsub::NotificationPtr& event);
  /// (Re-)arms the expiration timer only, without retraining the lifetime
  /// average — for events re-entering a queue (requeue_undelivered).
  void arm_expiration_timer(const pubsub::NotificationPtr& event);

  /// A known event was re-ranked (still above threshold): refresh whichever
  /// stage holds it, or notify the device if it was already forwarded.
  /// Returns nullopt when the event is in no stage (fall through to fresh
  /// placement).
  std::optional<Placement> refresh_known(const pubsub::NotificationPtr& event);

  /// expiration_timeout(event): purge an expired event from every queue.
  void on_expiration(NotificationId id);

  /// delay_timeout(event): the delay stage released an event to prefetch.
  void on_delay_elapsed(NotificationId id);

  /// Called after any mutation that grew the budget-visible queues: sheds
  /// down to the topic budget, then gives the proxy's overflow hook a turn.
  void after_queue_growth();

  /// Transfers one event over the channel and updates the bookkeeping.
  /// Returns false when the event was dropped instead (expired).
  bool do_forward(const pubsub::NotificationPtr& event,
                  std::uint64_t TopicStats::* counter);

  /// Refills `ids` with the keys of an id set or id-keyed map, sorted.
  template <typename Container>
  static void sorted_ids(const Container& container,
                         std::vector<std::uint64_t>& ids);

  void record_history(const pubsub::NotificationPtr& event);
  bool known(NotificationId id) const { return history_.contains(id.value); }
  /// Latest rank the proxy has seen for a (possibly device-held) id.
  std::optional<double> history_rank(NotificationId id) const;

  sim::Simulator& sim_;
  DeviceChannel& channel_;
  std::string topic_;
  TopicConfig config_;
  std::size_t history_limit_;

  RankedQueue outgoing_;
  RankedQueue prefetch_;
  RankedQueue holding_;
  std::unordered_map<std::uint64_t, DelayedEvent> pending_delay_;

  /// topic.history: every event seen, id -> latest copy (bounded FIFO).
  std::unordered_map<std::uint64_t, pubsub::NotificationPtr> history_;
  std::deque<std::uint64_t> history_order_;
  /// topic.forwarded: ids ever sent to the device.
  std::unordered_set<std::uint64_t> forwarded_;
  /// Pending expiration timers, cancelled when an event leaves all queues.
  std::unordered_map<std::uint64_t, ExpirationTimer> expiration_timers_;
  /// READ/sync ids already processed (idempotence under retransmission).
  std::unordered_set<std::uint64_t> seen_read_ids_;
  std::unordered_set<std::uint64_t> seen_sync_ids_;

  MovingAverage old_reads_;        // sizes (N) of recent reads
  IntervalAverage read_times_;     // -> average interval between reads
  MovingAverage exp_times_;        // lifetimes of recent expiring events
  IntervalAverage arrival_times_;  // -> arrival rate, for the rate policy

  std::size_t queue_size_view_ = 0;
  double rate_credit_ = 0.0;

  // Section 2.2 refinement state.
  std::int64_t current_day_ = 0;
  std::size_t forwarded_today_ = 0;
  bool in_digest_ = false;
  sim::EventHandle gate_wake_;
  std::vector<sim::EventHandle> digest_timers_;

  // Overload protection: 0 = unbounded; see core/overload.h.
  std::size_t queue_budget_ = 0;
  std::function<void()> overflow_hook_;

  ProxyJournal* journal_ = nullptr;
  TopicStats stats_;
};

template <typename Container>
void TopicState::sorted_ids(const Container& container,
                            std::vector<std::uint64_t>& ids) {
  ids.clear();
  for (const auto& entry : container) {
    if constexpr (std::is_integral_v<std::decay_t<decltype(entry)>>) {
      ids.push_back(entry);
    } else {
      ids.push_back(entry.first);
    }
  }
  std::sort(ids.begin(), ids.end());
}

template <typename Sink>
void TopicState::write_image(Sink& sink) const {
  const auto queue = [&sink](ImageSection section, const RankedQueue& events) {
    sink.begin(section, events.size());
    for (const pubsub::NotificationPtr& event : events) sink.event(*event);
  };
  queue(ImageSection::kOutgoing, outgoing_);
  queue(ImageSection::kPrefetch, prefetch_);
  queue(ImageSection::kHolding, holding_);

  std::vector<std::uint64_t>& ids = sink.scratch_ids();
  sorted_ids(pending_delay_, ids);
  sink.begin(ImageSection::kDelayed, ids.size());
  for (std::uint64_t id : ids) {
    const DelayedEvent& delayed = pending_delay_.at(id);
    sink.delayed(*delayed.event, delayed.release_at);
  }

  // History in FIFO order, with the forwarded ids gathered in the same
  // pass. Both walks are chains of cache misses, so the history lookups go a
  // batch at a time with each event prefetched, and the forwarded set
  // advances one node per lookup: the misses overlap instead of queueing
  // behind each encode. The forwarded ids are sorted and written after.
  ids.clear();
  auto forwarded = forwarded_.begin();
  sink.begin(ImageSection::kHistory, history_order_.size());
  constexpr std::size_t kBatch = 16;
  const pubsub::Notification* batch[kBatch] = {};
  for (auto it = history_order_.begin(); it != history_order_.end();) {
    std::size_t n = 0;
    for (; n < kBatch && it != history_order_.end(); ++n, ++it) {
      batch[n] = history_.at(*it).get();
      __builtin_prefetch(batch[n]);
      if (forwarded != forwarded_.end()) ids.push_back(*forwarded++);
    }
    for (std::size_t i = 0; i < n; ++i) sink.event(*batch[i]);
  }
  ids.insert(ids.end(), forwarded, forwarded_.end());
  std::sort(ids.begin(), ids.end());
  sink.ids(ImageSection::kForwarded, ids);

  sorted_ids(expiration_timers_, ids);
  sink.begin(ImageSection::kArmed, ids.size());
  for (std::uint64_t id : ids) {
    sink.armed(id, expiration_timers_.at(id).expires_at);
  }

  sorted_ids(seen_read_ids_, ids);
  sink.ids(ImageSection::kSeenReads, ids);
  sorted_ids(seen_sync_ids_, ids);
  sink.ids(ImageSection::kSeenSyncs, ids);

  sink.averages(old_reads_, read_times_, exp_times_, arrival_times_);
  sink.scalars(queue_size_view_, rate_credit_, current_day_, forwarded_today_);
}

}  // namespace waif::core
