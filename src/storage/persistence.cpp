#include "storage/persistence.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "core/topic_state.h"

namespace waif::storage {

using core::JournalStage;
using pubsub::Notification;
using pubsub::NotificationPtr;

// --- journaling --------------------------------------------------------------

ProxyPersistence::ProxyPersistence(sim::Simulator& sim, StorageBackend& backend,
                                   PersistenceConfig config)
    : sim_(sim),
      backend_(backend),
      config_(config),
      writer_(backend, kWalBlobName) {
  if (config_.group_commit) {
    writer_.set_group_commit(true);
    flush_hook_id_ =
        sim_.add_post_event_hook([this] { flush_group(); });
  }
}

ProxyPersistence::~ProxyPersistence() {
  detach();
  if (flush_hook_id_ != 0) sim_.remove_post_event_hook(flush_hook_id_);
}

void ProxyPersistence::resume_from(const RecoveryResult& recovery) {
  writer_.reset_count(recovery.wal_records);
  // Replay started at the newest snapshot's watermark (0 without one).
  last_snapshot_watermark_ = recovery.wal_records - recovery.replayed;
  if (recovery.from_snapshot) next_snapshot_seq_ = recovery.snapshot_seq + 1;
}

void ProxyPersistence::attach(core::Proxy& proxy) {
  if (attached_ == &proxy) return;
  detach();
  attached_ = &proxy;
  proxy.set_journal(this);
}

void ProxyPersistence::detach() {
  if (attached_ != nullptr) attached_->set_journal(nullptr);
  forget();
}

void ProxyPersistence::forget() {
  attached_ = nullptr;
  snapshot_event_.cancel();
  snapshot_pending_ = false;
}

void ProxyPersistence::set_channel(core::ReliableDeviceChannel* channel) {
  if (channel_ != nullptr) channel_->set_ack_observer({});
  channel_ = channel;
  if (channel_ != nullptr) {
    channel_->set_ack_observer(
        [this](const NotificationPtr& event) { on_device_ack(event); });
  }
}

void ProxyPersistence::set_record_hook(
    std::function<void(std::uint64_t)> hook) {
  record_hook_ = std::move(hook);
}

void ProxyPersistence::append(const WalRecord& record) {
  writer_.append(record);
  ++stats_.records;
}

void ProxyPersistence::flush_group() {
  if (writer_.unsynced_records() == 0) return;
  if (writer_.sync()) {
    ++stats_.syncs;
  } else {
    ++stats_.failed_syncs;
  }
}

void ProxyPersistence::maybe_sync() {
  // Group commit replaces the per-record interval policy: the whole batch
  // is fsynced once by the deferred flush event.
  if (config_.group_commit) return;
  if (config_.sync_interval == 0) return;
  if (writer_.unsynced_records() < config_.sync_interval) return;
  if (writer_.sync()) {
    ++stats_.syncs;
  } else {
    ++stats_.failed_syncs;
  }
}

void ProxyPersistence::maybe_request_snapshot() {
  if (config_.snapshot_interval == 0 || attached_ == nullptr ||
      snapshot_pending_) {
    return;
  }
  if (writer_.record_count() - last_snapshot_watermark_ <
      config_.snapshot_interval) {
    return;
  }
  // Defer to a fresh event at the current instant: snapshots must never run
  // in the middle of a TopicState callback.
  snapshot_pending_ = true;
  snapshot_event_ = sim_.schedule_at(sim_.now(), [this] {
    snapshot_pending_ = false;
    snapshot_now();
  });
}

bool ProxyPersistence::snapshot_now() {
  if (attached_ == nullptr) return false;
  // The WAL must be durable up to the watermark the snapshot claims —
  // otherwise a crash could leave a snapshot covering records the log lost,
  // and the record indices of the next incarnation would collide with it.
  if (!writer_.sync()) {
    ++stats_.failed_syncs;
    ++stats_.failed_snapshots;
    return false;
  }
  ++stats_.syncs;

  const std::uint64_t watermark = writer_.record_count();
  const std::vector<std::string> names = attached_->topic_names();
  core::ChannelSnapshot channel;
  if (channel_ != nullptr) channel = channel_->snapshot();
  begin_snapshot(checkpoint_, watermark, sim_.now(),
                 channel_ != nullptr ? &channel : nullptr, names.size());
  for (const std::string& name : names) {
    checkpoint_.str(name);
    attached_->topic(name)->write_image(image_encoder_);
  }
  finish_snapshot(checkpoint_);

  const std::string blob = snapshot_blob_name(next_snapshot_seq_);
  backend_.write(blob, checkpoint_.bytes());
  if (!backend_.sync(blob)) {
    // A snapshot that may not survive a crash is worse than none: a torn
    // blob would be rejected at recovery anyway, so drop it now.
    backend_.remove(blob);
    ++stats_.failed_syncs;
    ++stats_.failed_snapshots;
    return false;
  }
  ++stats_.snapshots;
  stats_.snapshot_bytes += checkpoint_.size();
  last_snapshot_watermark_ = watermark;
  ++next_snapshot_seq_;

  // Prune all but the newest keep_snapshots checkpoints.
  std::vector<std::uint64_t> seqs;
  for (const std::string& name : backend_.list()) {
    std::uint64_t seq = 0;
    if (parse_snapshot_name(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  const std::uint64_t keep = std::max<std::uint64_t>(1, config_.keep_snapshots);
  if (seqs.size() > keep) {
    for (std::size_t i = 0; i + keep < seqs.size(); ++i) {
      backend_.remove(snapshot_blob_name(seqs[i]));
    }
  }
  return true;
}

bool ProxyPersistence::adopt(const std::string& topic) {
  if (attached_ == nullptr) return false;
  const core::TopicState* state = attached_->topic(topic);
  WAIF_CHECK(state != nullptr);
  WalRecord wal;
  wal.type = WalRecordType::kAdopt;
  wal.topic = topic;
  wal.at = sim_.now();
  wal.adopted = std::make_shared<const core::TopicSnapshot>(state->snapshot());
  append(wal);
  const bool durable = writer_.sync();
  if (durable) {
    ++stats_.syncs;
  } else {
    ++stats_.failed_syncs;
  }
  if (record_hook_) record_hook_(writer_.record_count());
  return durable;
}

WalRecord& ProxyPersistence::start(WalRecordType type, const std::string& topic,
                                   SimTime at) {
  record_.type = type;
  record_.topic = topic;
  record_.at = at;
  return record_;
}

void ProxyPersistence::commit() {
  append(record_);
  maybe_sync();
  maybe_request_snapshot();
  if (record_hook_) record_hook_(writer_.record_count());
}

void ProxyPersistence::on_enqueue(const std::string& topic,
                                  const core::EnqueueRecord& record) {
  WalRecord& wal = start(WalRecordType::kEnqueue, topic, record.at);
  wal.event = record.event;
  wal.stage = record.stage;
  wal.release_at = record.release_at;
  wal.fresh = record.fresh;
  wal.exp_tracked = record.exp_tracked;
  wal.rate_credit = record.rate_credit;
  commit();
}

bool ProxyPersistence::on_forward(const std::string& topic,
                                  const NotificationPtr& event, SimTime at,
                                  double rate_credit, bool replicated) {
  WalRecord& wal = start(WalRecordType::kForward, topic, at);
  wal.event = *event;
  wal.replicated = replicated;
  wal.rate_credit = rate_credit;
  append(wal);
  bool durable = true;
  if (config_.sync_on_forward) {
    durable = writer_.sync();
    if (durable) {
      ++stats_.syncs;
    } else {
      // The record stays in the unsynced tail. If a later sync lands it, it
      // describes a delivery that never happened — recovery then counts the
      // event as forwarded and the device never receives it: a loss inside
      // the documented window, never a duplicate.
      ++stats_.failed_syncs;
      ++stats_.forward_refusals;
    }
  } else {
    maybe_sync();
  }
  maybe_request_snapshot();
  if (record_hook_) record_hook_(writer_.record_count());
  // A replicated forward cannot be aborted (the peer already delivered);
  // the caller ignores the return value there.
  return durable;
}

void ProxyPersistence::on_read(const std::string& topic,
                               std::uint64_t request_id, int n,
                               std::size_t queue_size, SimTime at) {
  WalRecord& wal = start(WalRecordType::kRead, topic, at);
  wal.request_id = request_id;
  wal.n = n;
  wal.queue_size = queue_size;
  commit();
}

void ProxyPersistence::on_sync(const std::string& topic, std::size_t queue_size,
                               std::uint64_t sync_id,
                               const std::vector<core::ReadRecord>& offline_reads,
                               SimTime at) {
  WalRecord& wal = start(WalRecordType::kSync, topic, at);
  wal.queue_size = queue_size;
  wal.sync_id = sync_id;
  wal.offline_reads = offline_reads;
  commit();
}

void ProxyPersistence::on_expire(const std::string& topic, NotificationId id,
                                 bool timer_fired, SimTime at) {
  WalRecord& wal = start(WalRecordType::kExpire, topic, at);
  wal.id = id.value;
  wal.timer_fired = timer_fired;
  commit();
}

void ProxyPersistence::on_requeue(const std::string& topic,
                                  const NotificationPtr& event, SimTime at) {
  start(WalRecordType::kRequeue, topic, at).event = *event;
  commit();
}

void ProxyPersistence::on_shed(const std::string& topic,
                               const NotificationPtr& event, SimTime at) {
  start(WalRecordType::kShed, topic, at).event = *event;
  commit();
}

void ProxyPersistence::on_device_ack(const NotificationPtr& event) {
  start(WalRecordType::kAck, event->topic, sim_.now()).id = event->id.value;
  commit();
}

void ProxyPersistence::on_promoted(core::Proxy& active) {
  // Follow the active role: journal the promoted replica and re-base the log
  // on its state (its history differs from the crashed active's tail).
  attach(active);
  snapshot_now();
}

void ProxyPersistence::warm_restart(core::Proxy& fresh) {
  std::map<std::string, core::TopicConfig> configs;
  for (const std::string& name : fresh.topic_names()) {
    configs.emplace(name, fresh.topic(name)->config());
  }
  restore_into(fresh, recover(backend_, configs));
}

// --- recovery replay ---------------------------------------------------------

namespace {

/// Mutable per-topic image the WAL tail is folded into: the same state as a
/// TopicSnapshot, in map form so record replay can erase/insert by id.
struct TopicImage {
  std::unordered_map<std::uint64_t, Notification> outgoing;
  std::unordered_map<std::uint64_t, Notification> prefetch;
  std::unordered_map<std::uint64_t, Notification> holding;
  struct Delayed {
    Notification event;
    SimTime release_at = 0;
  };
  std::unordered_map<std::uint64_t, Delayed> delayed;
  std::unordered_map<std::uint64_t, Notification> history;
  std::deque<std::uint64_t> history_order;
  std::set<std::uint64_t> forwarded;
  std::map<std::uint64_t, SimTime> armed;
  std::set<std::uint64_t> seen_read_ids;
  std::set<std::uint64_t> seen_sync_ids;
  AverageSnapshot old_reads;
  IntervalSnapshot read_times;
  AverageSnapshot exp_times;
  IntervalSnapshot arrival_times;
  std::uint64_t queue_size_view = 0;
  double rate_credit = 0.0;
  std::int64_t current_day = 0;
  std::uint64_t forwarded_today = 0;

  // Replay inputs from the topic's configuration.
  std::size_t window = 8;
  bool online_mode = false;

  void record_history(const Notification& event) {
    auto [it, inserted] = history.try_emplace(event.id.value, event);
    if (!inserted) {
      it->second = event;
      return;
    }
    history_order.push_back(event.id.value);
    if (history_order.size() > core::kDefaultHistoryLimit) {
      history.erase(history_order.front());
      history_order.pop_front();
    }
  }

  void erase_delayed(std::uint64_t id) { delayed.erase(id); }

  void erase_everywhere(std::uint64_t id) {
    outgoing.erase(id);
    prefetch.erase(id);
    holding.erase(id);
    delayed.erase(id);
  }
};

TopicImage image_from_snapshot(const core::TopicSnapshot& snap) {
  TopicImage image;
  for (const Notification& event : snap.outgoing) {
    image.outgoing.emplace(event.id.value, event);
  }
  for (const Notification& event : snap.prefetch) {
    image.prefetch.emplace(event.id.value, event);
  }
  for (const Notification& event : snap.holding) {
    image.holding.emplace(event.id.value, event);
  }
  for (const core::DelayedSnapshot& delayed : snap.delayed) {
    image.delayed.emplace(delayed.event.id.value,
                          TopicImage::Delayed{delayed.event, delayed.release_at});
  }
  for (const Notification& event : snap.history) image.record_history(event);
  image.forwarded.insert(snap.forwarded.begin(), snap.forwarded.end());
  for (const core::ArmedExpiration& armed : snap.expiration_armed) {
    image.armed.emplace(armed.id, armed.expires_at);
  }
  image.seen_read_ids.insert(snap.seen_read_ids.begin(),
                             snap.seen_read_ids.end());
  image.seen_sync_ids.insert(snap.seen_sync_ids.begin(),
                             snap.seen_sync_ids.end());
  image.old_reads = snap.old_reads;
  image.read_times = snap.read_times;
  image.exp_times = snap.exp_times;
  image.arrival_times = snap.arrival_times;
  image.queue_size_view = snap.queue_size_view;
  image.rate_credit = snap.rate_credit;
  image.current_day = snap.current_day;
  image.forwarded_today = snap.forwarded_today;
  return image;
}

/// RankHigher for notification values (rank order of the snapshot queues).
bool rank_higher(const Notification& a, const Notification& b) {
  if (a.rank != b.rank) return a.rank > b.rank;
  if (a.published_at != b.published_at) return a.published_at > b.published_at;
  return a.id.value > b.id.value;
}

std::vector<Notification> queue_to_vector(
    const std::unordered_map<std::uint64_t, Notification>& queue) {
  std::vector<Notification> events;
  events.reserve(queue.size());
  for (const auto& [id, event] : queue) events.push_back(event);
  std::sort(events.begin(), events.end(), rank_higher);
  return events;
}

core::TopicSnapshot image_to_snapshot(const TopicImage& image) {
  core::TopicSnapshot snap;
  snap.outgoing = queue_to_vector(image.outgoing);
  snap.prefetch = queue_to_vector(image.prefetch);
  snap.holding = queue_to_vector(image.holding);
  snap.delayed.reserve(image.delayed.size());
  for (const auto& [id, delayed] : image.delayed) {
    snap.delayed.push_back({delayed.event, delayed.release_at});
  }
  std::sort(snap.delayed.begin(), snap.delayed.end(),
            [](const core::DelayedSnapshot& a, const core::DelayedSnapshot& b) {
              return a.event.id.value < b.event.id.value;
            });
  snap.history.reserve(image.history_order.size());
  for (std::uint64_t id : image.history_order) {
    snap.history.push_back(image.history.at(id));
  }
  snap.forwarded.assign(image.forwarded.begin(), image.forwarded.end());
  snap.expiration_armed.reserve(image.armed.size());
  for (const auto& [id, expires_at] : image.armed) {
    snap.expiration_armed.push_back({id, expires_at});
  }
  snap.seen_read_ids.assign(image.seen_read_ids.begin(),
                            image.seen_read_ids.end());
  snap.seen_sync_ids.assign(image.seen_sync_ids.begin(),
                            image.seen_sync_ids.end());
  snap.old_reads = image.old_reads;
  snap.read_times = image.read_times;
  snap.exp_times = image.exp_times;
  snap.arrival_times = image.arrival_times;
  snap.queue_size_view = image.queue_size_view;
  snap.rate_credit = image.rate_credit;
  snap.current_day = image.current_day;
  snap.forwarded_today = image.forwarded_today;
  return snap;
}

/// Pure-data mirror of handle_notification's queue transition (the
/// JournalStage contract in core/journal.h).
void replay_enqueue(TopicImage& image, const WalRecord& record) {
  const std::uint64_t id = record.event.id.value;
  if (record.fresh) {
    image.arrival_times.add(to_seconds(record.at), image.window);
  }
  if (record.exp_tracked) {
    // track_expiration: train the lifetime average, arm the timer.
    image.exp_times.add(to_seconds(record.event.expires_at - record.at),
                        image.window);
    image.armed.insert_or_assign(id, record.event.expires_at);
  }
  switch (record.stage) {
    case JournalStage::kOutgoing:
      image.outgoing.insert_or_assign(id, record.event);
      break;
    case JournalStage::kWithdrawn:
      image.holding.erase(id);
      image.prefetch.erase(id);
      image.erase_delayed(id);
      image.outgoing.insert_or_assign(id, record.event);
      break;
    case JournalStage::kDropped:
      image.erase_everywhere(id);
      break;
    case JournalStage::kInterrupt:
      image.holding.erase(id);
      image.prefetch.erase(id);
      image.outgoing.insert_or_assign(id, record.event);
      break;
    case JournalStage::kReadDifference:
      image.prefetch.erase(id);
      image.holding.erase(id);
      image.outgoing.insert_or_assign(id, record.event);
      break;
    case JournalStage::kPrefetch:
      image.prefetch.insert_or_assign(id, record.event);
      break;
    case JournalStage::kDelayRelease:
      image.erase_delayed(id);
      image.prefetch.insert_or_assign(id, record.event);
      break;
    case JournalStage::kHolding:
      image.holding.insert_or_assign(id, record.event);
      break;
    case JournalStage::kDelay:
      image.delayed.insert_or_assign(
          id, TopicImage::Delayed{record.event, record.release_at});
      break;
  }
  // handle_notification records history for every arrival; the two stages
  // emitted from other code paths (READ difference, delay release) do not.
  if (record.stage != JournalStage::kReadDifference &&
      record.stage != JournalStage::kDelayRelease) {
    image.record_history(record.event);
  }
  image.rate_credit = record.rate_credit;
}

void replay_forward(TopicImage& image, const WalRecord& record) {
  const std::uint64_t id = record.event.id.value;
  if (record.replicated) {
    // apply_replicated_forward: purge every stage, record history.
    image.erase_everywhere(id);
    image.record_history(record.event);
  } else {
    // do_forward popped the event from outgoing or prefetch.
    image.outgoing.erase(id);
    image.prefetch.erase(id);
    if (image.online_mode) {
      const std::int64_t day = record.at / kDay;
      if (day != image.current_day) {
        image.current_day = day;
        image.forwarded_today = 0;
      }
      ++image.forwarded_today;
    }
  }
  image.forwarded.insert(id);
  ++image.queue_size_view;
  image.rate_credit = record.rate_credit;
}

void replay_read(TopicImage& image, const WalRecord& record) {
  if (record.request_id != 0 &&
      !image.seen_read_ids.insert(record.request_id).second) {
    // Duplicate READ: only the queue-size view refreshes.
    image.queue_size_view = record.queue_size;
    return;
  }
  image.old_reads.add(static_cast<double>(record.n), image.window);
  image.read_times.add(to_seconds(record.at), image.window);
  image.queue_size_view = record.queue_size;
}

void replay_sync(TopicImage& image, const WalRecord& record) {
  if (record.sync_id != 0 &&
      !image.seen_sync_ids.insert(record.sync_id).second) {
    image.queue_size_view = record.queue_size;
    return;
  }
  for (const core::ReadRecord& read : record.offline_reads) {
    image.old_reads.add(static_cast<double>(read.n), image.window);
    image.read_times.add(to_seconds(read.time), image.window);
  }
  image.queue_size_view = record.queue_size;
}

void replay_expire(TopicImage& image, const WalRecord& record) {
  if (record.timer_fired) {
    image.armed.erase(record.id);
    image.erase_everywhere(record.id);
  } else {
    // The delay stage released an already-expired event; only the delay
    // entry goes (the expiration timer stays armed, as in the live path).
    image.erase_delayed(record.id);
  }
}

void replay_shed(TopicImage& image, const WalRecord& record) {
  // Mirrors TopicState::shed_one: the victim leaves every queue (including
  // any delay-stage copy an interrupt left behind) and its expiration timer
  // disarms.
  const std::uint64_t id = record.event.id.value;
  image.armed.erase(id);
  image.erase_everywhere(id);
}

void replay_adopt(TopicImage& image, const WalRecord& record) {
  // The topic arrived whole: its image replaces whatever an older snapshot
  // or earlier records held for it. The replay inputs stay the config's.
  TopicImage adopted = image_from_snapshot(*record.adopted);
  adopted.window = image.window;
  adopted.online_mode = image.online_mode;
  image = std::move(adopted);
}

void replay_requeue(TopicImage& image, const WalRecord& record) {
  const std::uint64_t id = record.event.id.value;
  image.forwarded.erase(id);
  if (image.queue_size_view > 0) --image.queue_size_view;
  if (record.event.expired_at(record.at)) return;
  if (record.event.expires()) {
    image.armed.insert_or_assign(id, record.event.expires_at);
  }
  image.holding.insert_or_assign(id, record.event);
}

}  // namespace

RecoveryResult ProxyPersistence::recover(
    StorageBackend& backend,
    const std::map<std::string, core::TopicConfig>& configs) {
  RecoveryResult result;

  ProxySnapshot base;
  std::uint64_t seq = 0;
  result.from_snapshot =
      load_latest_snapshot(backend, &base, &seq, &result.damaged_snapshots);
  if (result.from_snapshot) result.snapshot_seq = seq;

  // Start from the snapshot image (or empty), then fold in the tail.
  std::map<std::string, TopicImage> images;
  for (const auto& [name, topic] : base.topics) {
    images.emplace(name, image_from_snapshot(topic));
  }
  for (const auto& [name, config] : configs) {
    TopicImage& image = images[name];  // creates empty images for new topics
    image.window = config.policy.moving_average_window;
    image.online_mode = config.mode == core::DeliveryMode::kOnLine;
  }

  // Replay straight from the scan: the log is never held as records.
  const std::uint64_t watermark =
      result.from_snapshot ? base.watermark : 0;
  std::uint64_t index = 0;
  const WalScan wal = scan_wal(backend, kWalBlobName, [&](WalRecord& record) {
    if (index++ < watermark) return;
    // ACKs journal device confirmations; the image does not depend on them.
    if (record.type == WalRecordType::kAck) return;
    TopicImage& image = images[record.topic];
    switch (record.type) {
      case WalRecordType::kEnqueue:
        replay_enqueue(image, record);
        break;
      case WalRecordType::kForward:
        replay_forward(image, record);
        break;
      case WalRecordType::kRead:
        replay_read(image, record);
        break;
      case WalRecordType::kSync:
        replay_sync(image, record);
        break;
      case WalRecordType::kExpire:
        replay_expire(image, record);
        break;
      case WalRecordType::kRequeue:
        replay_requeue(image, record);
        break;
      case WalRecordType::kShed:
        replay_shed(image, record);
        break;
      case WalRecordType::kAdopt:
        replay_adopt(image, record);
        break;
      case WalRecordType::kAck:
        break;
    }
    ++result.replayed;
  });
  WAIF_CHECK(watermark <= wal.record_count);
  result.wal_records = wal.record_count;
  result.crc_failures = wal.crc_failures;
  result.torn_tail = wal.torn_tail;
  if (!wal.clean()) {
    // Repair: everything past the last valid frame is noise from the crash.
    backend.truncate(kWalBlobName, wal.valid_bytes);
    result.repaired = true;
  }

  result.state.watermark = wal.record_count;
  result.state.taken_at = base.taken_at;
  result.state.has_channel = base.has_channel;
  result.state.channel = base.channel;
  for (const auto& [name, image] : images) {
    result.state.topics.emplace_back(name, image_to_snapshot(image));
  }
  return result;
}

void ProxyPersistence::restore_into(core::Proxy& proxy,
                                    const RecoveryResult& recovery) {
  for (const auto& [name, snapshot] : recovery.state.topics) {
    core::TopicState* topic = proxy.topic(name);
    WAIF_CHECK(topic != nullptr);
    topic->restore(snapshot);
  }
}

}  // namespace waif::storage
