#include "storage/persistence.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "core/topic_state.h"

namespace waif::storage {

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
  last_snapshot_watermark_ = recovery.snapshot_watermark;
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

  // Prune all but the newest kKeptSnapshots checkpoints.
  std::vector<std::uint64_t> seqs;
  for (const std::string& name : backend_.list()) {
    std::uint64_t seq = 0;
    if (parse_snapshot_name(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  for (std::size_t i = 0; i + kKeptSnapshots < seqs.size(); ++i) {
    backend_.remove(snapshot_blob_name(seqs[i]));
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
  wal.adopted = topic_image(*state);
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

/// The rebuilt topics' last hop: replay never forwards, so nothing crosses.
class InertChannel final : public core::DeviceChannel {
 public:
  bool link_up() const override { return false; }
  bool deliver(const NotificationPtr&) override { return false; }
};

}  // namespace

void replay_wal_record(core::TopicState& topic, const WalRecord& record) {
  // A kAdopt image replaces the whole topic, and a restore needs a fresh
  // one: the caller rebuilds the topic from it instead.
  WAIF_CHECK(record.type != WalRecordType::kAdopt);
  switch (record.type) {
    case WalRecordType::kEnqueue:
      topic.replay_enqueue({.event = record.event,
                            .stage = record.stage,
                            .at = record.at,
                            .release_at = record.release_at,
                            .fresh = record.fresh,
                            .exp_tracked = record.exp_tracked,
                            .rate_credit = record.rate_credit});
      break;
    case WalRecordType::kForward:
      topic.replay_forward(record.event, record.at, record.rate_credit,
                           record.replicated);
      break;
    case WalRecordType::kRead:
      topic.replay_read(record.request_id, record.n,
                        static_cast<std::size_t>(record.queue_size), record.at);
      break;
    case WalRecordType::kSync:
      topic.replay_sync(static_cast<std::size_t>(record.queue_size),
                        record.sync_id, record.offline_reads);
      break;
    case WalRecordType::kExpire:
      topic.replay_expire(NotificationId{record.id}, record.timer_fired);
      break;
    case WalRecordType::kRequeue:
      topic.replay_requeue(record.event, record.at);
      break;
    case WalRecordType::kShed:
      topic.replay_shed(record.event.id);
      break;
    case WalRecordType::kAck:  // a device confirmation: no topic state
    case WalRecordType::kAdopt:
      break;
  }
}

RecoveryResult ProxyPersistence::recover(
    StorageBackend& backend,
    const std::map<std::string, core::TopicConfig>& configs) {
  RecoveryResult result;

  ProxySnapshot base;
  std::uint64_t seq = 0;
  result.from_snapshot =
      load_latest_snapshot(backend, &base, &seq, &result.damaged_snapshots);
  if (result.from_snapshot) result.snapshot_seq = seq;

  // Each topic is rebuilt by TopicState's own replay, on a simulator that
  // never runs and a channel that never delivers. The simulator is declared
  // first so it outlives the topics' timers.
  sim::Simulator sim;
  InertChannel channel;
  std::map<std::string, std::unique_ptr<core::TopicState>> topics;
  const auto rebuild = [&](const std::string& name) -> core::TopicState& {
    // A topic missing from `configs` replays under the default config.
    const auto config = configs.find(name);
    std::unique_ptr<core::TopicState>& topic = topics[name];
    topic = std::make_unique<core::TopicState>(
        sim, channel, name,
        config != configs.end() ? config->second : core::TopicConfig{});
    return *topic;
  };
  const auto topic = [&](const std::string& name) -> core::TopicState& {
    const auto it = topics.find(name);
    return it != topics.end() ? *it->second : rebuild(name);
  };

  // Start from the snapshot image (or empty), then fold in the tail. Every
  // image was validated when its blob or record decoded.
  for (const TopicImageRange& image : base.topics) {
    WAIF_CHECK(restore_topic_image(base.image(image), rebuild(image.name)));
  }
  for (const auto& [name, config] : configs) topic(name);

  // Replay straight from the scan: the log is never held as records.
  const std::uint64_t watermark =
      result.from_snapshot ? base.watermark : 0;
  result.snapshot_watermark = watermark;
  std::uint64_t index = 0;
  const WalScan wal = scan_wal(backend, kWalBlobName, [&](WalRecord& record) {
    if (index++ < watermark) return;
    // ACKs journal device confirmations: no topic depends on them.
    if (record.type == WalRecordType::kAck) return;
    if (record.type == WalRecordType::kAdopt) {
      // The topic arrived whole: its image replaces whatever an older
      // snapshot or earlier records held for it.
      WAIF_CHECK(restore_topic_image(record.adopted, rebuild(record.topic)));
    } else {
      replay_wal_record(topic(record.topic), record);
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
  ByteWriter images;
  TopicImageEncoder encoder(images);
  for (const auto& [name, state] : topics) {
    const std::size_t offset = images.size();
    state->write_image(encoder);
    result.state.topics.push_back({name, offset, images.size() - offset});
  }
  result.state.bytes = images.take();
  return result;
}

void ProxyPersistence::restore_into(core::Proxy& proxy,
                                    const RecoveryResult& recovery) {
  for (const TopicImageRange& image : recovery.state.topics) {
    core::TopicState* topic = proxy.topic(image.name);
    WAIF_CHECK(topic != nullptr);
    WAIF_CHECK(restore_topic_image(recovery.state.image(image), *topic));
  }
}

}  // namespace waif::storage
