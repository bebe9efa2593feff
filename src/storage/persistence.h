// Crash-consistent proxy persistence: the glue between core's journal hooks
// and the WAL/snapshot blobs.
//
// A ProxyPersistence attaches to one Proxy as its journal. Every mutation
// becomes one WAL record; forwards follow the write-ahead discipline — the
// record is made durable *before* the event is handed to the device channel
// (on_forward returns false on a failed fsync and the proxy parks the event
// instead of delivering it), so recovery can never observe a delivery the
// log missed, and therefore never re-delivers: duplicates are structurally
// impossible. What a crash *can* lose is bounded by the sync policy: at most
// `sync_interval` unsynced non-forward records (plus every record after the
// last successful sync when sync_on_forward is off).
//
// Periodically (every `snapshot_interval` records) the full proxy image is
// checkpointed so recovery replays only the WAL tail past the snapshot's
// watermark. The image is encoded straight from the live topics
// (TopicState::write_image) into one reused buffer. Snapshots are deferred
// to a fresh simulator event at the current instant — never taken in the
// middle of a TopicState callback — and the WAL is synced first so a
// snapshot can never cover records that are not themselves durable.
//
// recover() is the other half: load the newest valid snapshot, restore each
// topic's image into a scratch TopicState and replay the WAL tail through
// TopicState's own replay entry points (replay_wal_record; the JournalStage
// table in core/journal.h), repair a damaged WAL tail by truncating it, and
// hand back the rebuilt topics' images, as bytes, in a RecoveryResult that
// restore_into() applies to a freshly built Proxy.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/forwarding_policy.h"
#include "core/journal.h"
#include "core/proxy.h"
#include "core/reliable_channel.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace waif::storage {

struct PersistenceConfig {
  /// Take a checkpoint every this many WAL records; 0 = never (recovery
  /// replays the whole log).
  std::uint64_t snapshot_interval = 256;
  /// Sync the WAL once this many records are unsynced. 1 = sync every
  /// record (smallest loss window, most fsyncs).
  std::uint64_t sync_interval = 1;
  /// Sync the WAL inside on_forward, before the delivery is allowed — the
  /// write-ahead discipline that makes duplicates structurally impossible.
  /// Turning this off widens the loss window to the whole unsynced tail and
  /// weakens that guarantee: a forward record lost in a crash leaves the
  /// event in the recovered queues, so it is delivered again — harmless
  /// while the device still holds the copy (re-delivery replaces it), but
  /// an event the user already read surfaces a second time.
  bool sync_on_forward = true;
  /// Batch WAL framing with one fsync per producing simulator event instead
  /// of one per record. Appends stage in the writer; a post-event hook on
  /// the simulator flushes the whole batch with one backend append and one
  /// fsync the moment the producing callback returns — before ANY later
  /// event (a second arrival at the same instant, a deferred snapshot, a
  /// crash) can run, so nothing observable ever sees the staged window.
  /// Forwards still flush+fsync inline (the write-ahead discipline is
  /// untouched). Off by default: the per-record call pattern (and every
  /// digest) is byte-identical to the pre-group-commit code.
  bool group_commit = false;
};

struct PersistenceStats {
  std::uint64_t records = 0;          // WAL records appended
  std::uint64_t syncs = 0;            // successful WAL syncs
  std::uint64_t failed_syncs = 0;     // fsync failures (WAL or snapshot)
  std::uint64_t snapshots = 0;        // checkpoints made durable
  std::uint64_t snapshot_bytes = 0;   // bytes of those checkpoint blobs
  std::uint64_t failed_snapshots = 0; // checkpoints aborted by a failed sync
  std::uint64_t forward_refusals = 0; // on_forward returned false
};

/// Applies one WAL record to `topic` through its replay entry points — the
/// one dispatch recovery and migration share. kAck changes nothing; a
/// kAdopt record is not accepted (its image replaces the topic: the caller
/// rebuilds it with restore_topic_image).
void replay_wal_record(core::TopicState& topic, const WalRecord& record);

/// What recover() found, ready to be applied to a fresh proxy.
struct RecoveryResult {
  /// The rebuilt image: each topic's image freshly encoded into
  /// `state.bytes` (topics sorted by name). `state.watermark` is the total
  /// valid WAL record count — seed a continuing ProxyPersistence from it via
  /// resume_from().
  ProxySnapshot state;
  std::uint64_t wal_records = 0;       // valid records in the log
  /// Records the snapshot covers (0 without one): where replay started.
  std::uint64_t snapshot_watermark = 0;
  std::uint64_t replayed = 0;          // records applied past the watermark
  bool from_snapshot = false;
  std::uint64_t snapshot_seq = 0;
  std::uint64_t damaged_snapshots = 0; // snapshots skipped as invalid
  bool repaired = false;               // damaged WAL tail truncated away
  std::uint64_t crc_failures = 0;      // WAL frames rejected by CRC
  bool torn_tail = false;              // WAL ended mid-frame
};

class ProxyPersistence final : public core::ProxyJournal,
                               public core::ProxyRecovery {
 public:
  ProxyPersistence(sim::Simulator& sim, StorageBackend& backend,
                   PersistenceConfig config = {});
  ~ProxyPersistence() override;

  ProxyPersistence(const ProxyPersistence&) = delete;
  ProxyPersistence& operator=(const ProxyPersistence&) = delete;

  /// Continues an existing log: seeds the record counter, the snapshot
  /// watermark and the snapshot sequence from what recover() found. Call
  /// before attach().
  /// (recovery.wal_records seeds the counter; a snapshot's watermark and
  /// sequence carry over so pruning and intervals continue seamlessly.)
  void resume_from(const RecoveryResult& recovery);

  /// Starts journaling `proxy` (proxy.set_journal(this)). One proxy at a
  /// time; attaching to another detaches the first.
  void attach(core::Proxy& proxy);
  /// Stops journaling and cancels any pending deferred snapshot.
  void detach();
  /// Drops the attachment without touching the proxy — for when the proxy
  /// object was already destroyed (e.g. ReplicatedProxy::restart_replica
  /// rebuilds the replica it crashed).
  void forget();

  /// Registers the reliable channel whose ACKs should be journaled; wires
  /// its ack observer to on_device_ack. nullptr detaches.
  void set_channel(core::ReliableDeviceChannel* channel);

  /// Called after every appended record with the lifetime record count —
  /// the chaos harness's "kill at the Nth record" trigger.
  void set_record_hook(std::function<void(std::uint64_t)> hook);

  /// Takes a checkpoint now (WAL sync, snapshot blob, prune). False when a
  /// failed sync aborted it. No-op (false) while detached.
  bool snapshot_now();

  /// Folds `topic`, just restored into the attached proxy from elsewhere (a
  /// live migration), into this log: one kAdopt record carrying its whole
  /// image, synced at once. Recovery replays it as "replace this topic's
  /// image", so the topic survives a crash without a full-node checkpoint.
  /// False when the sync failed (the record may still land with a later
  /// sync, and replaying it twice is harmless). No-op (false) while
  /// detached.
  bool adopt(const std::string& topic);

  /// The device ACKed `event` (reliable channel): journal it. The log keeps
  /// the confirmation; recovery counts every forward as delivered anyway.
  void on_device_ack(const pubsub::NotificationPtr& event);

  const PersistenceStats& stats() const { return stats_; }
  std::uint64_t record_count() const { return writer_.record_count(); }
  std::uint64_t unsynced_records() const { return writer_.unsynced_records(); }

  // --- core::ProxyJournal ---------------------------------------------------
  void on_enqueue(const std::string& topic,
                  const core::EnqueueRecord& record) override;
  bool on_forward(const std::string& topic, const pubsub::NotificationPtr& event,
                  SimTime at, double rate_credit, bool replicated) override;
  void on_read(const std::string& topic, std::uint64_t request_id, int n,
               std::size_t queue_size, SimTime at) override;
  void on_sync(const std::string& topic, std::size_t queue_size,
               std::uint64_t sync_id,
               const std::vector<core::ReadRecord>& offline_reads,
               SimTime at) override;
  void on_expire(const std::string& topic, NotificationId id, bool timer_fired,
                 SimTime at) override;
  void on_requeue(const std::string& topic, const pubsub::NotificationPtr& event,
                  SimTime at) override;
  void on_shed(const std::string& topic, const pubsub::NotificationPtr& event,
               SimTime at) override;

  // --- core::ProxyRecovery --------------------------------------------------
  /// The active role moved (failover, or an in-place restart): journal the
  /// new active proxy and immediately re-base the log with a checkpoint of
  /// its state. The previous attachment is detached first, so it must
  /// still be alive.
  void on_promoted(core::Proxy& active) override;
  /// restart_replica built a fresh proxy: fill it from the durable state
  /// (recover + restore_into). Does not attach.
  void warm_restart(core::Proxy& fresh) override;

  // --- recovery (static: no live ProxyPersistence needed) -------------------
  /// Loads the newest valid snapshot and replays the WAL tail. `configs`
  /// supplies per-topic delivery mode and moving-average window — the two
  /// config inputs the replay rules depend on; a logged topic missing from
  /// it replays under the default TopicConfig. A damaged WAL tail is
  /// repaired (truncated) in `backend`.
  static RecoveryResult recover(
      StorageBackend& backend,
      const std::map<std::string, core::TopicConfig>& configs);

  /// Applies a RecoveryResult to a proxy whose topics are already added but
  /// untouched: restores every topic image. Forwarded events count as
  /// delivered whether or not an ACK record followed — a transfer the crash
  /// killed surfaces as a loss the next READ can repair. Does not call
  /// handle_network or try_forwarding — the caller drives those once wiring
  /// is complete.
  static void restore_into(core::Proxy& proxy, const RecoveryResult& recovery);

 private:
  /// Snapshots kept in the backend: each checkpoint prunes all older ones,
  /// so recovery can fall back one checkpoint past a damaged newest.
  static constexpr std::size_t kKeptSnapshots = 2;

  /// Appends one record (no sync, snapshot or record hook).
  void append(const WalRecord& record);
  /// Begins a hook's record in record_: sets the type, topic and instant;
  /// the hook fills the type's other fields.
  WalRecord& start(WalRecordType type, const std::string& topic, SimTime at);
  /// Appends record_ and runs the sync/snapshot/hook policy chain.
  void commit();
  void maybe_sync();
  void maybe_request_snapshot();
  /// Group commit: the end-of-event flush+fsync of the staged batch (runs
  /// as a simulator post-event hook).
  void flush_group();

  sim::Simulator& sim_;
  StorageBackend& backend_;
  PersistenceConfig config_;
  WalWriter writer_;
  core::Proxy* attached_ = nullptr;
  core::ReliableDeviceChannel* channel_ = nullptr;
  std::function<void(std::uint64_t)> record_hook_;
  // The one record every hook fills. Encoding reads only the fields of its
  // type, so stale fields of other types are harmless, and assigning topics
  // and notifications into its kept capacity does not allocate.
  WalRecord record_;
  // The checkpoint blob under construction, encoded straight from the live
  // topics. The buffer and the encoder's scratch ids keep their capacity
  // across checkpoints, so a warm checkpoint allocates nothing per image
  // byte.
  ByteWriter checkpoint_;
  TopicImageEncoder image_encoder_{checkpoint_};
  std::uint64_t last_snapshot_watermark_ = 0;
  std::uint64_t next_snapshot_seq_ = 1;
  bool snapshot_pending_ = false;
  sim::EventHandle snapshot_event_;
  std::size_t flush_hook_id_ = 0;  // post-event hook id (group commit only)
  PersistenceStats stats_;
};

}  // namespace waif::storage
