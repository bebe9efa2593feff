// Differential crash/recovery tests over the last-hop harness
// (experiments/chaos_orchestrator.h): a `crash-at-record` fault kills the
// active replica's machine once the WAL holds N records, and with a
// duration below the failure detector's suspicion timeout the machine comes
// back in place, warm from the durable image. Each crashed run is compared
// against the uninterrupted schedule.
//
// The headline theorem: with sync-every-record persistence and no storage
// faults, recovery is EXACT at every single record index — same reads, same
// instants, same ids. The remaining tests relax the sync policy and inject
// storage faults, checking the documented bounded-loss and no-duplicate
// guarantees instead of exact identity.
//
// The last group works on bare proxies: the kAdopt fold a live migration's
// destination writes (ProxyPersistence::adopt) must bring the moved topic
// back after a crash, win over an older image, and vanish when it never
// became durable.
#include "experiments/chaos_orchestrator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/channel.h"
#include "core/forwarding_policy.h"
#include "core/proxy.h"
#include "experiments/chaos_schedule.h"
#include "experiments/shard_migration.h"
#include "pubsub/notification.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/fault.h"
#include "storage/persistence.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace waif::experiments {
namespace {

/// The three-topic last hop with two 3-hour outages a day, snapshots every
/// 64 records and write-ahead per-record syncs.
ChaosSchedule base_schedule(SimTime horizon = kDay) {
  ChaosSchedule schedule;
  schedule.seed = 7;
  schedule.horizon = horizon;
  schedule.persistence.snapshot_interval = 64;
  for (SimTime day = 0; day < horizon; day += kDay) {
    for (SimTime at : {6 * kHour, 15 * kHour}) {
      ChaosFault outage;
      outage.kind = ChaosFaultKind::kOutage;
      outage.at = day + at;
      outage.duration = 3 * kHour;
      schedule.faults.push_back(outage);
    }
  }
  return schedule;
}

/// `schedule` plus a machine crash once the WAL holds `record` records,
/// back after `downtime` (0: in place, at once).
ChaosSchedule crash_at(ChaosSchedule schedule, std::uint64_t record,
                       SimDuration downtime = 0) {
  ChaosFault crash;
  crash.kind = ChaosFaultKind::kCrashAtRecord;
  crash.duration = downtime;
  crash.param = record;
  schedule.faults.push_back(crash);
  return schedule;
}

/// `schedule` plus a storage-fault window over the whole run.
ChaosSchedule with_storage_faults(ChaosSchedule schedule, double magnitude) {
  ChaosFault storage;
  storage.kind = ChaosFaultKind::kStorageFault;
  storage.duration = schedule.horizon;
  storage.magnitude = magnitude;
  schedule.faults.push_back(storage);
  return schedule;
}

TEST(RecoveryRunner, CrashAtEveryRecordRecoversExactly) {
  // The acceptance sweep: kill the machine at EVERY record index of the
  // three-topic scenario. With the smallest loss window (sync every record,
  // write-ahead forwards) and an instant in-place restart, the recovered
  // run must read exactly what the uninterrupted one did.
  const ChaosSchedule plan = base_schedule();
  const ChaosOutcome baseline = run_chaos(plan);
  ASSERT_TRUE(baseline.ok());
  ASSERT_GT(baseline.records_logged, 100u);
  ASSERT_EQ(baseline.crashes, 0u);

  for (std::uint64_t n = 1; n <= baseline.records_logged; ++n) {
    const ChaosOutcome outcome = run_chaos(crash_at(plan, n));
    ASSERT_EQ(outcome.machine_crashes, 1u) << "crash at record " << n;
    ASSERT_EQ(outcome.failovers, 0u) << "crash at record " << n;
    ASSERT_EQ(outcome.lost_records, 0u) << "crash at record " << n;
    ASSERT_EQ(outcome.read_digest, baseline.read_digest)
        << "crash at record " << n;
    ASSERT_EQ(outcome.total_read, baseline.total_read)
        << "crash at record " << n;
    ASSERT_EQ(outcome.duplicate_user_reads, 0u) << "crash at record " << n;
    ASSERT_TRUE(outcome.ok()) << "crash at record " << n << ": "
                              << outcome.violations[0].invariant;
  }
}

TEST(RecoveryRunner, SnapshotIntervalDoesNotChangeRecovery) {
  // Whether recovery starts from a snapshot plus a short tail or replays
  // the whole log from scratch, the rebuilt proxy is the same proxy.
  ChaosSchedule never = base_schedule();
  never.persistence.snapshot_interval = 0;  // recovery = full-log replay
  ChaosSchedule frequent = base_schedule();
  frequent.persistence.snapshot_interval = 16;

  const ChaosOutcome from_log = run_chaos(crash_at(never, 100));
  const ChaosOutcome from_snapshot = run_chaos(crash_at(frequent, 100));

  EXPECT_LT(from_snapshot.replayed, from_log.replayed);
  EXPECT_EQ(from_log.read_digest, from_snapshot.read_digest);
  EXPECT_EQ(from_log.total_read, from_snapshot.total_read);
  EXPECT_TRUE(from_log.ok());
  EXPECT_TRUE(from_snapshot.ok());
}

TEST(RecoveryRunner, BatchedSyncLossIsBoundedByTheUnsyncedWindow) {
  // sync_interval 32 without write-ahead forwards: a crash discards at most
  // the unsynced tail. The run may lose (or re-deliver) a bounded handful
  // of reads, never an expired notification.
  ChaosSchedule plan = base_schedule();
  plan.persistence.sync_interval = 32;
  plan.persistence.sync_on_forward = false;

  const ChaosOutcome baseline = run_chaos(plan);
  ASSERT_GT(baseline.records_logged, 100u);
  const auto max = static_cast<std::int64_t>(chaos_scenario().max);

  for (std::uint64_t n = 10; n <= baseline.records_logged; n += 37) {
    const ChaosOutcome outcome = run_chaos(crash_at(plan, n));
    ASSERT_EQ(outcome.machine_crashes, 1u) << "crash at record " << n;
    ASSERT_LE(outcome.lost_records, 32u) << "crash at record " << n;
    // Every lost record forfeits at most one read; behavioural divergence
    // after the loss can shift a read boundary, hence the small slack.
    const std::int64_t loss = static_cast<std::int64_t>(baseline.total_read) -
                              static_cast<std::int64_t>(outcome.total_read);
    ASSERT_LE(loss, static_cast<std::int64_t>(outcome.lost_records) + 2 * max)
        << "crash at record " << n;
    ASSERT_TRUE(outcome.ok()) << "crash at record " << n;
  }
}

TEST(RecoveryRunner, FailedFsyncsRefuseForwardsButStaySafe) {
  // fsync failures with the write-ahead discipline on: the delivery whose
  // record could not be made durable is refused (parked), never performed
  // unlogged. Duplicates stay impossible and the image stays recoverable.
  const ChaosOutcome outcome = run_chaos(
      crash_at(with_storage_faults(base_schedule(3 * kDay), 0.2), 120));
  EXPECT_EQ(outcome.machine_crashes, 1u);
  EXPECT_GT(outcome.storage_faults.fsync_failures, 0u);
  EXPECT_GT(outcome.forward_refusals, 0u);
  EXPECT_EQ(outcome.duplicate_user_reads, 0u);
  EXPECT_TRUE(outcome.ok());
}

TEST(RecoveryRunner, TornWritesAndBitFlipsAreTruncatedAway) {
  // A crash that leaves a torn, bit-flipped tail: recovery must reject the
  // damage (CRC), repair the log by truncation and continue from the last
  // durable record — still no duplicates, nothing expired delivered.
  ChaosSchedule plan = with_storage_faults(base_schedule(3 * kDay), 0.5);
  plan.persistence.sync_interval = 16;  // leave an unsynced tail to tear

  bool saw_repair = false;
  for (std::uint64_t n = 40; n <= 160; n += 40) {
    const ChaosOutcome outcome = run_chaos(crash_at(plan, n));
    ASSERT_EQ(outcome.machine_crashes, 1u) << "crash at record " << n;
    ASSERT_EQ(outcome.duplicate_user_reads, 0u) << "crash at record " << n;
    ASSERT_TRUE(outcome.ok()) << "crash at record " << n;
    saw_repair = saw_repair || outcome.wal_repairs > 0 ||
                 outcome.storage_faults.torn_writes > 0;
  }
  EXPECT_TRUE(saw_repair);
}

TEST(RecoveryRunner, RestartDelayLosesOnlyTheDowntime) {
  // A four-minute repair window, inside the detector's suspicion timeout:
  // nobody is promoted, reads are served from the device buffer, and the
  // machine comes back in place to pick the run back up. Safety still
  // holds; the read volume can only shrink.
  const ChaosSchedule plan = base_schedule(3 * kDay);
  const ChaosOutcome baseline = run_chaos(plan);
  const ChaosOutcome outcome = run_chaos(crash_at(plan, 100, 4 * kMinute));
  EXPECT_EQ(outcome.machine_crashes, 1u);
  EXPECT_EQ(outcome.failovers, 0u);
  EXPECT_EQ(outcome.restarts, 1u);
  EXPECT_LE(outcome.total_read, baseline.total_read);
  EXPECT_GT(outcome.total_read, 0u);
  EXPECT_EQ(outcome.duplicate_user_reads, 0u);
  EXPECT_TRUE(outcome.ok());

  // Past the suspicion timeout the standby takes over instead, and the
  // dead replica rejoins as the standby.
  const ChaosOutcome failed_over = run_chaos(crash_at(plan, 100, 2 * kHour));
  EXPECT_EQ(failed_over.failovers, 1u);
  EXPECT_EQ(failed_over.restarts, 1u);
  EXPECT_TRUE(failed_over.ok());
}

TEST(RecoveryRunner, ReliableChannelRecoveryTrustsOrRequeues) {
  // Over the reliable transport the ACK stream is journaled and a machine
  // crash resets the channel. Recovery trusts the logged ACKs, so nothing
  // the device acknowledged is sent again. Transfers whose ACKs a device
  // stall starves are given up on and requeued on purpose, and even then
  // nothing expired reaches the user.
  const ChaosOutcome trusted = run_chaos(crash_at(base_schedule(), 120));
  EXPECT_EQ(trusted.machine_crashes, 1u);
  EXPECT_EQ(trusted.requeued, 0u);
  EXPECT_EQ(trusted.duplicate_user_reads, 0u);
  EXPECT_TRUE(trusted.ok());

  ChaosSchedule stalled = base_schedule();
  ChaosFault stall;
  stall.kind = ChaosFaultKind::kDeviceStall;
  stall.at = 10 * kHour;
  stall.duration = 2 * kHour;
  stalled.faults.push_back(stall);
  const ChaosOutcome requeued = run_chaos(crash_at(stalled, 120));
  EXPECT_EQ(requeued.machine_crashes, 1u);
  EXPECT_GT(requeued.requeued, 0u);
  EXPECT_GT(requeued.total_read, 0u);
  EXPECT_TRUE(requeued.ok());
}

// --- the kAdopt fold ---------------------------------------------------------

class NullChannel final : public core::DeviceChannel {
 public:
  bool link_up() const override { return true; }
  bool deliver(const pubsub::NotificationPtr&) override { return true; }
};

core::TopicConfig online_config() {
  core::TopicConfig config;
  config.mode = core::DeliveryMode::kOnLine;
  config.policy = core::PolicyConfig::online();
  return config;
}

/// One proxy journaling to its own backend, checkpointing only on request.
struct Node {
  static storage::PersistenceConfig manual_snapshots() {
    storage::PersistenceConfig config;
    config.snapshot_interval = 0;
    return config;
  }

  explicit Node(const std::string& name) : proxy(sim, channel, name) {
    persistence.attach(proxy);
  }

  /// `count` notifications on `topic`, ids from `first_id`, one a second
  /// from `from` on.
  void publish(const std::string& topic, std::uint64_t first_id, int count,
               SimTime from) {
    for (int i = 0; i < count; ++i) {
      const SimTime at = from + i * kSecond;
      const std::uint64_t id = first_id + static_cast<std::uint64_t>(i);
      sim.schedule_at(at, [this, topic, id, at] {
        auto event = std::make_shared<pubsub::Notification>();
        event->id = NotificationId{id};
        event->topic = topic;
        event->publisher = PublisherId{1};
        event->rank = static_cast<double>(id % 4);
        event->published_at = at;
        proxy.on_notification(event);
      });
    }
    sim.run();
  }

  /// Moves `topic` in with the live state `image`, as a migration's replay
  /// does, then folds it into this node's log.
  bool adopt(const std::string& topic, const std::vector<std::uint8_t>& image) {
    proxy.add_topic(topic, online_config());
    EXPECT_TRUE(storage::restore_topic_image(image, *proxy.topic(topic)));
    return persistence.adopt(topic);
  }

  std::vector<std::uint8_t> live_image(const std::string& topic) const {
    return storage::topic_image(*proxy.topic(topic));
  }

  sim::Simulator sim;
  NullChannel channel;
  core::Proxy proxy;
  storage::MemBackend backend;
  storage::ProxyPersistence persistence{sim, backend, manual_snapshots()};
};

std::map<std::string, core::TopicConfig> configs_for(
    std::initializer_list<const char*> topics) {
  std::map<std::string, core::TopicConfig> configs;
  for (const char* topic : topics) configs.emplace(topic, online_config());
  return configs;
}

/// `topic`'s recovered image; empty when recovery holds none.
std::vector<std::uint8_t> recovered(const storage::RecoveryResult& recovery,
                                    const std::string& topic) {
  const std::span<const std::uint8_t> image = recovery.state.image(topic);
  return {image.begin(), image.end()};
}

/// tA grown on a node of its own, ready to move.
std::vector<std::uint8_t> grown_elsewhere() {
  Node source("source");
  source.proxy.add_topic("tA", online_config());
  source.publish("tA", 1, 8, 10 * kSecond);
  return source.live_image("tA");
}

TEST(AdoptRecovery, AdoptedTopicSurvivesACrashByteForByte) {
  Node dest("dest");
  dest.proxy.add_topic("tB", online_config());
  dest.publish("tB", 100, 4, 30 * kSecond);
  ASSERT_TRUE(dest.adopt("tA", grown_elsewhere()));
  dest.publish("tA", 9, 5, 40 * kSecond);

  dest.backend.crash();
  const storage::RecoveryResult recovery =
      storage::ProxyPersistence::recover(dest.backend,
                                         configs_for({"tA", "tB"}));
  EXPECT_FALSE(recovery.from_snapshot);  // the log alone carries tA
  EXPECT_EQ(recovered(recovery, "tA"), dest.live_image("tA"));
  EXPECT_EQ(recovered(recovery, "tB"), dest.live_image("tB"));
}

TEST(AdoptRecovery, AdoptWinsOverAnOlderImageInTheSnapshot) {
  // tA leaves its home node and comes back: the home snapshot still holds
  // tA's image from before the move, and the log past it a few stale tA
  // records. The adopt record must replace all of that.
  Node home("home");
  home.proxy.add_topic("tA", online_config());
  home.proxy.add_topic("tB", online_config());
  home.publish("tA", 1, 6, 10 * kSecond);
  ASSERT_TRUE(home.persistence.snapshot_now());
  home.publish("tA", 7, 2, 20 * kSecond);
  const std::vector<std::uint8_t> stale = home.live_image("tA");

  Node away("away");
  away.proxy.add_topic("tA", online_config());
  ASSERT_TRUE(storage::restore_topic_image(home.live_image("tA"),
                                           *away.proxy.topic("tA")));
  home.proxy.remove_topic("tA");
  away.publish("tA", 9, 5, 30 * kSecond);
  home.publish("tB", 100, 3, 30 * kSecond);

  ASSERT_TRUE(home.adopt("tA", away.live_image("tA")));
  ASSERT_NE(home.live_image("tA"), stale);

  home.backend.crash();
  const storage::RecoveryResult recovery =
      storage::ProxyPersistence::recover(home.backend,
                                         configs_for({"tA", "tB"}));
  EXPECT_TRUE(recovery.from_snapshot);
  EXPECT_EQ(recovered(recovery, "tA"), home.live_image("tA"));
}

TEST(AdoptRecovery, AdoptWhoseSyncFailedIsLostInTheCrash) {
  Node dest("dest");
  dest.proxy.add_topic("tB", online_config());
  dest.publish("tB", 100, 4, 30 * kSecond);
  const std::uint64_t durable_records = dest.persistence.record_count();

  storage::StorageFaultConfig faults;
  faults.fsync_failure_probability = 1.0;
  storage::StorageFaultModel model(faults, /*seed=*/5);
  dest.backend.set_fault_model(&model);
  EXPECT_FALSE(dest.adopt("tA", grown_elsewhere()));
  dest.backend.crash();  // no torn writes: the unsynced adopt vanishes whole
  dest.backend.set_fault_model(nullptr);

  const storage::RecoveryResult recovery =
      storage::ProxyPersistence::recover(dest.backend, configs_for({"tB"}));
  EXPECT_EQ(recovery.wal_records, durable_records);
  EXPECT_TRUE(recovered(recovery, "tA").empty());
}

TEST(AdoptRecovery, TornAdoptFrameIsTruncatedAway) {
  Node dest("dest");
  dest.proxy.add_topic("tB", online_config());
  dest.publish("tB", 100, 4, 30 * kSecond);
  const std::uint64_t records = dest.persistence.record_count();
  const std::size_t before = dest.backend.size(storage::kWalBlobName);
  ASSERT_TRUE(dest.adopt("tA", grown_elsewhere()));
  const std::size_t after = dest.backend.size(storage::kWalBlobName);
  dest.backend.truncate(storage::kWalBlobName, before + (after - before) / 2);

  const storage::RecoveryResult recovery =
      storage::ProxyPersistence::recover(dest.backend, configs_for({"tB"}));
  EXPECT_TRUE(recovery.torn_tail);
  EXPECT_TRUE(recovery.repaired);
  EXPECT_EQ(recovery.wal_records, records);
  EXPECT_EQ(dest.backend.size(storage::kWalBlobName), before);
  EXPECT_TRUE(recovered(recovery, "tA").empty());
}


// --- the resumed checkpoint cadence ------------------------------------------

/// Grows a log on `node` (a snapshot when `snapshot`, then `acks` device
/// ACKs and more notifications in its tail), recovers it, resumes a log
/// with a checkpoint every `interval` records, and appends ACKs until that
/// log checkpoints. Returns how many records past the recovered snapshot's
/// watermark (0 without a snapshot) the checkpoint landed.
std::uint64_t first_checkpoint_after_resume(bool snapshot, int acks,
                                            std::uint64_t interval) {
  Node node("node");
  node.proxy.add_topic("tA", online_config());
  node.publish("tA", 1, 4, 10 * kSecond);
  std::uint64_t watermark = 0;
  if (snapshot) {
    EXPECT_TRUE(node.persistence.snapshot_now());
    watermark = node.persistence.record_count();
  }
  auto acked = std::make_shared<pubsub::Notification>();
  acked->id = NotificationId{1};
  acked->topic = "tA";
  for (int i = 0; i < acks; ++i) node.persistence.on_device_ack(acked);
  node.publish("tA", 5, 2, 20 * kSecond);

  const storage::RecoveryResult recovery =
      storage::ProxyPersistence::recover(node.backend, configs_for({"tA"}));
  EXPECT_EQ(recovery.from_snapshot, snapshot);
  EXPECT_GT(recovery.replayed, 0u);

  sim::Simulator sim;
  NullChannel channel;
  core::Proxy proxy(sim, channel, "resumed");
  proxy.add_topic("tA", online_config());
  storage::PersistenceConfig config;
  config.snapshot_interval = interval;
  storage::ProxyPersistence persistence(sim, node.backend, config);
  persistence.resume_from(recovery);
  persistence.attach(proxy);
  while (persistence.stats().snapshots == 0) {
    persistence.on_device_ack(acked);
    sim.run();  // the requested checkpoint runs as its own event
  }
  return persistence.record_count() - watermark;
}

TEST(ResumeCadence, NextCheckpointCountsFromTheSnapshotWatermark) {
  // Regression: resume_from took the snapshot's watermark to be
  // wal_records - replayed, but recovery skips the ACKs in the tail, so a
  // tail with k ACKs put the next checkpoint k records late.
  EXPECT_EQ(first_checkpoint_after_resume(true, 5, 16), 16u);
  // Without a snapshot the cadence counts from record 0.
  EXPECT_EQ(first_checkpoint_after_resume(false, 5, 64), 64u);
}

}  // namespace
}  // namespace waif::experiments
