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
#include "experiments/chaos_orchestrator.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/time.h"
#include "experiments/chaos_schedule.h"

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

}  // namespace
}  // namespace waif::experiments
