// WAL group commit: batched record framing with one fsync per producing
// simulator event.
//
// Two layers of proof. The unit half pins that the staged path writes a log
// byte-identical to the per-record path (same frames, same order — only the
// backend call pattern differs) and that the writer's staging accounting is
// sound. The crash half runs `crash-at-record` schedules through the
// last-hop harness (experiments/chaos_orchestrator.h): with group commit
// ON, killing the machine at EVERY WAL record index and restarting it in
// place still recovers to the exact uninterrupted digest — the post-event
// flush makes the batch durable before any same-instant event (including
// the crash) can run — while the run fsyncs measurably fewer times than
// sync-every-record persistence.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/time.h"
#include "experiments/chaos_orchestrator.h"
#include "experiments/chaos_schedule.h"
#include "storage/backend.h"
#include "storage/wal.h"

namespace waif::storage {
namespace {

WalRecord sample_record(std::uint64_t i) {
  WalRecord record;
  switch (i % 4) {
    case 0:
      record.type = WalRecordType::kEnqueue;
      record.stage = core::JournalStage::kOutgoing;
      break;
    case 1:
      record.type = WalRecordType::kForward;
      break;
    case 2:
      record.type = WalRecordType::kRead;
      record.request_id = i;
      record.n = static_cast<int>(i % 7);
      break;
    default:
      record.type = WalRecordType::kExpire;
      record.id = i;
      break;
  }
  record.topic = "topic/" + std::to_string(i % 3);
  record.at = static_cast<SimTime>(i * 1000);
  record.event.id = NotificationId{i + 1};
  record.event.topic = record.topic;
  record.event.rank = static_cast<double>(i % 5);
  record.event.published_at = record.at;
  record.event.payload = std::string(i % 32, 'x');
  return record;
}

TEST(WalGroupCommit, StagedLogIsByteIdenticalToPerRecordLog) {
  MemBackend per_record_backend;
  MemBackend grouped_backend;
  WalWriter per_record(per_record_backend, kWalBlobName);
  WalWriter grouped(grouped_backend, kWalBlobName);
  grouped.set_group_commit(true);

  for (std::uint64_t i = 0; i < 64; ++i) {
    const WalRecord record = sample_record(i);
    per_record.append(record);
    ASSERT_TRUE(per_record.sync());
    grouped.append(record);
    // Flush in batches of varying size: after 1, 3, 6, 10... records.
    if ((i * (i + 1) / 2) % 8 == 0) ASSERT_TRUE(grouped.sync());
  }
  ASSERT_TRUE(grouped.sync());

  std::vector<std::uint8_t> per_record_bytes;
  std::vector<std::uint8_t> grouped_bytes;
  ASSERT_TRUE(per_record_backend.read(kWalBlobName, &per_record_bytes));
  ASSERT_TRUE(grouped_backend.read(kWalBlobName, &grouped_bytes));
  EXPECT_EQ(per_record_bytes, grouped_bytes);

  // Both logs decode to the same 64 records.
  const WalReadResult decoded = read_wal(grouped_backend);
  EXPECT_TRUE(decoded.clean());
  ASSERT_EQ(decoded.records.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(decoded.records[i].topic, sample_record(i).topic);
  }
}

TEST(WalGroupCommit, StagingAccountingAndCrashSemantics) {
  MemBackend backend;
  WalWriter writer(backend, kWalBlobName);
  writer.set_group_commit(true);

  for (std::uint64_t i = 0; i < 5; ++i) writer.append(sample_record(i));
  EXPECT_EQ(writer.staged_records(), 5u);
  EXPECT_EQ(writer.unsynced_records(), 5u);
  // Staged frames have not even reached the backend's volatile cache.
  EXPECT_EQ(backend.size(kWalBlobName), 0u);

  writer.flush();
  EXPECT_EQ(writer.staged_records(), 0u);
  EXPECT_EQ(writer.unsynced_records(), 5u);  // flushed but not yet fsynced
  EXPECT_GT(backend.size(kWalBlobName), 0u);
  EXPECT_EQ(backend.durable_size(kWalBlobName), 0u);

  // A crash before sync loses the whole batch — the documented window.
  backend.crash();
  EXPECT_FALSE(backend.exists(kWalBlobName));

  writer.append(sample_record(7));
  ASSERT_TRUE(writer.sync());
  EXPECT_EQ(writer.unsynced_records(), 0u);
  EXPECT_EQ(backend.durable_size(kWalBlobName), backend.size(kWalBlobName));

  // Turning the mode off flushes anything staged.
  writer.append(sample_record(8));
  EXPECT_EQ(writer.staged_records(), 1u);
  writer.set_group_commit(false);
  EXPECT_EQ(writer.staged_records(), 0u);
  const WalReadResult decoded = read_wal(backend);
  EXPECT_EQ(decoded.records.size(), 2u);
}

// --- crash sweep over the last-hop harness ----------------------------------

/// One simulated day of the three-topic last hop with two 3-hour outages,
/// journaled with group commit (write-ahead forwards stay on).
experiments::ChaosSchedule group_commit_schedule() {
  experiments::ChaosSchedule schedule;
  schedule.seed = 11;
  schedule.horizon = kDay;  // keep the every-record sweep cheap
  schedule.persistence.group_commit = true;
  schedule.persistence.snapshot_interval = 64;
  for (SimTime at : {6 * kHour, 15 * kHour}) {
    experiments::ChaosFault outage;
    outage.kind = experiments::ChaosFaultKind::kOutage;
    outage.at = at;
    outage.duration = 3 * kHour;
    schedule.faults.push_back(outage);
  }
  return schedule;
}

TEST(WalGroupCommit, CrashInsideBatchedFlushRecoversExactlyAtEveryRecord) {
  const experiments::ChaosSchedule plan = group_commit_schedule();
  const experiments::ChaosOutcome baseline = experiments::run_chaos(plan);
  ASSERT_TRUE(baseline.ok());
  ASSERT_GT(baseline.records_logged, 50u);
  ASSERT_EQ(baseline.crashes, 0u);

  for (std::uint64_t n = 1; n <= baseline.records_logged; ++n) {
    experiments::ChaosSchedule crashed = plan;
    experiments::ChaosFault crash;
    crash.kind = experiments::ChaosFaultKind::kCrashAtRecord;
    crash.param = n;  // duration 0: the machine restarts in place at once
    crashed.faults.push_back(crash);
    const experiments::ChaosOutcome outcome = experiments::run_chaos(crashed);
    ASSERT_EQ(outcome.machine_crashes, 1u) << "crash at record " << n;
    // The post-event flush ran before the crash event could: nothing staged,
    // nothing unsynced, nothing lost.
    ASSERT_EQ(outcome.lost_records, 0u) << "crash at record " << n;
    ASSERT_EQ(outcome.read_digest, baseline.read_digest)
        << "crash at record " << n;
    ASSERT_EQ(outcome.total_read, baseline.total_read)
        << "crash at record " << n;
    ASSERT_EQ(outcome.duplicate_user_reads, 0u) << "crash at record " << n;
    ASSERT_TRUE(outcome.ok()) << "crash at record " << n;
  }
}

TEST(WalGroupCommit, GroupCommitMatchesPerRecordDigestWithFewerFsyncs) {
  const experiments::ChaosSchedule grouped = group_commit_schedule();

  experiments::ChaosSchedule per_record = grouped;
  per_record.persistence.group_commit = false;
  per_record.persistence.sync_interval = 1;

  const experiments::ChaosOutcome grouped_outcome =
      experiments::run_chaos(grouped);
  const experiments::ChaosOutcome per_record_outcome =
      experiments::run_chaos(per_record);

  // Same run, same log, same reads — group commit is behavior-neutral.
  EXPECT_EQ(grouped_outcome.read_digest, per_record_outcome.read_digest);
  EXPECT_EQ(grouped_outcome.records_logged, per_record_outcome.records_logged);
  EXPECT_EQ(grouped_outcome.total_read, per_record_outcome.total_read);
  // ... but fsyncs once per producing event instead of once per record.
  EXPECT_LT(grouped_outcome.wal_syncs, per_record_outcome.wal_syncs);
  EXPECT_GT(grouped_outcome.wal_syncs, 0u);
}

}  // namespace
}  // namespace waif::storage
