#include "experiments/shard_migration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/channel.h"
#include "core/forwarding_policy.h"
#include "core/proxy.h"
#include "pubsub/notification.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/fault.h"
#include "storage/persistence.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace waif::experiments {
namespace {

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

pubsub::NotificationPtr make_event(std::uint64_t id, const std::string& topic,
                                   SimTime at) {
  auto event = std::make_shared<pubsub::Notification>();
  event->id = NotificationId{id};
  event->topic = topic;
  event->publisher = PublisherId{1};
  event->rank = 0.5;
  event->published_at = at;
  return event;
}

/// `topic`'s bytes, encoded from its live state.
std::vector<std::uint8_t> live_image(const core::Proxy& proxy,
                                     const std::string& topic) {
  return storage::topic_image(*proxy.topic(topic));
}

MigrationRecord make_record(std::uint64_t id, MigrationStage stage,
                            const std::string& topic, std::uint32_t from,
                            std::uint32_t to) {
  MigrationRecord record;
  record.id = id;
  record.stage = stage;
  record.topic = topic;
  record.from = from;
  record.to = to;
  record.at = static_cast<SimTime>(id) * kSecond;
  return record;
}

TEST(ShardMigrationTest, StageNamesAreStable) {
  EXPECT_EQ(migration_stage_name(MigrationStage::kPlanned), "planned");
  EXPECT_EQ(migration_stage_name(MigrationStage::kQuiesced), "quiesced");
  EXPECT_EQ(migration_stage_name(MigrationStage::kShipped), "shipped");
  EXPECT_EQ(migration_stage_name(MigrationStage::kReplayed), "replayed");
  EXPECT_EQ(migration_stage_name(MigrationStage::kFlipped), "flipped");
  EXPECT_EQ(migration_stage_name(MigrationStage::kDrained), "drained");
  EXPECT_EQ(migration_stage_name(MigrationStage::kDone), "done");
  EXPECT_EQ(migration_stage_name(MigrationStage::kAborted), "aborted");
}

TEST(ShardMigrationTest, ResumeRuleRollsBackBeforeTheFlipForwardAfter) {
  // The whole crash-safety argument in one table: the flip record is THE
  // commit point.
  EXPECT_EQ(migration_resume_action(MigrationStage::kPlanned),
            MigrationResume::kRollBack);
  EXPECT_EQ(migration_resume_action(MigrationStage::kQuiesced),
            MigrationResume::kRollBack);
  EXPECT_EQ(migration_resume_action(MigrationStage::kShipped),
            MigrationResume::kRollBack);
  EXPECT_EQ(migration_resume_action(MigrationStage::kReplayed),
            MigrationResume::kRollBack);
  EXPECT_EQ(migration_resume_action(MigrationStage::kFlipped),
            MigrationResume::kRollForward);
  EXPECT_EQ(migration_resume_action(MigrationStage::kDrained),
            MigrationResume::kRollForward);
  EXPECT_EQ(migration_resume_action(MigrationStage::kDone),
            MigrationResume::kNone);
  EXPECT_EQ(migration_resume_action(MigrationStage::kAborted),
            MigrationResume::kNone);
}

TEST(ShardMigrationTest, BlobNamesAreStable) {
  EXPECT_EQ(migration_image_blob(7), "mig-000007-image");
  EXPECT_EQ(migration_tail_blob(42), "mig-000042-tail");
}

TEST(ShardMigrationTest, JournalRoundTripsRecords) {
  storage::MemBackend backend;
  MigrationJournal journal(backend);

  const std::uint64_t first = journal.allocate_id();
  EXPECT_EQ(first, 1u);
  ASSERT_TRUE(journal.append(
      make_record(first, MigrationStage::kPlanned, "t3", 0, 2)));
  ASSERT_TRUE(journal.append(
      make_record(first, MigrationStage::kFlipped, "t3", 0, 2)));

  const MigrationJournal::ReadResult read = MigrationJournal::read(backend);
  EXPECT_TRUE(read.clean());
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.records[0].stage, MigrationStage::kPlanned);
  EXPECT_EQ(read.records[1].stage, MigrationStage::kFlipped);
  EXPECT_EQ(read.records[1].topic, "t3");
  EXPECT_EQ(read.records[1].from, 0u);
  EXPECT_EQ(read.records[1].to, 2u);
  EXPECT_EQ(read.records[1].at, kSecond);
  EXPECT_EQ(journal.appends(), 2u);
  EXPECT_EQ(journal.failed_appends(), 0u);
}

TEST(ShardMigrationTest, MissingJournalReadsAsEmptyAndClean) {
  storage::MemBackend backend;
  const MigrationJournal::ReadResult read = MigrationJournal::read(backend);
  EXPECT_TRUE(read.clean());
  EXPECT_TRUE(read.records.empty());
}

TEST(ShardMigrationTest, ReadStopsAtATornTailAndResumeRepairsIt) {
  storage::MemBackend backend;
  MigrationJournal journal(backend);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(journal.append(
        make_record(i, MigrationStage::kPlanned, "t1", 0, 1)));
  }
  const std::size_t full = backend.size(kMigrationJournalBlob);
  backend.truncate(kMigrationJournalBlob, full - 3);  // tear the last frame

  const MigrationJournal::ReadResult damaged = MigrationJournal::read(backend);
  EXPECT_FALSE(damaged.clean());
  EXPECT_TRUE(damaged.torn_tail);
  ASSERT_EQ(damaged.records.size(), 2u);

  MigrationJournal resumed(backend);
  resumed.resume(damaged);
  EXPECT_EQ(resumed.allocate_id(), 3u);  // max surviving id + 1
  EXPECT_EQ(backend.size(kMigrationJournalBlob), damaged.valid_bytes);
  EXPECT_TRUE(MigrationJournal::read(backend).clean());
}

TEST(ShardMigrationTest, FailedSyncCountsAsFailedAppend) {
  storage::MemBackend backend;
  storage::StorageFaultConfig faults;
  faults.fsync_failure_probability = 1.0;
  storage::StorageFaultModel model(faults, /*seed=*/3);
  backend.set_fault_model(&model);

  MigrationJournal journal(backend);
  EXPECT_FALSE(
      journal.append(make_record(1, MigrationStage::kPlanned, "t0", 0, 1)));
  EXPECT_EQ(journal.failed_appends(), 1u);
  backend.set_fault_model(nullptr);
}

TEST(ShardMigrationTest, DeriveOwnersAppliesOnlyFlipsInJournalOrder) {
  std::map<std::string, std::uint32_t> initial{{"t0", 0}, {"t1", 1}};
  std::vector<MigrationRecord> records;
  records.push_back(make_record(1, MigrationStage::kPlanned, "t0", 0, 2));
  records.push_back(make_record(1, MigrationStage::kReplayed, "t0", 0, 2));
  records.push_back(make_record(2, MigrationStage::kFlipped, "t1", 1, 3));
  records.push_back(make_record(3, MigrationStage::kFlipped, "t1", 3, 0));
  records.push_back(make_record(1, MigrationStage::kAborted, "t0", 0, 2));

  const auto owners = derive_owners(initial, records);
  EXPECT_EQ(owners.at("t0"), 0u);  // never flipped: aborted pre-commit
  EXPECT_EQ(owners.at("t1"), 0u);  // the later flip wins
}

TEST(ShardMigrationTest, BackoffDoublesFromBaseAndCaps) {
  static_assert(kMigrationBackoffBase == 100 * kMillisecond);
  static_assert(kMigrationBackoffCap == 5 * kSecond);
  EXPECT_EQ(migration_backoff(1), kMigrationBackoffBase);
  EXPECT_EQ(migration_backoff(2), 200 * kMillisecond);
  EXPECT_EQ(migration_backoff(3), 400 * kMillisecond);
  EXPECT_EQ(migration_backoff(4), 800 * kMillisecond);
  EXPECT_EQ(migration_backoff(5), 1600 * kMillisecond);
  EXPECT_EQ(migration_backoff(6), 3200 * kMillisecond);
  EXPECT_EQ(migration_backoff(7), kMigrationBackoffCap);
  EXPECT_EQ(migration_backoff(12), kMigrationBackoffCap);
}

/// Drives a real proxy + persistence, then round-trips one topic through
/// lineage -> encode -> ship -> replay and demands byte-equal state.
TEST(ShardMigrationTest, ExtractEncodeReplayRoundTripsTopicState) {
  sim::Simulator sim;
  NullChannel channel;
  core::Proxy proxy(sim, channel, "source");
  storage::MemBackend backend;
  storage::PersistenceConfig config;
  config.snapshot_interval = 0;  // checkpoints only when asked
  storage::ProxyPersistence persistence(sim, backend, config);
  proxy.add_topic("tA", online_config());
  proxy.add_topic("tB", online_config());
  persistence.attach(proxy);

  std::uint64_t next_id = 1;
  for (int i = 0; i < 12; ++i) {
    const SimTime at = (100 + i) * kSecond;
    const std::string topic = (i % 3 == 0) ? "tB" : "tA";
    const std::uint64_t id = next_id++;
    sim.schedule_at(at, [&proxy, id, topic, at] {
      proxy.on_notification(make_event(id, topic, at));
    });
  }
  sim.run();
  ASSERT_TRUE(persistence.snapshot_now());  // the image half of the lineage
  for (int i = 0; i < 6; ++i) {
    const SimTime at = (200 + i) * kSecond;
    const std::uint64_t id = next_id++;
    sim.schedule_at(at, [&proxy, id, at] {
      proxy.on_notification(make_event(id, "tA", at));
    });
  }
  sim.run();

  NodeLineage node;
  ASSERT_TRUE(read_node_lineage(backend, &node));
  const TopicLineage lineage = pick_topic_lineage(node, "tA");
  EXPECT_FALSE(lineage.image.empty());
  EXPECT_GT(lineage.watermark, 0u);
  EXPECT_FALSE(lineage.tail.empty());
  for (const storage::WalRecord& record : lineage.tail) {
    EXPECT_EQ(record.topic, "tA");
  }

  const std::vector<std::uint8_t> image_bytes =
      encode_topic_image("tA", lineage.image);
  const std::vector<std::uint8_t> tail_bytes = encode_wal_tail(lineage.tail);
  sim::Simulator dest_sim;
  core::Proxy dest(dest_sim, channel, "dest");
  ASSERT_TRUE(replay_shipped_topic(image_bytes, tail_bytes,
                                   lineage.tail.size(), "tA", online_config(),
                                   dest));
  EXPECT_EQ(dest.topic_names(), std::vector<std::string>{"tA"});

  // Byte-level equality against the live topic.
  EXPECT_EQ(live_image(dest, "tA"), live_image(proxy, "tA"));
}

TEST(ShardMigrationTest, ReplayRejectsShortOrDamagedShipments) {
  sim::Simulator sim;
  NullChannel channel;
  core::Proxy proxy(sim, channel, "source");
  storage::MemBackend backend;
  storage::ProxyPersistence persistence(sim, backend, {});
  proxy.add_topic("tA", online_config());
  persistence.attach(proxy);
  for (int i = 0; i < 4; ++i) {
    const SimTime at = (i + 1) * kSecond;
    const auto id = static_cast<std::uint64_t>(i + 1);
    sim.schedule_at(at, [&proxy, id, at] {
      proxy.on_notification(make_event(id, "tA", at));
    });
  }
  sim.run();

  NodeLineage node;
  ASSERT_TRUE(read_node_lineage(backend, &node));
  const TopicLineage lineage = pick_topic_lineage(node, "tA");
  const std::vector<std::uint8_t> image_bytes =
      encode_topic_image("tA", lineage.image);
  std::vector<std::uint8_t> tail_bytes = encode_wal_tail(lineage.tail);

  sim::Simulator dest_sim;
  core::Proxy dest(dest_sim, channel, "dest");
  // Tail shorter than promised: refuse (a silently truncated replay would
  // lose acknowledged records).
  EXPECT_FALSE(replay_shipped_topic(image_bytes, tail_bytes,
                                    lineage.tail.size() + 1, "tA",
                                    online_config(), dest));
  // Damaged image: refuse.
  std::vector<std::uint8_t> damaged = image_bytes;
  damaged[damaged.size() / 2] ^= 0x40;
  EXPECT_FALSE(replay_shipped_topic(damaged, tail_bytes, lineage.tail.size(),
                                    "tA", online_config(), dest));
  // Another topic's image: refuse.
  EXPECT_FALSE(replay_shipped_topic(encode_topic_image("tB", lineage.image),
                                    tail_bytes, lineage.tail.size(), "tA",
                                    online_config(), dest));
  // A tail holding another topic's record: refuse.
  std::vector<storage::WalRecord> mixed(lineage.tail.begin(),
                                        lineage.tail.end());
  mixed.back().topic = "tB";
  EXPECT_FALSE(replay_shipped_topic(image_bytes, encode_wal_tail(mixed),
                                    mixed.size(), "tA", online_config(), dest));
  // Torn tail blob: refuse.
  tail_bytes.resize(tail_bytes.size() - 2);
  EXPECT_FALSE(replay_shipped_topic(image_bytes, tail_bytes,
                                    lineage.tail.size(), "tA", online_config(),
                                    dest));
  // No refusal touched the destination.
  EXPECT_EQ(dest.topic_count(), 0u);
}

TEST(ShardMigrationTest, ExtractWithoutSnapshotShipsTheWholeLog) {
  sim::Simulator sim;
  NullChannel channel;
  core::Proxy proxy(sim, channel, "source");
  storage::MemBackend backend;
  storage::PersistenceConfig config;
  config.snapshot_interval = 0;
  storage::ProxyPersistence persistence(sim, backend, config);
  proxy.add_topic("tA", online_config());
  persistence.attach(proxy);
  for (int i = 0; i < 3; ++i) {
    const SimTime at = (i + 1) * kSecond;
    const auto id = static_cast<std::uint64_t>(i + 1);
    sim.schedule_at(at, [&proxy, id, at] {
      proxy.on_notification(make_event(id, "tA", at));
    });
  }
  sim.run();

  NodeLineage node;
  ASSERT_TRUE(read_node_lineage(backend, &node));
  const TopicLineage lineage = pick_topic_lineage(node, "tA");
  EXPECT_TRUE(lineage.image.empty());
  EXPECT_EQ(lineage.watermark, 0u);
  EXPECT_FALSE(lineage.tail.empty());

  sim::Simulator dest_sim;
  core::Proxy dest(dest_sim, channel, "dest");
  ASSERT_TRUE(replay_shipped_topic(encode_topic_image("tA", lineage.image),
                                   encode_wal_tail(lineage.tail),
                                   lineage.tail.size(), "tA", online_config(),
                                   dest));
  EXPECT_EQ(live_image(dest, "tA"), live_image(proxy, "tA"));
}

TEST(ShardMigrationTest, ReExtractAfterAnAdoptShipsTheAdoptFirst) {
  // tA moves A -> B, B folds it into its log with adopt(), keeps serving it,
  // and ships it on before B's next snapshot: B's only snapshot predates tA,
  // so the lineage is image-less and the tail opens with the kAdopt record.
  storage::PersistenceConfig manual;
  manual.snapshot_interval = 0;
  NullChannel channel;

  sim::Simulator a_sim;
  core::Proxy a(a_sim, channel, "a");
  storage::MemBackend a_backend;
  storage::ProxyPersistence a_persistence(a_sim, a_backend, manual);
  a.add_topic("tA", online_config());
  a_persistence.attach(a);
  for (int i = 0; i < 6; ++i) {
    const SimTime at = (10 + i) * kSecond;
    const auto id = static_cast<std::uint64_t>(i + 1);
    a_sim.schedule_at(at, [&a, id, at] {
      a.on_notification(make_event(id, "tA", at));
    });
  }
  a_sim.run();

  sim::Simulator b_sim;
  core::Proxy b(b_sim, channel, "b");
  storage::MemBackend b_backend;
  storage::ProxyPersistence b_persistence(b_sim, b_backend, manual);
  b.add_topic("tB", online_config());
  b_persistence.attach(b);
  b_sim.schedule_at(5 * kSecond, [&b] {
    b.on_notification(make_event(100, "tB", 5 * kSecond));
  });
  b_sim.run();
  ASSERT_TRUE(b_persistence.snapshot_now());

  // A -> B: ship, replay, fold.
  NodeLineage a_node;
  ASSERT_TRUE(read_node_lineage(a_backend, &a_node));
  const TopicLineage from_a = pick_topic_lineage(a_node, "tA");
  ASSERT_TRUE(replay_shipped_topic(encode_topic_image("tA", from_a.image),
                                   encode_wal_tail(from_a.tail),
                                   from_a.tail.size(), "tA", online_config(),
                                   b));
  ASSERT_TRUE(b_persistence.adopt("tA"));
  for (int i = 0; i < 4; ++i) {
    const SimTime at = (20 + i) * kSecond;
    const auto id = static_cast<std::uint64_t>(i + 7);
    b_sim.schedule_at(at, [&b, id, at] {
      b.on_notification(make_event(id, "tA", at));
    });
  }
  b_sim.run();

  // B -> onward.
  NodeLineage b_node;
  ASSERT_TRUE(read_node_lineage(b_backend, &b_node));
  const TopicLineage from_b = pick_topic_lineage(b_node, "tA");
  EXPECT_TRUE(from_b.image.empty());
  EXPECT_GT(from_b.watermark, 0u);
  ASSERT_GT(from_b.tail.size(), 1u);
  EXPECT_EQ(from_b.tail.front().type, storage::WalRecordType::kAdopt);
  sim::Simulator c_sim;
  core::Proxy c(c_sim, channel, "c");
  ASSERT_TRUE(replay_shipped_topic(encode_topic_image("tA", from_b.image),
                                   encode_wal_tail(from_b.tail),
                                   from_b.tail.size(), "tA", online_config(),
                                   c));
  EXPECT_EQ(live_image(c, "tA"), live_image(b, "tA"));
}

TEST(ShardMigrationTest, NodeLineageBucketsTheLogPastTheNewestSnapshot) {
  // One node read serves every topic moved off the node at one boundary.
  // Each pick must hold exactly the newest snapshot's image of the topic
  // and the topic's records past its watermark, in log order.
  sim::Simulator sim;
  NullChannel channel;
  core::Proxy proxy(sim, channel, "source");
  storage::MemBackend backend;
  storage::PersistenceConfig config;
  config.snapshot_interval = 8;
  storage::ProxyPersistence persistence(sim, backend, config);
  for (const char* topic : {"tA", "tB", "tC"}) {
    proxy.add_topic(topic, online_config());
  }
  persistence.attach(proxy);
  for (int i = 0; i < 21; ++i) {
    const SimTime at = (i + 1) * kSecond;
    const std::string topic = (i % 3 == 0) ? "tA" : (i % 3 == 1) ? "tB" : "tC";
    const auto id = static_cast<std::uint64_t>(i + 1);
    sim.schedule_at(at, [&proxy, id, topic, at] {
      proxy.on_notification(make_event(id, topic, at));
    });
  }
  sim.run();

  storage::ProxySnapshot snapshot;
  std::uint64_t seq = 0;
  std::uint64_t damaged = 0;
  ASSERT_TRUE(
      storage::load_latest_snapshot(backend, &snapshot, &seq, &damaged));
  const storage::WalReadResult wal = storage::read_wal(backend);
  ASSERT_LT(snapshot.watermark, wal.records.size());

  NodeLineage node;
  ASSERT_TRUE(read_node_lineage(backend, &node));
  EXPECT_EQ(node.snapshot.watermark, snapshot.watermark);
  for (const std::string topic : {"tA", "tB", "tC", "absent"}) {
    const std::span<const std::uint8_t> image = snapshot.image(topic);
    std::vector<storage::WalRecord> tail;
    for (std::size_t i = snapshot.watermark; i < wal.records.size(); ++i) {
      if (wal.records[i].topic == topic) tail.push_back(wal.records[i]);
    }

    const TopicLineage picked = pick_topic_lineage(node, topic);
    EXPECT_EQ(picked.image.empty(), image.empty()) << topic;
    EXPECT_EQ(picked.watermark, snapshot.watermark) << topic;
    EXPECT_TRUE(std::ranges::equal(picked.image, image)) << topic;
    EXPECT_EQ(encode_wal_tail(picked.tail), encode_wal_tail(tail)) << topic;
  }
}

}  // namespace
}  // namespace waif::experiments
