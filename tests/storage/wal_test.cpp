// The CRC32-framed write-ahead log: every record type round-trips, a torn
// or corrupted tail stops the scan at the last valid frame, and the writer's
// unsynced-window accounting matches what a crash can lose.
#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/journal.h"
#include "core/snapshot.h"
#include "storage/backend.h"
#include "storage/snapshot.h"

namespace waif::storage {
namespace {

pubsub::Notification make_event(std::uint64_t id) {
  pubsub::Notification event;
  event.id = NotificationId{id};
  event.topic = "wal/topic";
  event.publisher = PublisherId{3};
  event.rank = 4.25;
  event.published_at = 1000;
  event.expires_at = 9000;
  event.payload = "payload";
  return event;
}

std::vector<std::uint8_t> topic_bytes(const core::TopicSnapshot& image) {
  ByteWriter writer;
  encode_topic(writer, image);
  return writer.take();
}

TEST(Wal, EveryRecordTypeRoundTrips) {
  MemBackend backend;
  WalWriter writer(backend, kWalBlobName);

  WalRecord enqueue;
  enqueue.type = WalRecordType::kEnqueue;
  enqueue.topic = "t";
  enqueue.at = 10;
  enqueue.event = make_event(1);
  enqueue.stage = core::JournalStage::kDelay;
  enqueue.release_at = 500;
  enqueue.fresh = true;
  enqueue.exp_tracked = true;
  enqueue.rate_credit = 0.75;
  writer.append(enqueue);

  WalRecord forward;
  forward.type = WalRecordType::kForward;
  forward.topic = "t";
  forward.at = 20;
  forward.event = make_event(2);
  forward.replicated = true;
  forward.rate_credit = 1.5;
  writer.append(forward);

  WalRecord read;
  read.type = WalRecordType::kRead;
  read.topic = "t";
  read.at = 30;
  read.request_id = 77;
  read.n = 8;
  read.queue_size = 3;
  writer.append(read);

  WalRecord sync;
  sync.type = WalRecordType::kSync;
  sync.topic = "t";
  sync.at = 40;
  sync.sync_id = 78;
  sync.queue_size = 2;
  sync.offline_reads = {{35, 8}, {38, 4}};
  writer.append(sync);

  WalRecord expire;
  expire.type = WalRecordType::kExpire;
  expire.topic = "t";
  expire.at = 50;
  expire.id = 2;
  expire.timer_fired = true;
  writer.append(expire);

  WalRecord requeue;
  requeue.type = WalRecordType::kRequeue;
  requeue.topic = "t";
  requeue.at = 60;
  requeue.event = make_event(3);
  writer.append(requeue);

  WalRecord ack;
  ack.type = WalRecordType::kAck;
  ack.topic = "t";
  ack.at = 70;
  ack.id = 3;
  writer.append(ack);

  WalRecord shed;
  shed.type = WalRecordType::kShed;
  shed.topic = "t";
  shed.at = 80;
  shed.event = make_event(4);
  writer.append(shed);

  auto image = std::make_shared<core::TopicSnapshot>();
  image->outgoing = {make_event(5)};
  image->delayed = {{make_event(6), 700}};
  image->history = {make_event(5), make_event(6)};
  image->forwarded = {1, 2};
  image->expiration_armed = {{6, 9000}};
  image->seen_read_ids = {77};
  image->old_reads.samples = {8.0};
  image->old_reads.sum = 8.0;
  image->read_times.last = 30.0;
  image->queue_size_view = 2;
  image->rate_credit = 0.5;
  image->current_day = 1;
  image->forwarded_today = 2;
  WalRecord adopt;
  adopt.type = WalRecordType::kAdopt;
  adopt.topic = "t";
  adopt.at = 90;
  adopt.adopted = image;
  writer.append(adopt);

  EXPECT_EQ(writer.record_count(), 9u);

  const WalReadResult result = read_wal(backend, kWalBlobName);
  ASSERT_TRUE(result.clean());
  ASSERT_EQ(result.records.size(), 9u);

  const WalRecord& e = result.records[0];
  EXPECT_EQ(e.type, WalRecordType::kEnqueue);
  EXPECT_EQ(e.topic, "t");
  EXPECT_EQ(e.at, 10);
  EXPECT_EQ(e.event.id.value, 1u);
  EXPECT_EQ(e.event.topic, "wal/topic");
  EXPECT_EQ(e.event.rank, 4.25);
  EXPECT_EQ(e.event.payload, "payload");
  EXPECT_EQ(e.stage, core::JournalStage::kDelay);
  EXPECT_EQ(e.release_at, 500);
  EXPECT_TRUE(e.fresh);
  EXPECT_TRUE(e.exp_tracked);
  EXPECT_EQ(e.rate_credit, 0.75);

  const WalRecord& f = result.records[1];
  EXPECT_EQ(f.type, WalRecordType::kForward);
  EXPECT_EQ(f.event.id.value, 2u);
  EXPECT_TRUE(f.replicated);
  EXPECT_EQ(f.rate_credit, 1.5);

  const WalRecord& r = result.records[2];
  EXPECT_EQ(r.request_id, 77u);
  EXPECT_EQ(r.n, 8);
  EXPECT_EQ(r.queue_size, 3u);

  const WalRecord& s = result.records[3];
  EXPECT_EQ(s.sync_id, 78u);
  ASSERT_EQ(s.offline_reads.size(), 2u);
  EXPECT_EQ(s.offline_reads[1].time, 38);
  EXPECT_EQ(s.offline_reads[1].n, 4);

  EXPECT_EQ(result.records[4].id, 2u);
  EXPECT_TRUE(result.records[4].timer_fired);
  EXPECT_EQ(result.records[5].event.id.value, 3u);
  EXPECT_EQ(result.records[6].type, WalRecordType::kAck);
  EXPECT_EQ(result.records[6].id, 3u);

  const WalRecord& d = result.records[7];
  EXPECT_EQ(d.type, WalRecordType::kShed);
  EXPECT_EQ(d.at, 80);
  EXPECT_EQ(d.event.id.value, 4u);
  EXPECT_EQ(d.event.payload, "payload");

  const WalRecord& a = result.records[8];
  EXPECT_EQ(a.type, WalRecordType::kAdopt);
  EXPECT_EQ(a.topic, "t");
  EXPECT_EQ(a.at, 90);
  ASSERT_NE(a.adopted, nullptr);
  EXPECT_EQ(topic_bytes(*a.adopted), topic_bytes(*image));
}

TEST(Wal, TornTailStopsTheScanAtTheLastFullFrame) {
  MemBackend backend;
  WalWriter writer(backend, kWalBlobName);
  WalRecord record;
  record.type = WalRecordType::kExpire;
  record.topic = "t";
  record.id = 1;
  writer.append(record);
  record.id = 2;
  writer.append(record);

  // Tear the log mid-frame: keep the first record plus 5 bytes of the next.
  std::vector<std::uint8_t> raw;
  ASSERT_TRUE(backend.read(kWalBlobName, &raw));
  const WalReadResult full = read_wal(backend, kWalBlobName);
  ASSERT_EQ(full.records.size(), 2u);
  const std::size_t first_frame = full.valid_bytes / 2;
  backend.truncate(kWalBlobName, first_frame + 5);

  const WalReadResult torn = read_wal(backend, kWalBlobName);
  EXPECT_FALSE(torn.clean());
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_EQ(torn.crc_failures, 0u);
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_EQ(torn.records[0].id, 1u);
  EXPECT_EQ(torn.valid_bytes, first_frame);
}

TEST(Wal, CorruptedPayloadFailsTheCrc) {
  MemBackend backend;
  WalWriter writer(backend, kWalBlobName);
  WalRecord record;
  record.type = WalRecordType::kExpire;
  record.topic = "t";
  record.id = 1;
  writer.append(record);
  record.id = 2;
  writer.append(record);

  std::vector<std::uint8_t> raw;
  ASSERT_TRUE(backend.read(kWalBlobName, &raw));
  raw[raw.size() - 2] ^= 0xFF;  // inside the second record's payload
  backend.write(kWalBlobName, raw);

  const WalReadResult result = read_wal(backend, kWalBlobName);
  EXPECT_EQ(result.crc_failures, 1u);
  EXPECT_FALSE(result.clean());
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].id, 1u);
}

TEST(Wal, MissingBlobReadsAsEmpty) {
  MemBackend backend;
  const WalReadResult result = read_wal(backend, kWalBlobName);
  EXPECT_TRUE(result.clean());
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.total_bytes, 0u);
}

TEST(Wal, WriterTracksTheUnsyncedWindow) {
  MemBackend backend;
  WalWriter writer(backend, kWalBlobName, /*initial_count=*/10);
  WalRecord record;
  record.type = WalRecordType::kExpire;
  record.topic = "t";
  writer.append(record);
  writer.append(record);
  EXPECT_EQ(writer.record_count(), 12u);
  EXPECT_EQ(writer.unsynced_records(), 2u);
  ASSERT_TRUE(writer.sync());
  EXPECT_EQ(writer.unsynced_records(), 0u);

  writer.reset_count(5);
  EXPECT_EQ(writer.record_count(), 5u);
  EXPECT_EQ(writer.unsynced_records(), 0u);
}

}  // namespace
}  // namespace waif::storage
