// The CRC32-framed write-ahead log: every record type round-trips, its frame
// bytes stay pinned, a torn or corrupted tail stops the scan at the last
// valid frame, and the writer's unsynced-window accounting matches what a
// crash can lose.
#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
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

/// A small topic image, scripted section by section through the encoding
/// sink (it need not be a state a TopicState could reach).
std::vector<std::uint8_t> scripted_image() {
  using core::ImageSection;
  ByteWriter out;
  TopicImageEncoder image(out);
  image.begin(ImageSection::kOutgoing, 1);
  image.event(make_event(5));
  image.begin(ImageSection::kPrefetch, 0);
  image.begin(ImageSection::kHolding, 0);
  image.begin(ImageSection::kDelayed, 1);
  image.delayed(make_event(6), 700);
  image.begin(ImageSection::kHistory, 2);
  image.event(make_event(5));
  image.event(make_event(6));
  image.ids(ImageSection::kForwarded, std::vector<std::uint64_t>{1, 2});
  image.begin(ImageSection::kArmed, 1);
  image.armed(6, 9000);
  image.ids(ImageSection::kSeenReads, std::vector<std::uint64_t>{77});
  image.ids(ImageSection::kSeenSyncs, std::vector<std::uint64_t>{});
  const std::vector<double> none;
  image.average(ImageSection::kOldReads, std::vector<double>{8.0}, 8.0,
                std::nullopt);
  image.average(ImageSection::kReadTimes, none, 0.0, 30.0);
  image.average(ImageSection::kExpTimes, none, 0.0, std::nullopt);
  image.average(ImageSection::kArrivalTimes, none, 0.0, std::nullopt);
  image.scalars(2, 0.5, 1, 2);
  return out.take();
}

/// One record of every WalRecordType, in type order.
std::vector<WalRecord> one_record_of_each_type() {
  std::vector<WalRecord> records;

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
  records.push_back(enqueue);

  WalRecord forward;
  forward.type = WalRecordType::kForward;
  forward.topic = "t";
  forward.at = 20;
  forward.event = make_event(2);
  forward.replicated = true;
  forward.rate_credit = 1.5;
  records.push_back(forward);

  WalRecord read;
  read.type = WalRecordType::kRead;
  read.topic = "t";
  read.at = 30;
  read.request_id = 77;
  read.n = 8;
  read.queue_size = 3;
  records.push_back(read);

  WalRecord sync;
  sync.type = WalRecordType::kSync;
  sync.topic = "t";
  sync.at = 40;
  sync.sync_id = 78;
  sync.queue_size = 2;
  sync.offline_reads = {{35, 8}, {38, 4}};
  records.push_back(sync);

  WalRecord expire;
  expire.type = WalRecordType::kExpire;
  expire.topic = "t";
  expire.at = 50;
  expire.id = 2;
  expire.timer_fired = true;
  records.push_back(expire);

  WalRecord requeue;
  requeue.type = WalRecordType::kRequeue;
  requeue.topic = "t";
  requeue.at = 60;
  requeue.event = make_event(3);
  records.push_back(requeue);

  WalRecord ack;
  ack.type = WalRecordType::kAck;
  ack.topic = "t";
  ack.at = 70;
  ack.id = 3;
  records.push_back(ack);

  WalRecord shed;
  shed.type = WalRecordType::kShed;
  shed.topic = "t";
  shed.at = 80;
  shed.event = make_event(4);
  records.push_back(shed);

  WalRecord adopt;
  adopt.type = WalRecordType::kAdopt;
  adopt.topic = "t";
  adopt.at = 90;
  adopt.adopted = scripted_image();
  records.push_back(adopt);

  return records;
}

TEST(Wal, EveryRecordTypeRoundTrips) {
  MemBackend backend;
  WalWriter writer(backend, kWalBlobName);
  const std::vector<WalRecord> records = one_record_of_each_type();
  for (const WalRecord& record : records) writer.append(record);
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
  EXPECT_EQ(a.adopted, records[8].adopted);
}

// The on-disk format, pinned: the CRC32 of one whole frame of every record
// type and of one small snapshot blob. A log or checkpoint written before a
// codec or CRC change must replay after it, so none of these may move.
TEST(Wal, FrameAndSnapshotBytesArePinned) {
  const std::vector<WalRecord> records = one_record_of_each_type();
  const std::uint32_t frame_crcs[] = {
      0x1B5B6A93u, 0x3C5A644Cu, 0x8585F3A0u, 0x08DC2B7Bu, 0x4662F389u,
      0x17ABA7ABu, 0x15C7F367u, 0xB3B0317Au, 0x34D3F96Du};
  ASSERT_EQ(records.size(), std::size(frame_crcs));
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(crc32(encode_wal_record(records[i])), frame_crcs[i])
        << "record type " << static_cast<int>(records[i].type);
  }

  core::ChannelSnapshot channel;
  channel.next_seq = 4;
  channel.seen = {1, 2, 3};
  ByteWriter blob;
  begin_snapshot(blob, 9, 95, &channel, 1);
  blob.str("t");
  blob.raw(records[8].adopted.data(), records[8].adopted.size());
  finish_snapshot(blob);
  EXPECT_EQ(crc32(blob.bytes()), 0xBF061581u);
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

// A frame whose CRC holds but whose payload does not decode is damage like a
// bit flip, whether the scan keeps the records or only counts them.
TEST(Wal, UndecodableFrameIsACrcFailureInEveryScan) {
  MemBackend backend;
  WalWriter writer(backend, kWalBlobName);
  WalRecord record;
  record.type = WalRecordType::kAck;
  record.topic = "t";
  writer.append(record);

  const std::uint8_t payload[] = {0x7F};  // no such record type
  ByteWriter frame;
  frame.u32(sizeof(payload));
  frame.u32(crc32(payload, sizeof(payload)));
  frame.raw(payload, sizeof(payload));
  backend.append(kWalBlobName, frame.bytes());

  const WalScan counted = scan_wal(backend);
  EXPECT_EQ(counted.record_count, 1u);
  EXPECT_EQ(counted.crc_failures, 1u);
  EXPECT_FALSE(counted.clean());

  const WalReadResult read = read_wal(backend);
  EXPECT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.crc_failures, 1u);
  EXPECT_EQ(read.valid_bytes, counted.valid_bytes);
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
