#include "experiments/shard_migration.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "storage/codec.h"
#include "storage/persistence.h"
#include "storage/snapshot.h"

namespace waif::experiments {

namespace {

std::string numbered_blob(const char* suffix, std::uint64_t id) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "mig-%06llu-%s",
                static_cast<unsigned long long>(id), suffix);
  return buffer;
}

void encode_record_payload(const MigrationRecord& record,
                           storage::ByteWriter& out) {
  out.u64(record.id);
  out.u8(static_cast<std::uint8_t>(record.stage));
  out.str(record.topic);
  out.u32(record.from);
  out.u32(record.to);
  out.u64(record.watermark);
  out.u64(record.tail_records);
  out.i64(record.at);
}

bool decode_record_payload(storage::ByteReader& reader,
                           MigrationRecord* record) {
  record->id = reader.u64();
  const std::uint8_t stage = reader.u8();
  record->topic = reader.str();
  record->from = reader.u32();
  record->to = reader.u32();
  record->watermark = reader.u64();
  record->tail_records = reader.u64();
  record->at = reader.i64();
  if (reader.failed() || stage > static_cast<std::uint8_t>(
                                     MigrationStage::kAborted)) {
    return false;
  }
  record->stage = static_cast<MigrationStage>(stage);
  return true;
}

}  // namespace

std::string_view migration_stage_name(MigrationStage stage) {
  switch (stage) {
    case MigrationStage::kPlanned:
      return "planned";
    case MigrationStage::kQuiesced:
      return "quiesced";
    case MigrationStage::kShipped:
      return "shipped";
    case MigrationStage::kReplayed:
      return "replayed";
    case MigrationStage::kFlipped:
      return "flipped";
    case MigrationStage::kDrained:
      return "drained";
    case MigrationStage::kDone:
      return "done";
    case MigrationStage::kAborted:
      return "aborted";
  }
  return "planned";
}

std::string migration_image_blob(std::uint64_t id) {
  return numbered_blob("image", id);
}

std::string migration_tail_blob(std::uint64_t id) {
  return numbered_blob("tail", id);
}

MigrationJournal::MigrationJournal(storage::StorageBackend& backend,
                                   std::string blob)
    : backend_(backend), blob_(std::move(blob)) {}

bool MigrationJournal::append(const MigrationRecord& record) {
  storage::ByteWriter payload;
  encode_record_payload(record, payload);
  storage::ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(storage::crc32(payload.bytes()));
  frame.raw(payload.bytes().data(), payload.size());
  backend_.append(blob_, frame.bytes());
  ++appends_;
  if (backend_.sync(blob_)) return true;
  ++failed_appends_;
  return false;
}

MigrationJournal::ReadResult MigrationJournal::read(
    const storage::StorageBackend& backend, const std::string& blob) {
  ReadResult result;
  std::vector<std::uint8_t> bytes;
  if (!backend.read(blob, &bytes)) return result;
  result.total_bytes = bytes.size();

  std::size_t offset = 0;
  while (offset + 8 <= bytes.size()) {
    storage::ByteReader header(bytes.data() + offset, 8);
    const std::uint32_t length = header.u32();
    const std::uint32_t crc = header.u32();
    if (offset + 8 + length > bytes.size()) {
      result.torn_tail = true;
      break;
    }
    const std::uint8_t* payload = bytes.data() + offset + 8;
    if (storage::crc32(payload, length) != crc) {
      ++result.crc_failures;
      break;
    }
    storage::ByteReader reader(payload, length);
    MigrationRecord record;
    if (!decode_record_payload(reader, &record) || !reader.exhausted()) {
      ++result.crc_failures;
      break;
    }
    result.records.push_back(std::move(record));
    offset += 8 + length;
  }
  if (offset < bytes.size() && !result.torn_tail && result.crc_failures == 0) {
    // A trailing sub-header stub is a torn write too.
    result.torn_tail = true;
  }
  result.valid_bytes = offset;
  return result;
}

void MigrationJournal::resume(const ReadResult& journal) {
  if (!journal.clean()) backend_.truncate(blob_, journal.valid_bytes);
  std::uint64_t max_id = 0;
  for (const MigrationRecord& record : journal.records) {
    max_id = std::max(max_id, record.id);
  }
  next_id_ = max_id + 1;
}

MigrationResume migration_resume_action(MigrationStage stage) {
  switch (stage) {
    case MigrationStage::kPlanned:
    case MigrationStage::kQuiesced:
    case MigrationStage::kShipped:
    case MigrationStage::kReplayed:
      return MigrationResume::kRollBack;
    case MigrationStage::kFlipped:
    case MigrationStage::kDrained:
      return MigrationResume::kRollForward;
    case MigrationStage::kDone:
    case MigrationStage::kAborted:
      return MigrationResume::kNone;
  }
  return MigrationResume::kNone;
}

std::map<std::string, std::uint32_t> derive_owners(
    std::map<std::string, std::uint32_t> initial,
    const std::vector<MigrationRecord>& records) {
  for (const MigrationRecord& record : records) {
    if (record.stage != MigrationStage::kFlipped) continue;
    initial[record.topic] = record.to;
  }
  return initial;
}

SimDuration migration_backoff(std::uint32_t retry) {
  WAIF_CHECK(retry >= 1);
  SimDuration backoff = kMigrationBackoffBase;
  for (std::uint32_t i = 1; i < retry && backoff < kMigrationBackoffCap; ++i) {
    backoff *= 2;
  }
  return std::min(backoff, kMigrationBackoffCap);
}

bool read_node_lineage(const storage::StorageBackend& backend,
                       NodeLineage* out) {
  *out = NodeLineage{};
  std::uint64_t seq = 0;
  std::uint64_t damaged = 0;
  load_latest_snapshot(backend, &out->snapshot, &seq, &damaged);

  const std::uint64_t watermark = out->snapshot.watermark;
  std::uint64_t index = 0;
  const storage::WalScan wal =
      scan_wal(backend, storage::kWalBlobName,
               [out, watermark, &index](storage::WalRecord& record) {
                 if (index++ < watermark) return;
                 out->tails[record.topic].push_back(std::move(record));
               });
  if (watermark > wal.record_count) {
    *out = NodeLineage{};
    return false;
  }
  return true;
}

TopicLineage pick_topic_lineage(const NodeLineage& node,
                                const std::string& topic) {
  TopicLineage lineage;
  lineage.image = node.snapshot.image(topic);
  lineage.watermark = node.snapshot.watermark;
  const auto tail = node.tails.find(topic);
  if (tail != node.tails.end()) lineage.tail = tail->second;
  return lineage;
}

std::vector<std::uint8_t> encode_topic_image(
    const std::string& topic, std::span<const std::uint8_t> image) {
  storage::ByteWriter blob;
  // Watermark 0: the shipped tail replays in full on top.
  storage::begin_snapshot(blob, 0, 0, nullptr, 1);
  blob.str(topic);
  if (image.empty()) {
    storage::encode_empty_topic_image(blob);
  } else {
    blob.raw(image.data(), image.size());
  }
  storage::finish_snapshot(blob);
  return blob.take();
}

std::vector<std::uint8_t> encode_wal_tail(
    std::span<const storage::WalRecord> records) {
  std::vector<std::uint8_t> bytes;
  for (const storage::WalRecord& record : records) {
    const std::vector<std::uint8_t> frame = storage::encode_wal_record(record);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

bool replay_shipped_topic(std::vector<std::uint8_t> image_bytes,
                          const std::vector<std::uint8_t>& tail_bytes,
                          std::uint64_t expected_tail, const std::string& topic,
                          const core::TopicConfig& config, core::Proxy& dest) {
  storage::ProxySnapshot image;
  if (!storage::decode_snapshot(std::move(image_bytes), &image)) return false;
  if (image.topics.size() != 1 || image.watermark != 0 ||
      image.topics.front().name != topic) {
    return false;
  }
  std::vector<storage::WalRecord> tail;
  tail.reserve(expected_tail);
  bool foreign = false;
  // An adopt in the tail replaces the image and every record before it.
  std::size_t from = 0;
  const storage::WalScan scan =
      storage::scan_wal_bytes(tail_bytes, [&](storage::WalRecord& record) {
        foreign |= record.topic != topic;
        tail.push_back(std::move(record));
        if (tail.back().type == storage::WalRecordType::kAdopt) {
          from = tail.size();
        }
      });
  if (!scan.clean() || scan.record_count != expected_tail || foreign) {
    return false;
  }

  // Both images were validated above, by decode_snapshot and the scan.
  core::TopicState& state = dest.add_topic(topic, config);
  WAIF_CHECK(storage::restore_topic_image(
      from == 0 ? image.image(image.topics.front())
                : std::span<const std::uint8_t>(tail[from - 1].adopted),
      state));
  for (; from < tail.size(); ++from) {
    storage::replay_wal_record(state, tail[from]);
  }
  return true;
}

}  // namespace waif::experiments
