#include "storage/wal.h"

#include <bit>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>

#include "common/check.h"
#include "storage/snapshot.h"

namespace waif::storage {

using pubsub::Notification;

void encode_notification(ByteWriter& writer, const Notification& event) {
  // Six fixed words and two length prefixes: the buffer grows once and
  // every field is stored in place.
  const std::size_t topic = event.topic.size();
  const std::size_t payload = event.payload.size();
  std::uint8_t* out = writer.extend(48 + topic + payload);
  const auto word = [&out](std::uint64_t value) {
    ByteWriter::store_le64(out, value);
    out += 8;
  };
  const auto bytes = [&out](const std::string& value) {
    ByteWriter::store_le32(out, static_cast<std::uint32_t>(value.size()));
    std::memcpy(out + 4, value.data(), value.size());
    out += 4 + value.size();
  };
  word(event.id.value);
  bytes(event.topic);
  word(event.publisher.value);
  word(std::bit_cast<std::uint64_t>(event.rank));
  word(static_cast<std::uint64_t>(event.published_at));
  word(static_cast<std::uint64_t>(event.expires_at));
  bytes(event.payload);
}

Notification decode_notification(ByteReader& reader) {
  Notification event;
  event.id = NotificationId(reader.u64());
  event.topic = reader.str();
  event.publisher = PublisherId(reader.u64());
  event.rank = reader.f64();
  event.published_at = reader.i64();
  event.expires_at = reader.i64();
  event.payload = reader.str();
  return event;
}

namespace {

void encode_payload_into(ByteWriter& writer, const WalRecord& record) {
  writer.u8(static_cast<std::uint8_t>(record.type));
  writer.str(record.topic);
  writer.i64(record.at);
  switch (record.type) {
    case WalRecordType::kEnqueue:
      encode_notification(writer, record.event);
      writer.u8(static_cast<std::uint8_t>(record.stage));
      writer.i64(record.release_at);
      writer.u8(record.fresh ? 1 : 0);
      writer.u8(record.exp_tracked ? 1 : 0);
      writer.f64(record.rate_credit);
      break;
    case WalRecordType::kForward:
      encode_notification(writer, record.event);
      writer.u8(record.replicated ? 1 : 0);
      writer.f64(record.rate_credit);
      break;
    case WalRecordType::kRead:
      writer.u64(record.request_id);
      writer.i64(record.n);
      writer.u64(record.queue_size);
      break;
    case WalRecordType::kSync:
      writer.u64(record.sync_id);
      writer.u64(record.queue_size);
      writer.u32(static_cast<std::uint32_t>(record.offline_reads.size()));
      for (const core::ReadRecord& read : record.offline_reads) {
        writer.i64(read.time);
        writer.i64(read.n);
      }
      break;
    case WalRecordType::kExpire:
      writer.u64(record.id);
      writer.u8(record.timer_fired ? 1 : 0);
      break;
    case WalRecordType::kRequeue:
    case WalRecordType::kShed:
      encode_notification(writer, record.event);
      break;
    case WalRecordType::kAck:
      writer.u64(record.id);
      break;
    case WalRecordType::kAdopt:
      WAIF_CHECK(record.adopted != nullptr);
      encode_topic(writer, *record.adopted);
      break;
  }
}

/// Decodes one payload. False when the payload is malformed (unknown type,
/// short fields, trailing bytes) — treated exactly like a CRC failure.
bool decode_payload(const std::uint8_t* payload, std::size_t length,
                    WalRecord* record) {
  ByteReader reader(payload, length);
  record->type = static_cast<WalRecordType>(reader.u8());
  record->topic = reader.str();
  record->at = reader.i64();
  switch (record->type) {
    case WalRecordType::kEnqueue: {
      record->event = decode_notification(reader);
      const std::uint8_t stage = reader.u8();
      if (stage > static_cast<std::uint8_t>(core::JournalStage::kDelay)) {
        return false;
      }
      record->stage = static_cast<core::JournalStage>(stage);
      record->release_at = reader.i64();
      record->fresh = reader.u8() != 0;
      record->exp_tracked = reader.u8() != 0;
      record->rate_credit = reader.f64();
      break;
    }
    case WalRecordType::kForward:
      record->event = decode_notification(reader);
      record->replicated = reader.u8() != 0;
      record->rate_credit = reader.f64();
      break;
    case WalRecordType::kRead:
      record->request_id = reader.u64();
      record->n = static_cast<int>(reader.i64());
      record->queue_size = reader.u64();
      break;
    case WalRecordType::kSync: {
      record->sync_id = reader.u64();
      record->queue_size = reader.u64();
      const std::uint32_t count = reader.u32();
      if (reader.failed()) return false;
      // Each offline read is 16 encoded bytes; an absurd count means a
      // corrupt frame, not a huge sync.
      if (count > reader.remaining() / 16) return false;
      record->offline_reads.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        core::ReadRecord read;
        read.time = reader.i64();
        read.n = static_cast<int>(reader.i64());
        record->offline_reads.push_back(read);
      }
      break;
    }
    case WalRecordType::kExpire:
      record->id = reader.u64();
      record->timer_fired = reader.u8() != 0;
      break;
    case WalRecordType::kRequeue:
    case WalRecordType::kShed:
      record->event = decode_notification(reader);
      break;
    case WalRecordType::kAck:
      record->id = reader.u64();
      break;
    case WalRecordType::kAdopt: {
      auto adopted = std::make_shared<core::TopicSnapshot>();
      if (!decode_topic(reader, adopted.get())) return false;
      record->adopted = std::move(adopted);
      break;
    }
    default:
      return false;
  }
  return reader.exhausted();
}

}  // namespace

std::vector<std::uint8_t> encode_wal_record(const WalRecord& record) {
  ByteWriter payload_scratch;
  ByteWriter frame;
  encode_wal_record_into(record, payload_scratch, frame);
  return frame.take();
}

void encode_wal_record_into(const WalRecord& record, ByteWriter& payload_scratch,
                            ByteWriter& out) {
  payload_scratch.clear();
  encode_payload_into(payload_scratch, record);
  const std::vector<std::uint8_t>& payload = payload_scratch.bytes();
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u32(crc32(payload));
  out.raw(payload.data(), payload.size());
}

void WalWriter::append(const WalRecord& record) {
  if (group_commit_) {
    encode_wal_record_into(record, payload_scratch_, staging_);
    ++staged_;
  } else {
    frame_scratch_.clear();
    encode_wal_record_into(record, payload_scratch_, frame_scratch_);
    backend_.append(blob_, frame_scratch_.bytes());
  }
  ++count_;
  ++unsynced_;
}

void WalWriter::set_group_commit(bool on) {
  if (!on) flush();
  group_commit_ = on;
}

void WalWriter::flush() {
  if (staged_ == 0) return;
  backend_.append(blob_, staging_.bytes());
  staging_.clear();
  staged_ = 0;
}

bool WalWriter::sync() {
  flush();
  if (!backend_.sync(blob_)) return false;
  unsynced_ = 0;
  return true;
}

WalScan scan_wal(const StorageBackend& backend, const std::string& blob,
                 const std::function<void(WalRecord&)>& visit) {
  WalScan scan;
  std::vector<std::uint8_t> bytes;
  if (!backend.read(blob, &bytes)) return scan;
  scan.total_bytes = bytes.size();

  std::size_t offset = 0;
  constexpr std::size_t kHeaderBytes = 8;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kHeaderBytes) {
      scan.torn_tail = true;
      break;
    }
    ByteReader header(bytes.data() + offset, kHeaderBytes);
    const std::uint32_t length = header.u32();
    const std::uint32_t expected_crc = header.u32();
    if (bytes.size() - offset - kHeaderBytes < length) {
      scan.torn_tail = true;
      break;
    }
    const std::uint8_t* payload = bytes.data() + offset + kHeaderBytes;
    if (crc32(payload, length) != expected_crc) {
      ++scan.crc_failures;
      break;
    }
    WalRecord record;
    if (!decode_payload(payload, length, &record)) {
      ++scan.crc_failures;
      break;
    }
    if (visit) visit(record);
    ++scan.record_count;
    offset += kHeaderBytes + length;
    scan.valid_bytes = offset;
  }
  return scan;
}

WalReadResult read_wal(const StorageBackend& backend, const std::string& blob) {
  WalReadResult result;
  static_cast<WalScan&>(result) =
      scan_wal(backend, blob, [&result](WalRecord& record) {
        result.records.push_back(std::move(record));
      });
  return result;
}

}  // namespace waif::storage
