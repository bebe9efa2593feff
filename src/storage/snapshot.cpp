#include "storage/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <functional>
#include <utility>

#include "common/check.h"
#include "core/topic_state.h"
#include "storage/codec.h"
#include "storage/wal.h"

namespace waif::storage {

namespace {

constexpr char kMagic[8] = {'W', 'A', 'I', 'F', 'S', 'N', 'P', '1'};
/// The magic plus the [u32 length][u32 crc32] frame header.
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 8;

/// A u32 count, then the ids, in one capacity step.
void encode_ids(ByteWriter& writer, const std::vector<std::uint64_t>& ids) {
  std::uint8_t* out = writer.extend(4 + 8 * ids.size());
  ByteWriter::store_le32(out, static_cast<std::uint32_t>(ids.size()));
  out += 4;
  for (std::uint64_t id : ids) {
    ByteWriter::store_le64(out, id);
    out += 8;
  }
}

bool decode_ids(ByteReader& reader, std::vector<std::uint64_t>* ids) {
  const std::uint32_t count = reader.u32();
  if (reader.failed() || count > reader.remaining() / 8) return false;
  ids->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) ids->push_back(reader.u64());
  return !reader.failed();
}

}  // namespace

std::span<const std::uint8_t> ProxySnapshot::image(
    std::string_view name) const {
  for (const TopicImageRange& topic : topics) {
    if (topic.name == name) return image(topic);
  }
  return {};
}

void TopicImageEncoder::event(const pubsub::Notification& event) {
  encode_notification(out_, event);
}

void TopicImageEncoder::delayed(const pubsub::Notification& event,
                                SimTime release_at) {
  encode_notification(out_, event);
  out_.i64(release_at);
}

void TopicImageEncoder::ids(core::ImageSection,
                            const std::vector<std::uint64_t>& sorted) {
  encode_ids(out_, sorted);
}

void TopicImageEncoder::scalars(std::uint64_t queue_size_view,
                                double rate_credit, std::int64_t current_day,
                                std::uint64_t forwarded_today) {
  out_.u64(queue_size_view);
  out_.f64(rate_credit);
  out_.i64(current_day);
  out_.u64(forwarded_today);
}

void encode_empty_topic_image(ByteWriter& out) {
  // Every count, sum, presence byte and scalar of the empty image is zero,
  // so it decodes from zeros.
  constexpr std::uint8_t kZeros[256] = {};
  ByteReader zeros(kZeros, sizeof(kZeros));
  TopicImageEncoder image(out);
  WAIF_CHECK(read_topic_image(zeros, image));
}

std::vector<std::uint8_t> topic_image(const core::TopicState& topic) {
  ByteWriter out;
  TopicImageEncoder image(out);
  topic.write_image(image);
  return out.take();
}

bool restore_topic_image(std::span<const std::uint8_t> image,
                         core::TopicState& topic) {
  TopicImageShape shape;
  if (!read_topic_image(image, shape)) return false;
  core::TopicState::Restorer restorer(topic);
  WAIF_CHECK(read_topic_image(image, restorer));
  return true;
}

std::string snapshot_blob_name(std::uint64_t seq) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "snap-%06llu",
                static_cast<unsigned long long>(seq));
  return buffer;
}

bool parse_snapshot_name(const std::string& name, std::uint64_t* seq) {
  // Whatever else sits in the directory — extra zeros, a number past 2^64 —
  // is not a checkpoint: it would otherwise count as some sequence, and one
  // that looks newest would shadow every real checkpoint and escape the
  // prune, which removes blobs by their canonical names.
  constexpr std::size_t kPrefix = 5;  // "snap-"
  std::uint64_t value = 0;
  if (name.size() <= kPrefix ||
      std::from_chars(name.data() + kPrefix, name.data() + name.size(), value)
              .ec != std::errc() ||
      snapshot_blob_name(value) != name) {
    return false;
  }
  *seq = value;
  return true;
}

void begin_snapshot(ByteWriter& out, std::uint64_t watermark, SimTime taken_at,
                    const core::ChannelSnapshot* channel,
                    std::size_t topic_count) {
  out.clear();
  out.raw(reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic));
  out.u32(0);  // body length, patched by finish_snapshot
  out.u32(0);  // body CRC, likewise
  out.u64(watermark);
  out.i64(taken_at);
  out.u8(channel != nullptr ? 1 : 0);
  if (channel != nullptr) {
    out.u64(channel->next_seq);
    encode_ids(out, channel->seen);
  }
  out.u32(static_cast<std::uint32_t>(topic_count));
}

void finish_snapshot(ByteWriter& out) {
  const std::uint8_t* body = out.bytes().data() + kHeaderBytes;
  const std::size_t length = out.size() - kHeaderBytes;
  out.patch_u32(sizeof(kMagic), static_cast<std::uint32_t>(length));
  out.patch_u32(sizeof(kMagic) + 4, crc32(body, length));
}

bool decode_snapshot(std::vector<std::uint8_t> bytes, ProxySnapshot* out) {
  if (bytes.size() < kHeaderBytes) return false;
  for (std::size_t i = 0; i < sizeof(kMagic); ++i) {
    if (bytes[i] != static_cast<std::uint8_t>(kMagic[i])) return false;
  }
  ByteReader header(bytes.data() + sizeof(kMagic), 8);
  const std::uint32_t length = header.u32();
  const std::uint32_t expected_crc = header.u32();
  if (bytes.size() - kHeaderBytes < length) return false;  // torn
  const std::uint8_t* body = bytes.data() + kHeaderBytes;
  if (crc32(body, length) != expected_crc) return false;

  ByteReader reader(body, length);
  out->watermark = reader.u64();
  out->taken_at = reader.i64();
  out->has_channel = reader.u8() != 0;
  if (out->has_channel) {
    out->channel.next_seq = reader.u64();
    if (!decode_ids(reader, &out->channel.seen)) return false;
  }
  const std::uint32_t topic_count = reader.u32();
  if (reader.failed()) return false;
  for (std::uint32_t i = 0; i < topic_count; ++i) {
    TopicImageRange topic{.name = reader.str()};
    topic.offset = kHeaderBytes + reader.offset();
    TopicImageShape shape;
    if (reader.failed() || !read_topic_image(reader, shape)) return false;
    topic.size = kHeaderBytes + reader.offset() - topic.offset;
    out->topics.push_back(std::move(topic));
  }
  if (!reader.exhausted()) return false;
  out->bytes = std::move(bytes);
  return true;
}

bool load_latest_snapshot(const StorageBackend& backend, ProxySnapshot* out,
                          std::uint64_t* seq, std::uint64_t* damaged) {
  // Newest first by parsed sequence: the six-digit padding stops ordering
  // names from snap-1000000 on.
  std::vector<std::pair<std::uint64_t, std::string>> snapshots;
  for (const std::string& name : backend.list()) {
    std::uint64_t candidate = 0;
    if (parse_snapshot_name(name, &candidate)) {
      snapshots.emplace_back(candidate, name);
    }
  }
  std::sort(snapshots.begin(), snapshots.end(), std::greater<>());
  *damaged = 0;
  for (const auto& [candidate, name] : snapshots) {
    std::vector<std::uint8_t> bytes;
    if (!backend.read(name, &bytes)) continue;
    ProxySnapshot snapshot;
    if (!decode_snapshot(std::move(bytes), &snapshot)) {
      ++*damaged;
      continue;
    }
    *out = std::move(snapshot);
    *seq = candidate;
    return true;
  }
  return false;
}

}  // namespace waif::storage
