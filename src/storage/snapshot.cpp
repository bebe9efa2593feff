#include "storage/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <optional>
#include <utility>

#include "storage/codec.h"
#include "storage/wal.h"

namespace waif::storage {

namespace {

constexpr char kMagic[8] = {'W', 'A', 'I', 'F', 'S', 'N', 'P', '1'};
/// The magic plus the [u32 length][u32 crc32] frame header.
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 8;

/// A moving average's samples (any container of doubles, oldest first) and
/// running sum, in one capacity step.
template <typename Samples>
void encode_average(ByteWriter& writer, const Samples& samples, double sum) {
  std::uint8_t* out = writer.extend(4 + 8 * samples.size() + 8);
  ByteWriter::store_le32(out, static_cast<std::uint32_t>(samples.size()));
  out += 4;
  for (double sample : samples) {
    ByteWriter::store_le64(out, std::bit_cast<std::uint64_t>(sample));
    out += 8;
  }
  ByteWriter::store_le64(out, std::bit_cast<std::uint64_t>(sum));
}

bool decode_average(ByteReader& reader, AverageSnapshot* average) {
  const std::uint32_t count = reader.u32();
  if (reader.failed() || count > reader.remaining() / 8) return false;
  average->samples.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    average->samples.push_back(reader.f64());
  }
  average->sum = reader.f64();
  return !reader.failed();
}

template <typename Samples>
void encode_interval(ByteWriter& writer, const Samples& samples, double sum,
                     const std::optional<double>& last) {
  encode_average(writer, samples, sum);
  writer.u8(last.has_value() ? 1 : 0);
  if (last.has_value()) writer.f64(*last);
}

bool decode_interval(ByteReader& reader, IntervalSnapshot* interval) {
  if (!decode_average(reader, &interval->diffs)) return false;
  if (reader.u8() != 0) interval->last = reader.f64();
  return !reader.failed();
}

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

void encode_events(ByteWriter& writer,
                   const std::vector<pubsub::Notification>& events) {
  writer.u32(static_cast<std::uint32_t>(events.size()));
  for (const pubsub::Notification& event : events) {
    encode_notification(writer, event);
  }
}

bool decode_events(ByteReader& reader,
                   std::vector<pubsub::Notification>* events) {
  const std::uint32_t count = reader.u32();
  // The smallest encoded notification is 48 bytes (six fixed words plus two
  // empty strings).
  if (reader.failed() || count > reader.remaining() / 48) return false;
  events->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    events->push_back(decode_notification(reader));
  }
  return !reader.failed();
}

}  // namespace

void encode_topic(ByteWriter& writer, const core::TopicSnapshot& topic) {
  encode_events(writer, topic.outgoing);
  encode_events(writer, topic.prefetch);
  encode_events(writer, topic.holding);
  writer.u32(static_cast<std::uint32_t>(topic.delayed.size()));
  for (const core::DelayedSnapshot& delayed : topic.delayed) {
    encode_notification(writer, delayed.event);
    writer.i64(delayed.release_at);
  }
  encode_events(writer, topic.history);
  encode_ids(writer, topic.forwarded);
  writer.u32(static_cast<std::uint32_t>(topic.expiration_armed.size()));
  for (const core::ArmedExpiration& armed : topic.expiration_armed) {
    writer.u64(armed.id);
    writer.i64(armed.expires_at);
  }
  encode_ids(writer, topic.seen_read_ids);
  encode_ids(writer, topic.seen_sync_ids);
  encode_average(writer, topic.old_reads.samples, topic.old_reads.sum);
  encode_interval(writer, topic.read_times.diffs.samples,
                  topic.read_times.diffs.sum, topic.read_times.last);
  encode_average(writer, topic.exp_times.samples, topic.exp_times.sum);
  encode_interval(writer, topic.arrival_times.diffs.samples,
                  topic.arrival_times.diffs.sum, topic.arrival_times.last);
  writer.u64(topic.queue_size_view);
  writer.f64(topic.rate_credit);
  writer.i64(topic.current_day);
  writer.u64(topic.forwarded_today);
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

void TopicImageEncoder::averages(const MovingAverage& old_reads,
                                 const IntervalAverage& read_times,
                                 const MovingAverage& exp_times,
                                 const IntervalAverage& arrival_times) {
  encode_average(out_, old_reads.samples(), old_reads.sum());
  encode_interval(out_, read_times.diffs().samples(), read_times.diffs().sum(),
                  read_times.last());
  encode_average(out_, exp_times.samples(), exp_times.sum());
  encode_interval(out_, arrival_times.diffs().samples(),
                  arrival_times.diffs().sum(), arrival_times.last());
}

void TopicImageEncoder::scalars(std::uint64_t queue_size_view,
                                double rate_credit, std::int64_t current_day,
                                std::uint64_t forwarded_today) {
  out_.u64(queue_size_view);
  out_.f64(rate_credit);
  out_.i64(current_day);
  out_.u64(forwarded_today);
}

bool decode_topic(ByteReader& reader, core::TopicSnapshot* topic) {
  if (!decode_events(reader, &topic->outgoing)) return false;
  if (!decode_events(reader, &topic->prefetch)) return false;
  if (!decode_events(reader, &topic->holding)) return false;
  const std::uint32_t delayed_count = reader.u32();
  if (reader.failed() || delayed_count > reader.remaining() / 56) return false;
  topic->delayed.reserve(delayed_count);
  for (std::uint32_t i = 0; i < delayed_count; ++i) {
    core::DelayedSnapshot delayed;
    delayed.event = decode_notification(reader);
    delayed.release_at = reader.i64();
    topic->delayed.push_back(std::move(delayed));
  }
  if (!decode_events(reader, &topic->history)) return false;
  if (!decode_ids(reader, &topic->forwarded)) return false;
  const std::uint32_t armed_count = reader.u32();
  if (reader.failed() || armed_count > reader.remaining() / 16) return false;
  topic->expiration_armed.reserve(armed_count);
  for (std::uint32_t i = 0; i < armed_count; ++i) {
    core::ArmedExpiration armed;
    armed.id = reader.u64();
    armed.expires_at = reader.i64();
    topic->expiration_armed.push_back(armed);
  }
  if (!decode_ids(reader, &topic->seen_read_ids)) return false;
  if (!decode_ids(reader, &topic->seen_sync_ids)) return false;
  if (!decode_average(reader, &topic->old_reads)) return false;
  if (!decode_interval(reader, &topic->read_times)) return false;
  if (!decode_average(reader, &topic->exp_times)) return false;
  if (!decode_interval(reader, &topic->arrival_times)) return false;
  topic->queue_size_view = reader.u64();
  topic->rate_credit = reader.f64();
  topic->current_day = reader.i64();
  topic->forwarded_today = reader.u64();
  return !reader.failed();
}

std::string snapshot_blob_name(std::uint64_t seq) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "snap-%06llu",
                static_cast<unsigned long long>(seq));
  return buffer;
}

bool parse_snapshot_name(const std::string& name, std::uint64_t* seq) {
  constexpr const char* kPrefix = "snap-";
  if (name.size() <= 5 || name.compare(0, 5, kPrefix) != 0) return false;
  std::uint64_t value = 0;
  for (std::size_t i = 5; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(name[i] - '0');
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

std::vector<std::uint8_t> encode_snapshot(const ProxySnapshot& snapshot) {
  ByteWriter blob;
  begin_snapshot(blob, snapshot.watermark, snapshot.taken_at,
                 snapshot.has_channel ? &snapshot.channel : nullptr,
                 snapshot.topics.size());
  for (const auto& [name, topic] : snapshot.topics) {
    blob.str(name);
    encode_topic(blob, topic);
  }
  finish_snapshot(blob);
  return blob.take();
}

bool decode_snapshot(const std::vector<std::uint8_t>& bytes,
                     ProxySnapshot* out) {
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
    std::string name = reader.str();
    core::TopicSnapshot topic;
    if (!decode_topic(reader, &topic)) return false;
    out->topics.emplace_back(std::move(name), std::move(topic));
  }
  return reader.exhausted();
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
    if (!decode_snapshot(bytes, &snapshot)) {
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
