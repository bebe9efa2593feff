#include "storage/snapshot.h"

#include <cstdio>
#include <utility>

#include "storage/codec.h"
#include "storage/wal.h"

namespace waif::storage {

namespace {

constexpr char kMagic[8] = {'W', 'A', 'I', 'F', 'S', 'N', 'P', '1'};

void encode_average(ByteWriter& writer, const AverageSnapshot& average) {
  writer.u32(static_cast<std::uint32_t>(average.samples.size()));
  for (double sample : average.samples) writer.f64(sample);
  writer.f64(average.sum);
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

void encode_interval(ByteWriter& writer, const IntervalSnapshot& interval) {
  encode_average(writer, interval.diffs);
  writer.u8(interval.last.has_value() ? 1 : 0);
  if (interval.last.has_value()) writer.f64(*interval.last);
}

bool decode_interval(ByteReader& reader, IntervalSnapshot* interval) {
  if (!decode_average(reader, &interval->diffs)) return false;
  if (reader.u8() != 0) interval->last = reader.f64();
  return !reader.failed();
}

void encode_ids(ByteWriter& writer, const std::vector<std::uint64_t>& ids) {
  writer.u32(static_cast<std::uint32_t>(ids.size()));
  for (std::uint64_t id : ids) writer.u64(id);
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
  encode_average(writer, topic.old_reads);
  encode_interval(writer, topic.read_times);
  encode_average(writer, topic.exp_times);
  encode_interval(writer, topic.arrival_times);
  writer.u64(topic.queue_size_view);
  writer.f64(topic.rate_credit);
  writer.i64(topic.current_day);
  writer.u64(topic.forwarded_today);
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

std::vector<std::uint8_t> encode_snapshot(const ProxySnapshot& snapshot) {
  ByteWriter body;
  body.u64(snapshot.watermark);
  body.i64(snapshot.taken_at);
  body.u8(snapshot.has_channel ? 1 : 0);
  if (snapshot.has_channel) {
    body.u64(snapshot.channel.next_seq);
    encode_ids(body, snapshot.channel.seen);
  }
  body.u32(static_cast<std::uint32_t>(snapshot.topics.size()));
  for (const auto& [name, topic] : snapshot.topics) {
    body.str(name);
    encode_topic(body, topic);
  }

  ByteWriter blob;
  for (char c : kMagic) blob.u8(static_cast<std::uint8_t>(c));
  blob.u32(static_cast<std::uint32_t>(body.size()));
  blob.u32(crc32(body.bytes()));
  std::vector<std::uint8_t> bytes = blob.take();
  const std::vector<std::uint8_t>& payload = body.bytes();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

bool decode_snapshot(const std::vector<std::uint8_t>& bytes,
                     ProxySnapshot* out) {
  constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 8;
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
  // Sorted blob names and fixed-width sequence numbers: walking the list
  // backwards visits snapshots newest-first.
  const std::vector<std::string> names = backend.list();
  *damaged = 0;
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    std::uint64_t candidate = 0;
    if (!parse_snapshot_name(*it, &candidate)) continue;
    std::vector<std::uint8_t> bytes;
    if (!backend.read(*it, &bytes)) continue;
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
