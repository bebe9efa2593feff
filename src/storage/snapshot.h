// The checkpoint blob, and the byte codec of the topic image inside it.
//
// A checkpoint is a full proxy image, written periodically so recovery
// replays only the WAL tail past the snapshot's watermark.
//
// Layout: an 8-byte magic ("WAIFSNP1"), then one CRC-framed body using the
// same [u32 length][u32 crc32] frame as the WAL. A snapshot is valid only if
// the magic matches, the frame is whole, the CRC passes and every topic
// image in it decodes — a snapshot torn by a crash (snapshots go through the
// same volatile-until-sync backend) is rejected wholesale and recovery falls
// back to the previous one.
//
// Blobs are named "snap-NNNNNN", the sequence number padded to six digits.
// Past 999,999 the names outgrow the padding, so name order is not sequence
// order: readers order blobs by the parsed sequence, newest highest. Only
// the names snapshot_blob_name writes parse.
//
// Every topic image in flight is bytes in this per-topic layout: a
// checkpoint's ranges, a kAdopt record's payload, a migration's shipment and
// recovery's result. TopicState::write_image into a TopicImageEncoder writes
// one; read_topic_image feeds one to any sink of core/snapshot.h's protocol.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "core/snapshot.h"
#include "pubsub/notification.h"
#include "storage/backend.h"
#include "storage/codec.h"
#include "storage/wal.h"

namespace waif::core {
class TopicState;
}

namespace waif::storage {

/// One topic's image inside a snapshot: its name and the range of the
/// snapshot's bytes it occupies.
struct TopicImageRange {
  std::string name;
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// One durable proxy image.
struct ProxySnapshot {
  /// WAL records covered by this image: recovery replays records
  /// [watermark, end) on top of it.
  std::uint64_t watermark = 0;
  /// Simulation instant the image was taken.
  SimTime taken_at = 0;
  /// Reliable-channel transport state, when a channel is attached.
  bool has_channel = false;
  core::ChannelSnapshot channel;
  /// The bytes the topic images lie in: the whole blob, for a decoded one.
  std::vector<std::uint8_t> bytes;
  /// Per-topic images, sorted by topic name.
  std::vector<TopicImageRange> topics;

  std::span<const std::uint8_t> image(const TopicImageRange& topic) const {
    return {bytes.data() + topic.offset, topic.size};
  }
  /// `name`'s image; empty when the snapshot holds none.
  std::span<const std::uint8_t> image(std::string_view name) const;
};

/// "snap-000042" for seq 42.
std::string snapshot_blob_name(std::uint64_t seq);

/// Parses a snapshot blob name; false unless `name` is exactly
/// snapshot_blob_name of the sequence it spells.
bool parse_snapshot_name(const std::string& name, std::uint64_t* seq);

/// Starts a snapshot blob in `out`, which is cleared first (its capacity
/// stays): the magic, a placeholder frame header, then the body's watermark,
/// instant, channel (nullptr = none) and topic count. The caller appends
/// each topic — str(name), then its image — and calls finish_snapshot.
void begin_snapshot(ByteWriter& out, std::uint64_t watermark, SimTime taken_at,
                    const core::ChannelSnapshot* channel,
                    std::size_t topic_count);
/// Patches the frame header of a blob begun by begin_snapshot with the
/// length and CRC of the body now behind it.
void finish_snapshot(ByteWriter& out);

/// The encoding sink: writes the topic image it is fed into a ByteWriter.
/// The walk's sorts borrow its scratch id vector, so an encoder kept across
/// checkpoints stops allocating once warm.
class TopicImageEncoder {
 public:
  explicit TopicImageEncoder(ByteWriter& out) : out_(out) {}

  std::vector<std::uint64_t>& scratch_ids() { return scratch_; }
  void begin(core::ImageSection, std::size_t count) {
    out_.u32(static_cast<std::uint32_t>(count));
  }
  void event(const pubsub::Notification& event);
  void delayed(const pubsub::Notification& event, SimTime release_at);
  void armed(std::uint64_t id, SimTime expires_at) {
    out_.u64(id);
    out_.i64(expires_at);
  }
  void ids(core::ImageSection, const std::vector<std::uint64_t>& sorted);
  /// The samples and the sum in one capacity step, then for an interval
  /// average a presence byte and the last timestamp.
  template <typename Samples>
  void average(core::ImageSection section, const Samples& samples, double sum,
               std::optional<double> last) {
    std::uint8_t* at = out_.extend(4 + 8 * samples.size() + 8);
    ByteWriter::store_le32(at, static_cast<std::uint32_t>(samples.size()));
    at += 4;
    for (double sample : samples) {
      ByteWriter::store_le64(at, std::bit_cast<std::uint64_t>(sample));
      at += 8;
    }
    ByteWriter::store_le64(at, std::bit_cast<std::uint64_t>(sum));
    if (core::has_last(section)) {
      out_.u8(last.has_value() ? 1 : 0);
      if (last.has_value()) out_.f64(*last);
    }
  }
  void scalars(std::uint64_t queue_size_view, double rate_credit,
               std::int64_t current_day, std::uint64_t forwarded_today);

 private:
  ByteWriter& out_;
  std::vector<std::uint64_t> scratch_;
};

/// The counting sink: each section's length (an average's: its sample
/// count) and two of the scalars. Reading an image into it validates and
/// measures the image before any TopicState sees it.
struct TopicImageShape {
  core::ImageSection section = core::ImageSection::kOutgoing;
  std::array<std::size_t, core::kImageSections> counts{};
  std::uint64_t queue_size_view = 0;
  double rate_credit = 0.0;

  std::size_t count(core::ImageSection of) const {
    return counts[static_cast<std::size_t>(of)];
  }
  void begin(core::ImageSection at, std::size_t n) {
    section = at;
    counts[static_cast<std::size_t>(at)] = n;
  }
  void event(const pubsub::Notification&) {}
  void delayed(const pubsub::Notification&, SimTime) {}
  void armed(std::uint64_t, SimTime) {}
  void ids(core::ImageSection at, const std::vector<std::uint64_t>& sorted) {
    begin(at, sorted.size());
  }
  template <typename Samples>
  void average(core::ImageSection at, const Samples& samples, double,
               std::optional<double>) {
    begin(at, samples.size());
  }
  void scalars(std::uint64_t queue_size, double credit, std::int64_t,
               std::uint64_t) {
    queue_size_view = queue_size;
    rate_credit = credit;
  }
};

/// Feeds `sink` the topic image at the reader's position, in ImageSection
/// order, and leaves the reader just past it. False on a short or malformed
/// image, which the sink may then have seen part of: read an image into a
/// TopicImageShape first and into anything else only once that accepted it.
template <typename Sink>
bool read_topic_image(ByteReader& in, Sink& sink) {
  using core::ImageSection;
  // Reads a list's count, refused before any sink hears of it when that
  // many of its smallest item would overrun the bytes left. A notification
  // takes at least 48: six fixed words and two empty strings.
  std::uint32_t n = 0;
  const auto count = [&in, &n](std::size_t item_bytes) {
    n = in.u32();
    return !in.failed() && n <= in.remaining() / item_bytes;
  };
  const auto events = [&](ImageSection section) {
    if (!count(48)) return false;
    sink.begin(section, n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const pubsub::Notification event = decode_notification(in);
      if (in.failed()) return false;
      sink.event(event);
    }
    return true;
  };
  std::vector<std::uint64_t> id_list;
  const auto ids = [&](ImageSection section) {
    if (!count(8)) return false;
    id_list.resize(n);
    for (std::uint64_t& id : id_list) id = in.u64();
    sink.ids(section, id_list);
    return true;
  };
  std::vector<double> samples;
  const auto average = [&](ImageSection section) {
    if (!count(8)) return false;
    samples.resize(n);
    for (double& sample : samples) sample = in.f64();
    const double sum = in.f64();
    std::optional<double> last;
    if (core::has_last(section) && in.u8() != 0) last = in.f64();
    if (in.failed()) return false;
    sink.average(section, samples, sum, last);
    return true;
  };

  if (!events(ImageSection::kOutgoing) || !events(ImageSection::kPrefetch) ||
      !events(ImageSection::kHolding) || !count(48 + 8)) {
    return false;
  }
  sink.begin(ImageSection::kDelayed, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const pubsub::Notification event = decode_notification(in);
    const SimTime release_at = in.i64();
    if (in.failed()) return false;
    sink.delayed(event, release_at);
  }
  if (!events(ImageSection::kHistory) || !ids(ImageSection::kForwarded) ||
      !count(16)) {
    return false;
  }
  sink.begin(ImageSection::kArmed, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t id = in.u64();
    sink.armed(id, in.i64());
  }
  if (!ids(ImageSection::kSeenReads) || !ids(ImageSection::kSeenSyncs) ||
      !average(ImageSection::kOldReads) || !average(ImageSection::kReadTimes) ||
      !average(ImageSection::kExpTimes) ||
      !average(ImageSection::kArrivalTimes)) {
    return false;
  }
  const std::uint64_t queue_size_view = in.u64();
  const double rate_credit = in.f64();
  const std::int64_t current_day = in.i64();
  const std::uint64_t forwarded_today = in.u64();
  if (in.failed()) return false;
  sink.scalars(queue_size_view, rate_credit, current_day, forwarded_today);
  return true;
}

/// read_topic_image over exactly `image`: false unless the image decodes
/// and ends where the bytes do.
template <typename Sink>
bool read_topic_image(std::span<const std::uint8_t> image, Sink& sink) {
  ByteReader in(image.data(), image.size());
  return read_topic_image(in, sink) && in.exhausted();
}

/// The image of a topic that holds nothing — every list empty, every
/// average without samples, every scalar zero: what a freshly constructed
/// TopicState writes.
void encode_empty_topic_image(ByteWriter& out);

/// `topic`'s image, freshly encoded.
std::vector<std::uint8_t> topic_image(const core::TopicState& topic);

/// Restores a freshly constructed `topic` from `image`: a TopicImageShape
/// pass first, then the topic's Restorer. False, with `topic` untouched,
/// when the image does not decode.
bool restore_topic_image(std::span<const std::uint8_t> image,
                         core::TopicState& topic);

/// Decodes a snapshot blob, keeping its bytes: every topic image is
/// validated and becomes a range of `out->bytes`. False on any damage (bad
/// magic, torn frame, CRC mismatch, malformed body or image) — the caller
/// falls back to an older one.
bool decode_snapshot(std::vector<std::uint8_t> bytes, ProxySnapshot* out);

/// Newest valid snapshot in the backend — the highest sequence that
/// decodes — if any. Damaged snapshots are skipped (and reported via
/// `damaged`, for fsck-style accounting).
bool load_latest_snapshot(const StorageBackend& backend, ProxySnapshot* out,
                          std::uint64_t* seq, std::uint64_t* damaged);

}  // namespace waif::storage
