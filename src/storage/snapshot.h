// The checkpoint blob: a full proxy image, written periodically so recovery
// replays only the WAL tail past the snapshot's watermark.
//
// Layout: an 8-byte magic ("WAIFSNP1"), then one CRC-framed body using the
// same [u32 length][u32 crc32] frame as the WAL. A snapshot is valid only if
// the magic matches, the frame is whole and the CRC passes — a snapshot torn
// by a crash (snapshots go through the same volatile-until-sync backend) is
// rejected wholesale and recovery falls back to the previous one.
//
// Blobs are named "snap-NNNNNN", the sequence number padded to six digits.
// Past 999,999 the names outgrow the padding, so name order is not sequence
// order: readers order blobs by the parsed sequence, newest highest.
//
// Periodic checkpoints are written straight from live topic state
// (TopicState::write_image into a TopicImageEncoder) into one buffer the
// writer keeps; encode_snapshot frames a value-type ProxySnapshot the same
// way. Both give the same bytes for the same state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/moving_stats.h"
#include "common/time.h"
#include "core/snapshot.h"
#include "pubsub/notification.h"
#include "storage/backend.h"
#include "storage/codec.h"

namespace waif::storage {

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
  /// Per-topic durable state, sorted by topic name.
  std::vector<std::pair<std::string, core::TopicSnapshot>> topics;
};

/// "snap-000042" for seq 42.
std::string snapshot_blob_name(std::uint64_t seq);

/// Parses a snapshot blob name; false when `name` is not one.
bool parse_snapshot_name(const std::string& name, std::uint64_t* seq);

std::vector<std::uint8_t> encode_snapshot(const ProxySnapshot& snapshot);

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

/// The per-topic image codec of the snapshot body, shared with the WAL's
/// kAdopt record. decode_topic is false on a short or malformed image.
void encode_topic(ByteWriter& writer, const core::TopicSnapshot& topic);
bool decode_topic(ByteReader& reader, core::TopicSnapshot* topic);

/// A TopicState::write_image sink that encodes a live topic straight into a
/// ByteWriter: the bytes encode_topic writes for that topic's snapshot(),
/// with no TopicSnapshot in between. The walk's sorts borrow its scratch id
/// vector, so an encoder kept across checkpoints stops allocating once warm.
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
  void averages(const MovingAverage& old_reads,
                const IntervalAverage& read_times,
                const MovingAverage& exp_times,
                const IntervalAverage& arrival_times);
  void scalars(std::uint64_t queue_size_view, double rate_credit,
               std::int64_t current_day, std::uint64_t forwarded_today);

 private:
  ByteWriter& out_;
  std::vector<std::uint64_t> scratch_;
};

/// Decodes a snapshot blob. False on any damage (bad magic, torn frame,
/// CRC mismatch, malformed body) — the caller falls back to an older one.
bool decode_snapshot(const std::vector<std::uint8_t>& bytes,
                     ProxySnapshot* out);

/// Newest valid snapshot in the backend — the highest sequence that
/// decodes — if any. Damaged snapshots are skipped (and reported via
/// `damaged`, for fsck-style accounting).
bool load_latest_snapshot(const StorageBackend& backend, ProxySnapshot* out,
                          std::uint64_t* seq, std::uint64_t* damaged);

}  // namespace waif::storage
