// The checkpoint blob: a full proxy image, written periodically so recovery
// replays only the WAL tail past the snapshot's watermark.
//
// Layout: an 8-byte magic ("WAIFSNP1"), then one CRC-framed body using the
// same [u32 length][u32 crc32] frame as the WAL. A snapshot is valid only if
// the magic matches, the frame is whole and the CRC passes — a snapshot torn
// by a crash (snapshots go through the same volatile-until-sync backend) is
// rejected wholesale and recovery falls back to the previous one.
//
// Blobs are named "snap-NNNNNN"; the sequence number orders them, newest
// last.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "core/snapshot.h"
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

/// The per-topic image codec of the snapshot body, shared with the WAL's
/// kAdopt record. decode_topic is false on a short or malformed image.
void encode_topic(ByteWriter& writer, const core::TopicSnapshot& topic);
bool decode_topic(ByteReader& reader, core::TopicSnapshot* topic);

/// Decodes a snapshot blob. False on any damage (bad magic, torn frame,
/// CRC mismatch, malformed body) — the caller falls back to an older one.
bool decode_snapshot(const std::vector<std::uint8_t>& bytes,
                     ProxySnapshot* out);

/// Newest valid snapshot in the backend, if any. Damaged snapshots are
/// skipped (and reported via `damaged`, for fsck-style accounting).
bool load_latest_snapshot(const StorageBackend& backend, ProxySnapshot* out,
                          std::uint64_t* seq, std::uint64_t* damaged);

}  // namespace waif::storage
