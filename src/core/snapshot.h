// Value-type snapshots of the proxy's per-topic state and of the reliable
// channel's delivery window — what the storage layer checkpoints and what
// recovery restores.
//
// Everything here is plain data (notification copies, ids, doubles): a
// snapshot can be serialized, diffed in tests, and applied to a freshly
// constructed TopicState/ReliableDeviceChannel. Collections are kept in a
// canonical order (queues by rank, id sets sorted) so equal states always
// produce byte-equal serializations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/moving_stats.h"
#include "common/time.h"
#include "pubsub/notification.h"

namespace waif::core {

/// An event sitting in the delay stage, with its release instant.
struct DelayedSnapshot {
  pubsub::Notification event;
  SimTime release_at = 0;
};

/// An armed expiration timer. Kept separately from queue membership because
/// the two diverge: a forwarded event keeps its timer, and an event pushed
/// straight to outgoing never had one.
struct ArmedExpiration {
  std::uint64_t id = 0;
  SimTime expires_at = 0;
};

/// The lists of a topic image, in the canonical order TopicState::write_image
/// visits them and the storage codec lays them out (the moving averages and
/// the scalars follow the last one).
enum class ImageSection : std::uint8_t {
  kOutgoing,   // events, rank order
  kPrefetch,   // events, rank order
  kHolding,    // events, rank order
  kDelayed,    // delay-stage events with release instants, by id
  kHistory,    // events, insertion (FIFO) order
  kForwarded,  // ids, sorted
  kArmed,      // armed expirations, by id
  kSeenReads,  // ids, sorted
  kSeenSyncs,  // ids, sorted
};

/// Full durable state of one TopicState (stats excluded — counters are
/// observability, not behaviour; the day budget, which *is* behaviour, is
/// included).
struct TopicSnapshot {
  std::vector<pubsub::Notification> outgoing;  // rank order
  std::vector<pubsub::Notification> prefetch;  // rank order
  std::vector<pubsub::Notification> holding;   // rank order
  std::vector<DelayedSnapshot> delayed;        // sorted by id
  std::vector<pubsub::Notification> history;   // insertion (FIFO) order
  std::vector<std::uint64_t> forwarded;        // sorted
  std::vector<ArmedExpiration> expiration_armed;  // sorted by id
  std::vector<std::uint64_t> seen_read_ids;    // sorted
  std::vector<std::uint64_t> seen_sync_ids;    // sorted
  AverageSnapshot old_reads;
  IntervalSnapshot read_times;
  AverageSnapshot exp_times;
  IntervalSnapshot arrival_times;
  std::uint64_t queue_size_view = 0;
  double rate_credit = 0.0;
  std::int64_t current_day = 0;
  std::uint64_t forwarded_today = 0;
};

/// Durable state of the proxy side of a ReliableDeviceChannel: the sequence
/// counter (so a recovered proxy never reuses a seq the device has seen) and
/// the device-side dedup window, captured so the in-sim recovery hand-off
/// can rebuild a channel pair wholesale.
struct ChannelSnapshot {
  std::uint64_t next_seq = 1;
  std::vector<std::uint64_t> seen;  // device dedup window, insertion order
};

}  // namespace waif::core
