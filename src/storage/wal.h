// The write-ahead log of proxy mutations.
//
// Every record is one framed entry appended to a single blob:
//
//     [u32 payload_length][u32 crc32(payload)][payload...]
//
// The payload is the little-endian encoding of a WalRecord. On recovery the
// log is scanned front to back; the scan stops at the first frame that is
// torn (fewer bytes than the header promises) or fails its CRC — everything
// before that point is trusted, everything after is discarded (a repair
// truncates the blob back to the last valid frame boundary). Appends are
// not durable until sync(); the writer tracks how many records sit in the
// unsynced window, which bounds what a crash can lose.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/journal.h"
#include "core/read_protocol.h"
#include "pubsub/notification.h"
#include "storage/backend.h"
#include "storage/codec.h"

namespace waif::storage {

/// Default blob name of the proxy WAL.
inline constexpr const char* kWalBlobName = "wal";

enum class WalRecordType : std::uint8_t {
  kEnqueue = 1,  // a NOTIFICATION (or READ-difference move) placed in a queue
  kForward = 2,  // an event handed to the device channel (write-ahead!)
  kRead = 3,     // an online READ request handled
  kSync = 4,     // a device sync (queue size + offline-read log) handled
  kExpire = 5,   // an event purged as expired
  kRequeue = 6,  // the reliable channel handed an abandoned transfer back
  kAck = 7,      // the device ACKed a forwarded event (reliable channel)
  kShed = 8,     // an event dropped by the overload budget (core/overload.h)
  kAdopt = 9,    // a topic moved in whole: its image replaces the log's
};

/// One WAL entry. A flat union-style struct: `type` says which fields are
/// meaningful (the encoding only stores those).
struct WalRecord {
  WalRecordType type = WalRecordType::kEnqueue;
  // The one-byte fields sit together so a record carries no padding
  // between them (a WAL read holds every decoded record at once).
  core::JournalStage stage = core::JournalStage::kDropped;  // kEnqueue
  bool fresh = false;                                       // kEnqueue
  bool exp_tracked = false;                                 // kEnqueue
  bool replicated = false;                                  // kForward
  bool timer_fired = false;                                 // kExpire
  std::string topic;
  SimTime at = 0;

  // kEnqueue / kForward / kRequeue / kShed
  pubsub::Notification event;

  // kEnqueue
  SimTime release_at = 0;

  // kEnqueue / kForward
  double rate_credit = 0.0;

  // kRead
  std::uint64_t request_id = 0;
  int n = 0;

  // kRead / kSync
  std::uint64_t queue_size = 0;

  // kSync
  std::uint64_t sync_id = 0;
  std::vector<core::ReadRecord> offline_reads;

  // kExpire / kAck
  std::uint64_t id = 0;

  // kAdopt: the topic's whole image, in the snapshot's per-topic encoding
  // (storage/snapshot.h). A decoded record's image has been validated.
  std::vector<std::uint8_t> adopted;
};

/// Shared notification codec (the snapshot blob uses the same encoding).
void encode_notification(ByteWriter& writer, const pubsub::Notification& event);
pubsub::Notification decode_notification(ByteReader& reader);

/// Encodes one record as a complete frame (header + payload).
std::vector<std::uint8_t> encode_wal_record(const WalRecord& record);

/// Appends one record's frame to `out`, reusing `payload_scratch` for the
/// payload encoding. Byte-for-byte identical to encode_wal_record, without
/// the two temporary vectors — the allocation-free framing path.
void encode_wal_record_into(const WalRecord& record, ByteWriter& payload_scratch,
                            ByteWriter& out);

/// Appender for one WAL blob.
///
/// Two commit modes:
///   * per-record (default): every append() hands one framed record to the
///     backend immediately — the original behavior, byte-identical logs.
///   * group commit (set_group_commit(true)): append() stages frames in a
///     reusable buffer; flush() splices the whole batch into the backend
///     with ONE append call, and sync() fsyncs once for the batch. The log
///     bytes are identical either way — only the backend call pattern (and
///     the fsync count) changes.
class WalWriter {
 public:
  /// `initial_count` seeds the record counter when an incarnation continues
  /// an existing log (the count recovered from it).
  WalWriter(StorageBackend& backend, std::string blob,
            std::uint64_t initial_count = 0)
      : backend_(backend), blob_(std::move(blob)), count_(initial_count) {}

  /// Appends one frame (volatile until sync(); with group commit on, not
  /// even in the backend's cache until flush()).
  void append(const WalRecord& record);

  /// Batch staged frames instead of handing each to the backend. Turning
  /// the mode off flushes whatever is staged.
  void set_group_commit(bool on);
  bool group_commit() const { return group_commit_; }

  /// Splices every staged frame into the backend in one append. No-op when
  /// nothing is staged.
  void flush();
  /// Frames staged but not yet handed to the backend.
  std::uint64_t staged_records() const { return staged_; }

  /// Makes every appended frame durable (flushing staged frames first).
  /// False = the fsync failed and the unsynced window is still at risk.
  bool sync();

  /// Records appended over the lifetime of the log (all incarnations).
  std::uint64_t record_count() const { return count_; }
  /// Re-seeds the counter from a recovered log (nothing unsynced yet).
  void reset_count(std::uint64_t count) {
    count_ = count;
    unsynced_ = 0;
    staging_.clear();
    staged_ = 0;
  }
  /// Records appended since the last successful sync (staged ones included).
  std::uint64_t unsynced_records() const { return unsynced_; }

 private:
  StorageBackend& backend_;
  std::string blob_;
  std::uint64_t count_ = 0;
  std::uint64_t unsynced_ = 0;
  bool group_commit_ = false;
  std::uint64_t staged_ = 0;
  // Reusable scratch: payload encoding, the single-record frame (per-record
  // mode) and the staged batch (group-commit mode). clear() keeps capacity,
  // so steady-state framing never touches the heap.
  ByteWriter payload_scratch_;
  ByteWriter frame_scratch_;
  ByteWriter staging_;
};

/// What a front-to-back scan of a WAL blob found.
struct WalScan {
  /// Valid frames, each CRC-checked and decoded.
  std::uint64_t record_count = 0;
  /// Bytes covered by valid frames — the repair truncation point.
  std::size_t valid_bytes = 0;
  /// Total blob size (valid_bytes < total_bytes means a damaged tail).
  std::size_t total_bytes = 0;
  /// Frames rejected by their CRC or as malformed (bit flips; 0 or 1 — the
  /// scan stops).
  std::uint64_t crc_failures = 0;
  /// True when the blob ends in a partial frame (torn final write).
  bool torn_tail = false;

  bool clean() const { return valid_bytes == total_bytes; }
};

/// Scans WAL bytes up to the first damage, decoding every frame in place
/// and handing each record to `visit` (which may move from it) in log
/// order. An empty `visit` only counts.
WalScan scan_wal_bytes(const std::vector<std::uint8_t>& bytes,
                       const std::function<void(WalRecord&)>& visit = {});

/// scan_wal_bytes over the WAL blob. A missing blob is an empty, clean scan.
WalScan scan_wal(const StorageBackend& backend,
                 const std::string& blob = kWalBlobName,
                 const std::function<void(WalRecord&)>& visit = {});

struct WalReadResult : WalScan {
  std::vector<WalRecord> records;
};

/// scan_wal collecting every record up to the first damage.
WalReadResult read_wal(const StorageBackend& backend,
                       const std::string& blob = kWalBlobName);

}  // namespace waif::storage
