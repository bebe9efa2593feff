// Crash-safe topic migration between fleet shards (DESIGN.md §11).
//
// A migration moves one topic's durable state from a source shard to a
// destination shard while the trace keeps flowing:
//
//   planned -> quiesced -> shipped -> replayed -> flipped -> drained -> done
//                   \______________________________/
//                     crash before the flip: roll BACK (abort record, the
//                     source keeps the topic, held traffic drains there)
//                                                   \_____________________
//                                                     crash at or past the
//                                                     flip: roll FORWARD
//
// Each stage transition is one record appended (and fsynced) to a dedicated
// migration journal; the record IS the commit point of its stage, and the
// `flipped` record is THE commit point of the whole migration. A crash at
// any instant therefore recovers to exactly one owner per topic — the
// journal-derived one — never split ownership (derive_owners below is the
// single source of truth both the resumed coordinator and the crash-point
// tests use).
//
// Shipping reuses the durability layer wholesale: the source's topic state
// travels as a single-topic ProxySnapshot in the standard snapshot encoding
// (storage/snapshot.h), its WAL tail as standard CRC-framed WAL records, and
// the destination rebuilds the topic in place the way crash recovery does —
// restore the image into a fresh TopicState, then replay the tail through
// the same per-record dispatch (storage::replay_wal_record) — and folds it
// into its own WAL as one kAdopt record (ProxyPersistence::adopt). Every
// step costs the moved topic, not the node: a source's lineage is decoded
// once (read_node_lineage) and each moved topic picked from it. Storage
// faults during any durable step are absorbed by deterministic
// retry/backoff (sim-time, no wall clock); exhausting the attempts before
// the flip aborts the migration, which is always safe.
//
// This header is fleet-agnostic: the elastic fleet (elastic_fleet.h) drives
// the protocol; everything here is the journal, the resume rule and the
// ship/replay toolkit, each unit-testable on bare backends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "core/forwarding_policy.h"
#include "core/proxy.h"
#include "core/snapshot.h"
#include "storage/backend.h"
#include "storage/wal.h"

namespace waif::experiments {

/// The migration state machine. Order matters: every stage before kFlipped
/// rolls back, kFlipped and after roll forward.
enum class MigrationStage : std::uint8_t {
  kPlanned = 0,   // the move is journaled; nothing happened yet
  kQuiesced = 1,  // the source holds the topic's traffic (outage-style)
  kShipped = 2,   // image + WAL tail durable on the destination backend
  kReplayed = 3,  // destination rebuilt the topic and folded it into its WAL
  kFlipped = 4,   // THE commit: ownership changed hands
  kDrained = 5,   // held traffic applied on the destination
  kDone = 6,      // shipped blobs cleaned up; terminal
  kAborted = 7,   // rolled back; terminal (the source still owns the topic)
};

/// Stable lower-case token ("planned", "flipped", ...), for logs and tests.
std::string_view migration_stage_name(MigrationStage stage);

/// One journaled stage transition.
struct MigrationRecord {
  /// Identifies the migration attempt; allocated by the journal, unique per
  /// journal lifetime (re-derived on resume from the existing records).
  std::uint64_t id = 0;
  MigrationStage stage = MigrationStage::kPlanned;
  std::string topic;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  /// kShipped only: source WAL records folded into the shipped image, and
  /// the number of tail records shipped alongside it.
  std::uint64_t watermark = 0;
  std::uint64_t tail_records = 0;
  /// Protocol time of the transition.
  SimTime at = 0;
};

/// Default blob name of the migration journal (control backend).
inline constexpr const char* kMigrationJournalBlob = "migration-journal";

/// Names of the shipped blobs on the destination backend, e.g.
/// "mig-000007-image" / "mig-000007-tail". Cleaned up at kDone/kAborted;
/// waif_fsck counts any survivor as an unknown blob, which is the point —
/// a leaked shipment is visible.
std::string migration_image_blob(std::uint64_t id);
std::string migration_tail_blob(std::uint64_t id);

/// Append-only CRC-framed journal of migration records. Every append is
/// synced before it reports success — the caller must not advance the
/// protocol on a false return (the stage did not commit).
class MigrationJournal {
 public:
  explicit MigrationJournal(storage::StorageBackend& backend,
                            std::string blob = kMigrationJournalBlob);

  /// Appends one record and syncs the blob. False = the fsync failed (or a
  /// fault model tore the write); the record must be treated as not written.
  bool append(const MigrationRecord& record);

  /// A fresh id for a new migration attempt.
  std::uint64_t allocate_id() { return next_id_++; }

  std::uint64_t appends() const { return appends_; }
  std::uint64_t failed_appends() const { return failed_appends_; }

  struct ReadResult {
    std::vector<MigrationRecord> records;
    std::size_t valid_bytes = 0;
    std::size_t total_bytes = 0;
    std::uint64_t crc_failures = 0;
    bool torn_tail = false;
    bool clean() const {
      return valid_bytes == total_bytes && crc_failures == 0 && !torn_tail;
    }
  };

  /// Scans the journal front to back, stopping at the first torn or
  /// CRC-damaged frame (same discipline as the WAL: everything before the
  /// damage is trusted, everything after never committed). A missing blob
  /// is an empty, clean journal.
  static ReadResult read(const storage::StorageBackend& backend,
                         const std::string& blob = kMigrationJournalBlob);

  /// Repairs a damaged tail in place (truncate to the last valid frame) and
  /// re-seeds the id allocator — the resume entry point after a coordinator
  /// crash.
  void resume(const ReadResult& journal);

 private:
  storage::StorageBackend& backend_;
  std::string blob_;
  std::uint64_t next_id_ = 1;
  std::uint64_t appends_ = 0;
  std::uint64_t failed_appends_ = 0;
};

/// What a resumed coordinator must do with a migration whose last durable
/// record is `stage`: nothing (terminal), roll back (abort; source keeps the
/// topic) or roll forward (the flip committed; finish drain + cleanup).
enum class MigrationResume : std::uint8_t {
  kNone = 0,
  kRollBack = 1,
  kRollForward = 2,
};
MigrationResume migration_resume_action(MigrationStage stage);

/// The newest record of each migration id, in journal order.
std::map<std::uint64_t, MigrationRecord> latest_migration_records(
    const std::vector<MigrationRecord>& records);

/// Journal-derived topic ownership: starts from `initial` (the ring
/// placement before any migration) and applies every kFlipped record in
/// journal order. This — not coordinator memory — is the authority the
/// single-owner invariant checks against and crashed shards recover from.
std::map<std::string, std::uint32_t> derive_owners(
    std::map<std::string, std::uint32_t> initial,
    const std::vector<MigrationRecord>& records);

/// Deterministic sim-time costs and the storage retry policy of one
/// migration. All latencies are protocol-clock charges (per moved topic,
/// migrations at one boundary run concurrently), so the migration pause is
/// a deterministic metric CI can put an absolute ceiling on.
struct MigrationConfig {
  /// One journal append.
  SimDuration journal_latency = 20 * kMillisecond;
  /// One shipped blob (image or tail) written + synced on the destination.
  SimDuration ship_latency = 400 * kMillisecond;
  /// The destination's recovery replay of the shipped lineage.
  SimDuration replay_latency = 150 * kMillisecond;
  /// The destination's fold of the topic into its own WAL (one synced
  /// kAdopt record, required before the flip — see DESIGN.md §11).
  SimDuration checkpoint_latency = 200 * kMillisecond;
  /// A crashed party's restart, charged to every migration it interrupts.
  SimDuration restart_delay = 2 * kSecond;

  /// Durable-step retry policy: attempts per step, exponential backoff
  /// (base doubles per retry, capped). Exhaustion before the flip aborts
  /// the migration; at or past the flip the protocol rolls forward anyway.
  std::uint32_t max_attempts = 6;
  SimDuration backoff_base = 100 * kMillisecond;
  SimDuration backoff_cap = 5 * kSecond;
};

/// Backoff before retry number `retry` (1-based): min(cap, base * 2^(retry-1)).
SimDuration migration_backoff(const MigrationConfig& config,
                              std::uint32_t retry);

/// One topic's durable lineage extracted from a source backend: the newest
/// valid snapshot's image of the topic (empty when the topic predates every
/// snapshot) plus the topic's WAL records past the snapshot watermark.
struct TopicLineage {
  core::TopicSnapshot image;
  bool has_image = false;
  /// Source WAL records folded into `image` (0 without a snapshot).
  std::uint64_t watermark = 0;
  /// The topic's records at indices >= watermark, in log order. For a
  /// topic that moved onto the source since that snapshot this includes its
  /// kAdopt record, which on replay replaces the (stale or missing) image
  /// and every record before it.
  std::vector<storage::WalRecord> tail;
};

/// A whole source backend's durable lineage, decoded once: the newest valid
/// snapshot's per-topic images and every WAL record past its watermark,
/// bucketed by topic. Picking a topic from it costs the topic, not the node.
struct NodeLineage {
  /// Source WAL records folded into `images` (0 without a snapshot).
  std::uint64_t watermark = 0;
  std::map<std::string, core::TopicSnapshot> images;
  /// Per topic, its records at indices >= watermark, in log order.
  std::map<std::string, std::vector<storage::WalRecord>> tails;
};

/// Decodes `backend`'s lineage. False when it is unusable (snapshot
/// watermark beyond the log — fsck's unrecoverable case).
///
/// The caller reads between simulator events, when the whole log is in the
/// backend and durable: node WALs sync every record under the default
/// PersistenceConfig, and group commit flushes and syncs after every event.
bool read_node_lineage(const storage::StorageBackend& backend,
                       NodeLineage* out);

/// `topic`'s share of a node lineage.
TopicLineage pick_topic_lineage(const NodeLineage& node,
                                const std::string& topic);

/// Extracts `topic`'s lineage from `backend`: read_node_lineage, then
/// pick_topic_lineage.
bool extract_topic_lineage(const storage::StorageBackend& backend,
                           const std::string& topic, TopicLineage* out);

/// The shippable image blob: a single-topic ProxySnapshot with watermark 0
/// in the standard snapshot encoding, so the destination can hand it
/// straight to the recovery machinery.
std::vector<std::uint8_t> encode_topic_image(const std::string& topic,
                                             const core::TopicSnapshot& image);

/// The shippable tail blob: standard CRC-framed WAL records.
std::vector<std::uint8_t> encode_wal_tail(
    const std::vector<storage::WalRecord>& records);

/// Rebuilds the shipped `topic` in `dest` the way recovery rebuilds a
/// topic: adds it under `config`, restores the image (or the newest kAdopt
/// image in the tail) and replays the tail records after it through
/// storage::replay_wal_record. Both payloads are checked first: the image
/// must hold `topic` alone at watermark 0, and the tail must be CRC-clean,
/// hold only `topic`'s records and exactly `expected_tail` of them — a
/// short tail blob would otherwise replay silently truncated. On a failed
/// check it returns false and leaves `dest` untouched (the caller re-ships
/// or aborts).
bool replay_shipped_topic(const std::vector<std::uint8_t>& image_bytes,
                          const std::vector<std::uint8_t>& tail_bytes,
                          std::uint64_t expected_tail, const std::string& topic,
                          const core::TopicConfig& config, core::Proxy& dest);

}  // namespace waif::experiments
