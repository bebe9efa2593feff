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
// Shipping reuses the durability layer wholesale: the source's topic image
// travels as a single-topic snapshot blob in the standard encoding
// (storage/snapshot.h) — the source checkpoint's own bytes for the topic,
// never decoded, copied into a value or re-encoded on the way — its WAL
// tail as standard CRC-framed WAL records, and the destination rebuilds the
// topic in place the way crash recovery does — restore the image into a
// fresh TopicState, then replay the tail through the same per-record
// dispatch (storage::replay_wal_record) — and folds it into its own WAL as
// one kAdopt record (ProxyPersistence::adopt). Every step costs the moved
// topic, not the node: a source's lineage is read once (read_node_lineage)
// and each moved topic picked from it. Storage faults during any durable
// step are absorbed by deterministic retry/backoff (sim-time, no wall
// clock); exhausting the attempts before the flip aborts the migration,
// which is always safe.
//
// This header is fleet-agnostic: the elastic fleet (elastic_fleet.h) drives
// the protocol; everything here is the journal, the resume rule and the
// ship/replay toolkit, each unit-testable on bare backends.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "core/forwarding_policy.h"
#include "core/proxy.h"
#include "storage/backend.h"
#include "storage/snapshot.h"
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

/// Journal-derived topic ownership: starts from `initial` (the ring
/// placement before any migration) and applies every kFlipped record in
/// journal order. This — not coordinator memory — is the authority the
/// single-owner invariant checks against and crashed shards recover from.
std::map<std::string, std::uint32_t> derive_owners(
    std::map<std::string, std::uint32_t> initial,
    const std::vector<MigrationRecord>& records);

/// The fixed sim-time costs and storage retry policy of one migration. All
/// latencies are protocol-clock charges (per moved topic, migrations at one
/// boundary run concurrently), so the migration pause is a deterministic
/// metric CI can put an absolute ceiling on.
///
/// One journal append.
inline constexpr SimDuration kMigrationJournalLatency = 20 * kMillisecond;
/// A crashed party's restart, charged to every migration it interrupts.
inline constexpr SimDuration kMigrationRestartDelay = 2 * kSecond;
/// Durable-step retry policy: attempts per step, exponential backoff (base
/// doubles per retry, capped). Exhaustion before the flip aborts the
/// migration; at or past the flip the protocol rolls forward anyway.
inline constexpr std::uint32_t kMigrationMaxAttempts = 6;
inline constexpr SimDuration kMigrationBackoffBase = 100 * kMillisecond;
inline constexpr SimDuration kMigrationBackoffCap = 5 * kSecond;

/// The migration latencies a fleet may stretch (the chaos fleets do, so
/// migrations hold traffic for minutes).
struct MigrationConfig {
  /// One shipped blob (image or tail) written + synced on the destination.
  SimDuration ship_latency = 400 * kMillisecond;
  /// The destination's recovery replay of the shipped lineage.
  SimDuration replay_latency = 150 * kMillisecond;
  /// The destination's fold of the topic into its own WAL (one synced
  /// kAdopt record, required before the flip — see DESIGN.md §11).
  SimDuration fold_latency = 200 * kMillisecond;
};

/// Backoff before retry number `retry` (1-based):
/// min(kMigrationBackoffCap, kMigrationBackoffBase * 2^(retry-1)).
SimDuration migration_backoff(std::uint32_t retry);

/// A whole source backend's durable lineage, read once: the newest valid
/// snapshot (its bytes hold every topic's image) and every WAL record past
/// its watermark, bucketed by topic. Picking a topic from it costs the
/// topic, not the node.
struct NodeLineage {
  /// Watermark 0 and no topics without a snapshot.
  storage::ProxySnapshot snapshot;
  /// Per topic, its records at indices >= the watermark, in log order.
  std::map<std::string, std::vector<storage::WalRecord>> tails;
};

/// Reads `backend`'s lineage. False when it is unusable (snapshot watermark
/// beyond the log — fsck's unrecoverable case).
///
/// The caller reads between simulator events, when the whole log is in the
/// backend and durable: node WALs sync every record under the default
/// PersistenceConfig, and group commit flushes and syncs after every event.
bool read_node_lineage(const storage::StorageBackend& backend,
                       NodeLineage* out);

/// One topic's share of a node lineage: views into it, valid while it
/// lives.
struct TopicLineage {
  /// The snapshot's bytes for the topic; empty when the topic predates
  /// every snapshot.
  std::span<const std::uint8_t> image;
  /// Source WAL records folded into `image` (0 without a snapshot).
  std::uint64_t watermark = 0;
  /// The topic's records at indices >= watermark, in log order. For a
  /// topic that moved onto the source since that snapshot this includes its
  /// kAdopt record, which on replay replaces the (stale or missing) image
  /// and every record before it.
  std::span<const storage::WalRecord> tail;
};

/// `topic`'s share of `node`.
TopicLineage pick_topic_lineage(const NodeLineage& node,
                                const std::string& topic);

/// The shippable image blob: a single-topic snapshot with watermark 0 in the
/// standard snapshot encoding, holding `image` (the empty image when it is
/// empty), so the destination can hand it straight to the recovery
/// machinery.
std::vector<std::uint8_t> encode_topic_image(
    const std::string& topic, std::span<const std::uint8_t> image);

/// The shippable tail blob: standard CRC-framed WAL records.
std::vector<std::uint8_t> encode_wal_tail(
    std::span<const storage::WalRecord> records);

/// Rebuilds the shipped `topic` in `dest` the way recovery rebuilds a
/// topic: adds it under `config`, restores the image (or the newest kAdopt
/// image in the tail) and replays the tail records after it through
/// storage::replay_wal_record. Both payloads are checked first: the image
/// must hold `topic` alone at watermark 0, and the tail must be CRC-clean,
/// hold only `topic`'s records and exactly `expected_tail` of them — a
/// short tail blob would otherwise replay silently truncated. On a failed
/// check it returns false and leaves `dest` untouched (the caller re-ships
/// or aborts).
bool replay_shipped_topic(std::vector<std::uint8_t> image_bytes,
                          const std::vector<std::uint8_t>& tail_bytes,
                          std::uint64_t expected_tail, const std::string& topic,
                          const core::TopicConfig& config, core::Proxy& dest);

}  // namespace waif::experiments
