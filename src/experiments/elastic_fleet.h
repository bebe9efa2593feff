// The elastic shard fleet: live shard add/remove with crash-safe topic
// migration (DESIGN.md §11).
//
// Where ShardedFleet partitions *devices* and fixes the topology for the
// whole run, ElasticFleet partitions *topics* across proxy nodes and lets
// the fleet grow and shrink while the trace flows. Each node owns:
//   * its own sim::Simulator (per-node virtual clock);
//   * one core::Proxy running the paper's per-topic algorithm for the
//     topics the node currently owns;
//   * its own storage::MemBackend + ProxyPersistence (PR 3): every forward
//     is journaled write-ahead and snapshotted periodically, so a node can
//     crash at any boundary and recover from its own durable lineage;
//   * an ElasticFanout applying deliveries to global per-(topic, subscriber)
//     mailboxes whose drain arithmetic depends only on `published_at` —
//     never on which node delivered, or when a held event finally drained.
//
// Resizes run the shard_migration.h protocol per moved topic: quiesce the
// topic on the source (hold its traffic, outage-style), ship its snapshot
// image + WAL tail to the destination backend, replay them through
// ProxyPersistence::recover, fold the topic into the destination's WAL
// (one kAdopt record), then atomically flip ownership (one fsynced journal
// record IS the commit) and drain the held traffic on the new owner. A
// crash at any stage — source node, destination node, or the migration
// journal itself — resumes to either fully-migrated or fully-rolled-back,
// never split ownership.
//
// Execution is segmented: the run advances between boundaries (checkpoint
// instants, resize instants, the horizon); within a segment the nodes run
// in parallel on an experiments::ParallelRunner and never share mutable
// state (each topic's row and mailboxes are written only by its owner);
// at a boundary the coordinator — single-threaded — drains finished
// migrations, applies crashes and resizes, and feeds the InvariantMonitor.
// Results are byte-identical at any --jobs value.
//
// The digest covers delivery-visible state only (per-topic totals and the
// mailbox images), which makes it *topology-invariant*: a run that grew,
// shrank, crashed and rolled back must digest-equal the same trace on a
// fixed fleet — the acceptance bar of bench/scale_elastic and the
// rebalance chaos shape.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "core/health.h"
#include "core/shard_ring.h"
#include "experiments/invariant_monitor.h"
#include "experiments/parallel_runner.h"
#include "experiments/shard_migration.h"
#include "experiments/sharded_fleet.h"
#include "pubsub/notification.h"
#include "storage/fsck.h"
#include "storage/persistence.h"
#include "workload/population.h"
#include "workload/stressors.h"

namespace waif::experiments {

/// One planned topology change: at `at`, migrate toward `shards` nodes.
struct ElasticResize {
  SimTime at = 0;
  std::size_t shards = 1;
};

/// Optional per-node fan-out capacity model — the load signal the
/// autoscaler closes its loop over. All-zero (the default) means infinite
/// capacity: the run is byte-identical to the pre-capacity code.
///
/// The model is *coordinator-paced*: each node has a virtual service clock
/// and a FIFO carry queue of routed-but-not-yet-applied publishes, both
/// owned by the single-threaded routing loop. A publish costs its topic's
/// subscriber count in work units; a node applies work at `fanout_per_sec`
/// units per sim-second, strictly in arrival order (per-topic sequence
/// order is preserved by construction). When the queued work would exceed
/// `backlog_budget`, the worst-ranked queued publish is shed (counted,
/// deterministic); when a node's backlog crosses `admission_high` at a
/// boundary, its gate closes and fresh publishes are rejected at routing
/// until it drains to `admission_low`. Held (migrating) traffic is never
/// gated — it was admitted before the quiesce.
struct NodeCapacity {
  /// Work units (subscriber-deliveries) one node applies per sim-second.
  /// 0 = infinite (disables the whole model).
  double fanout_per_sec = 0.0;
  /// Queued work units per node before rank-aware shedding. 0 = unbounded.
  std::uint64_t backlog_budget = 0;
  /// Per-node admission watermarks, evaluated at segment boundaries.
  /// 0 = gate always open.
  std::uint64_t admission_high = 0;
  std::uint64_t admission_low = 0;
};

struct ElasticFleetConfig {
  /// Workload + fleet knobs; base.shards is the *initial* node count. The
  /// per-device queue of ShardedFleet becomes per-(topic, subscriber) here
  /// (the elastic digest must not depend on how topics co-locate).
  FleetConfig base;
  /// Applied in order at the first boundary >= `at`. A shrink that cannot
  /// move every topic off the doomed nodes (migrations aborted by faults,
  /// or a migration still draining) is abandoned — counted, never partial.
  std::vector<ElasticResize> resizes;
  MigrationConfig migration;
  /// Per-node durability policy. The defaults (sync every record, write-
  /// ahead forwards) make node crashes digest-neutral, which is what lets
  /// the chaos harness demand digest equality under faults.
  storage::PersistenceConfig persistence;
  /// Invariant checkpoints per run (boundaries besides resizes).
  std::size_t checkpoints = 24;
  /// Extra trace events merged (stably, by time) into the drawn trace —
  /// the chaos storm hook. Must lie within [0, base.horizon).
  std::vector<PublishEvent> extra_publishes;
  /// Per-node fan-out capacity (all-zero = infinite, byte-identical).
  NodeCapacity capacity;
  /// Correlated cell outages: member devices' mailbox drains freeze for
  /// the window. Membership and the freeze are pure functions of the
  /// device id and the bucket clock, so the digest stays topology-
  /// invariant (an elastic run and its fixed baseline see identical
  /// outages).
  std::vector<workload::CellOutage> cell_outages;
};

/// Everything the fleet tells a controller at one boundary. Counters are
/// cumulative over the run; `nodes` is per-shard health in shard order.
struct FleetControlInput {
  SimTime at = 0;
  std::size_t shards = 0;
  std::size_t topics = 0;
  std::uint64_t migrations_done = 0;
  std::uint64_t migrations_rolled_back = 0;
  std::uint64_t resizes_applied = 0;
  std::uint64_t resizes_abandoned = 0;
  std::uint64_t holds_in_flight = 0;
  std::vector<core::HealthSnapshot> nodes;
};

/// The closed-loop control hook: invoked by ElasticFleet at every boundary
/// (single-threaded, after scheduled resizes and crashes are applied); the
/// directive executes immediately through the same migration protocol a
/// scheduled resize uses. Implementations must be deterministic functions
/// of the inputs — the fleet's byte-identical-at-any-jobs contract extends
/// over the controller.
class FleetController {
 public:
  virtual ~FleetController() = default;

  struct Directive {
    /// Target topology; 0 = keep the current shard count.
    std::size_t target_shards = 0;
    /// Degradation-ladder knobs, applied fleet-wide: -1 = keep, 0 =
    /// normal, 1 = escalated (shed threshold halved) / tightened
    /// (admission watermarks halved).
    int shed_level = -1;
    int admission_level = -1;
  };

  virtual Directive on_checkpoint(const FleetControlInput& input) = 0;
};

/// Fault plan for one elastic run. All of it is deterministic: crashes fire
/// at protocol points or segment boundaries (node clocks idle), storage
/// windows gate the migration protocol's durable steps via a per-migration
/// RNG. Node WALs keep perfect hardware here — per-node storage chaos is
/// chaos_recovery's subject; these faults target the moving parts.
struct ElasticFaults {
  /// Crash parties of the first migration that durably reaches `stage`
  /// (or the specific `migration_id`). Fires right after the stage record
  /// commits; recovery follows migration_resume_action.
  struct MigrationCrash {
    MigrationStage stage = MigrationStage::kShipped;
    bool source = false;
    bool dest = false;
    /// Crash the control backend holding the migration journal (its synced
    /// records survive; the coordinator re-reads and resumes).
    bool journal = false;
    std::uint64_t migration_id = 0;  // 0 = first to reach `stage`
  };
  std::vector<MigrationCrash> migration_crashes;

  /// While `from <= t < to`, each durable protocol step fails with
  /// probability `magnitude` (the step retries with backoff).
  struct StorageWindow {
    SimTime from = 0;
    SimTime to = 0;
    double magnitude = 0.0;
  };
  std::vector<StorageWindow> storage_windows;

  /// Machine-crash node `node` at the first boundary >= `at`.
  struct NodeCrash {
    SimTime at = 0;
    std::uint32_t node = 0;
  };
  std::vector<NodeCrash> node_crashes;

  /// Machine-crash node `node` at the first boundary where its WAL holds
  /// at least `records` records.
  struct RecordCrash {
    std::uint32_t node = 0;
    std::uint64_t records = 0;
  };
  std::vector<RecordCrash> record_crashes;
};

struct ElasticOutcome {
  std::uint64_t topics_managed = 0;
  /// Trace events handed to owner proxies (held events count when drained);
  /// equals the managed trace length once every hold has drained.
  std::uint64_t publishes_routed = 0;
  /// Events that passed through a migration hold before delivery.
  std::uint64_t held = 0;

  // Delivery-visible totals (summed over the per-topic rows; crash-immune).
  std::uint64_t batches = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t overflow_drops = 0;
  std::uint64_t drained = 0;
  /// Mailbox drain ticks frozen by cell outages. A stall that ends before
  /// the horizon only delays drains the next delivery catches up on, so
  /// this count (folded into the digest when nonzero) is what shows it.
  std::uint64_t frozen_ticks = 0;
  std::uint64_t seq_violations = 0;

  // Durability totals, summed over every node incarnation (crashed and
  // retired nodes included).
  std::uint64_t wal_records = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;  // checkpoint blob bytes made durable

  // Migration protocol accounting.
  std::uint64_t migrations = 0;          // attempts journaled
  std::uint64_t migrations_done = 0;     // reached kDone
  std::uint64_t migrations_rolled_back = 0;
  std::uint64_t migration_retries = 0;   // durable-step retries (backoff)
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_failed_appends = 0;
  std::uint64_t resizes_applied = 0;
  std::uint64_t resizes_abandoned = 0;
  std::uint64_t crashes = 0;             // node incarnations lost
  std::uint64_t wal_repairs = 0;         // damaged tails truncated on recovery
  std::uint64_t checks = 0;              // boundary checkpoints taken

  // Capacity-model accounting (all zero when NodeCapacity is disarmed).
  std::uint64_t fanout_shed_batches = 0;  // publishes shed under backlog
  std::uint64_t fanout_shed_units = 0;    // work units those carried
  std::uint64_t admission_rejected = 0;   // publishes bounced at a closed gate
  std::uint64_t rejected_units = 0;       // work units those carried
  /// Resizes issued by the FleetController (subset of resizes_applied).
  std::uint64_t controller_resizes = 0;

  /// Per-moved-topic pause (quiesce -> traffic flowing again), the
  /// deterministic metric CI puts a ceiling on.
  SimDuration max_pause = 0;
  SimDuration total_pause = 0;

  std::size_t final_shards = 0;
  /// Durable lineage of each surviving node, in shard order — what
  /// migration tests and waif_fsck-style checks assert without reaching
  /// into internals. Never part of the digest.
  std::vector<storage::WalLineage> lineage;

  /// Topology-invariant fingerprint of delivery-visible state.
  std::uint64_t digest = 0;
};

class ElasticFleet {
 public:
  /// Builds the global population (one-shard ring: global subscriber lists
  /// per topic) and the merged publish trace. Node machinery lives only
  /// inside run(). Throws std::invalid_argument (message names the bad
  /// entry and field) on an ill-formed resize schedule or extra trace:
  /// shards < 1, an instant outside [0, horizon), or a schedule whose
  /// instants are not strictly increasing.
  explicit ElasticFleet(const ElasticFleetConfig& config);

  const ElasticFleetConfig& config() const { return config_; }
  const std::vector<PublishEvent>& publishes() const { return publishes_; }

  /// Replays the whole trace through the elastic topology. Byte-identical
  /// outcome at any worker count; `monitor` (optional) receives the
  /// single-owner, seq-monotonicity and routing-conservation checks at
  /// every boundary; `controller` (optional) closes the loop — consulted
  /// at every boundary with per-node health, its directives executed
  /// through the migration protocol.
  ElasticOutcome run(ParallelRunner& runner, const ElasticFaults& faults = {},
                     InvariantMonitor* monitor = nullptr,
                     FleetController* controller = nullptr) const;

 private:
  ElasticFleetConfig config_;
  core::ShardRing global_ring_;  // single shard: global subscriber lists
  workload::Population population_;
  std::vector<PublishEvent> publishes_;
  std::vector<pubsub::NotificationPtr> notifications_;
};

}  // namespace waif::experiments
