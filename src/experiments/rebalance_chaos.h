// The rebalance chaos bridge: runs a composed ChaosSchedule that contains
// at least one `rebalance` fault against the elastic shard fleet
// (experiments/elastic_fleet.h) instead of the two-replica last-hop
// harness, and holds it to the elasticity acceptance bar — the faulted,
// resized run must digest-equal the same trace on a fixed fleet with no
// faults at all, and the invariant monitor (single owner per topic at
// every checkpoint, seq monotonicity through ownership flips, routing
// conservation of held traffic) must stay silent.
//
// Fault mapping (everything else about the schedule — seed, horizon —
// carries over):
//   rebalance        grow to `param` shards at `at`, shrink back to the
//                    base fleet size after `duration`; `magnitude` becomes
//                    a storage-fault window over the migration protocol's
//                    durable steps for the window, so flips retry and
//                    occasionally roll back
//   storage-fault    storage window over the migration protocol
//   crash-active     machine-crash of node `seed % shards` at `at`
//   crash-at-record  machine-crash of node `seed % shards` once its WAL
//                    holds `param` records
//   storm            `param` extra publishes from `at`, one per second,
//                    round-robin across topics — merged into BOTH the
//                    elastic run and the fixed-topology baseline so the
//                    digest comparison stays apples-to-apples
//   link-fault, outage, device-stall
//                    skipped (counted): the elastic fanout has no faulty
//                    last hop; those injectors belong to run_chaos proper
//
// run_chaos (chaos_orchestrator.h) dispatches here automatically when a
// schedule contains a rebalance fault, so `.chaos` replay files, the
// fuzzer and the shrinker all cover elasticity for free.
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/chaos_schedule.h"
#include "experiments/elastic_fleet.h"
#include "experiments/invariant_monitor.h"

namespace waif::experiments {

struct RebalanceChaosOutcome {
  /// The faulted, resized run.
  ElasticOutcome elastic;
  /// The same trace on the fixed base fleet, fault-free — the digest the
  /// elastic run must reproduce exactly.
  std::uint64_t baseline_digest = 0;
  std::uint64_t faults_applied = 0;
  std::uint64_t faults_skipped = 0;
  /// Monitor violations plus a synthetic "rebalance-digest" violation when
  /// the digests disagree.
  std::vector<ChaosViolation> violations;

  bool ok() const { return violations.empty(); }
};

/// The base elastic fleet every rebalance schedule runs against (small
/// enough that a 36-seed sweep stays interactive; seed and horizon come
/// from the schedule).
ElasticFleetConfig rebalance_fleet_config(const ChaosSchedule& schedule);

/// Runs `schedule` against the elastic fleet. Deterministic: equal
/// schedules produce equal outcomes byte for byte. Never throws on
/// invariant violations (they are data, for the shrinker).
RebalanceChaosOutcome run_rebalance_chaos(const ChaosSchedule& schedule);

// Shared with autoscale chaos (autoscale_chaos.h).

/// Extra publishes for one storm fault: `param` events from `at`, one per
/// second, round-robin across the topics, ranks drawn from the fault's own
/// seed. Sequence numbers are left zero — the ElasticFleet constructor
/// re-sequences the merged trace.
void add_storm(const ChaosFault& fault, const ElasticFleetConfig& config,
               std::vector<PublishEvent>* out);

/// Orders `resizes` by instant. Shrunk schedules can land two resizes on
/// the same instant and the fleet demands strictly increasing instants, so
/// the last one drawn for an instant wins, as applying them in order would.
void sort_resizes(std::vector<ElasticResize>* resizes);

}  // namespace waif::experiments
