// The elastic chaos harness: runs a composed ChaosSchedule that holds a
// `rebalance` or an `autoscale` fault against the elastic shard fleet
// (experiments/elastic_fleet.h) instead of the two-replica last hop, and
// holds the run to the elasticity acceptance bar:
//   * every fleet invariant the monitor owns stays silent — single owner
//     per topic at every checkpoint, seq monotonicity through ownership
//     flips, routing conservation of held traffic;
//   * the same trace on the fixed base fleet, with no faults, digest-equals
//     the faulted run whenever neither run shed or rejected anything (the
//     capacity model paces but never reorders, so only shedding moves the
//     digest; a fleet without the capacity model never sheds, so its runs
//     are always compared).
//
// The schedule picks the fleet. With an `autoscale` fault it is the
// capacity-armed autoscale fleet with an AutoscalerController closing the
// loop, whose journal must round-trip and whose resizes the monitor holds
// to the no-thrash bounds; without one it is the 4-shard rebalance fleet
// and no controller runs.
//
// Fault mapping, the same in every run (seed and horizon carry over):
//   rebalance        grow to `param` shards at `at`, shrink back to the
//                    base size after `duration`; `magnitude` > 0 adds a
//                    storage window over the migration protocol's durable
//                    steps for the window, so flips retry and occasionally
//                    roll back
//   storage-fault    storage window over the migration protocol
//   crash-active     machine-crash of node `seed % shards` at `at`
//   crash-at-record  machine-crash of node `seed % shards` once its WAL
//                    holds `param` records
//   storm            `param` extra publishes from `at`, one per second,
//                    round-robin across topics
//   device-stall     correlated cell outage: fraction `magnitude` of the
//                    devices (hashed by `seed`) freezes its drains for the
//                    window, raising the breaker-open health signal
//   autoscale        flash crowd on topic `seed % topics`: `param` extra
//                    publishes packed into [at, at + duration); `magnitude`
//                    > 0 adds a storage window for the same span, so the
//                    controller's resizes fail mid-storm and the
//                    degradation ladder engages
//   link-fault, outage
//                    skipped (counted): the elastic fanout has no faulty
//                    last hop
// Extra publishes and cell outages are part of the trace: the fixed
// baseline sees them too.
//
// run_chaos (chaos_orchestrator.h) dispatches here whenever a schedule
// holds a rebalance or autoscale fault, so `.chaos` replay files, the
// fuzzer and the shrinker cover elasticity and the closed loop for free.
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/autoscaler.h"
#include "experiments/chaos_schedule.h"
#include "experiments/elastic_fleet.h"
#include "experiments/invariant_monitor.h"

namespace waif::experiments {

struct ElasticChaosOutcome {
  /// The faulted, resized run.
  ElasticOutcome elastic;
  /// The same trace on the fixed base fleet, fault-free, no controller.
  std::uint64_t baseline_digest = 0;
  /// Whether the digests were compared (not when either run shed or
  /// rejected publishes).
  bool digest_checked = false;
  std::uint64_t faults_applied = 0;
  std::uint64_t faults_skipped = 0;
  /// Every non-hold controller decision, in order (empty without an
  /// autoscale fault).
  std::vector<AutoscaleEvent> decisions;
  /// Decisions recovered from the controller's fsynced journal blob.
  std::uint64_t journal_events = 0;
  /// Monitor violations plus synthetic "elastic-digest" /
  /// "autoscale-journal" violations.
  std::vector<ChaosViolation> violations;

  bool ok() const { return violations.empty(); }
};

/// The base fleet of a schedule with an autoscale fault: 3 shards that may
/// grow to 6, the capacity model armed so occupancy is a real signal, and
/// stretched migration steps so resizes have real pause windows. Seed and
/// horizon come from the schedule.
ElasticFleetConfig autoscale_fleet_config(const ChaosSchedule& schedule);

/// The controller an autoscale schedule closes the loop with (exposed so
/// benches and tests agree with the harness byte for byte).
AutoscalerConfig autoscale_controller_config(const ChaosSchedule& schedule);

/// Runs `schedule` against the elastic fleet. Deterministic: equal
/// schedules produce equal outcomes byte for byte. Never throws on
/// invariant violations (they are data, for the shrinker).
ElasticChaosOutcome run_elastic_chaos(const ChaosSchedule& schedule);

}  // namespace waif::experiments
