// The unified chaos orchestrator: runs one composed fault schedule against
// the full stack — two warm replicas over one faulty last hop, a reliable
// channel with breaker and budgets, and a crash-consistent WAL — checking
// the reusable InvariantMonitor at every step, and delta-debugging any
// violating schedule down to a minimal replayable repro.
//
// It is the repo's one last-hop harness. The durability sweep
// (bench/chaos_recovery, the crash-at-every-record proofs in
// tests/storage) and the overload sweep (bench/chaos_overload) are fixed
// schedule families run through it; drawn schedules compose the same
// injectors so their *interactions* get explored: a machine crash
// mid-shed-storm while the device is half-open is one schedule here.
// run_chaos is deterministic: equal schedules produce equal outcomes byte
// for byte, which is what makes shrink_chaos and `.chaos` replay files
// (chaos_schedule.h) trustworthy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/chaos_schedule.h"
#include "experiments/invariant_monitor.h"
#include "net/fault.h"
#include "storage/fault.h"
#include "workload/scenario.h"

namespace waif::experiments {

struct ChaosOutcome {
  /// Digest over every user read (time, topic, sorted ids).
  std::uint64_t read_digest = 0;

  // --- workload ---------------------------------------------------------------
  std::uint64_t arrivals = 0;
  std::uint64_t total_read = 0;
  std::uint64_t read_operations = 0;
  std::uint64_t duplicate_user_reads = 0;

  // --- faults -----------------------------------------------------------------
  /// Faults that fired; guarded crash faults that found no healthy pair to
  /// kill are counted in faults_skipped instead.
  std::uint64_t faults_applied = 0;
  std::uint64_t faults_skipped = 0;
  std::uint64_t crashes = 0;
  /// Crashes that also lost the machine (WAL tail damage + channel reset).
  std::uint64_t machine_crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t failovers = 0;
  std::uint64_t wal_repairs = 0;

  // --- durability -------------------------------------------------------------
  std::uint64_t records_logged = 0;
  /// Successful WAL fsyncs over the run.
  std::uint64_t wal_syncs = 0;
  /// Forwards refused because their write-ahead fsync failed.
  std::uint64_t forward_refusals = 0;
  /// Unsynced WAL records machine crashes discarded (the loss window).
  std::uint64_t lost_records = 0;
  /// WAL records (ACKs aside) replayed past the snapshot watermark, over all
  /// machine-crash recoveries.
  std::uint64_t replayed = 0;

  // --- protection machinery ------------------------------------------------
  /// Sheds of both replicas; journaled_sheds counts the journaled one's.
  std::uint64_t shed = 0;
  std::uint64_t journaled_sheds = 0;
  std::uint64_t admission_rejects = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_closes = 0;
  /// Transfers the reliable channel gave up on and requeued.
  std::uint64_t requeued = 0;
  /// Peak queue occupancy of either replica, proxy-wide and in one topic,
  /// sampled after every publish, read, requeue and breaker wake.
  std::size_t peak_queued = 0;
  std::size_t peak_topic_queued = 0;

  // --- monitor coverage ------------------------------------------------------
  /// Periodic checkpoints evaluated.
  std::uint64_t checks = 0;
  /// Live-vs-recovered image comparisons performed / skipped (a check
  /// skips while the journal is detached or re-basing under fsync faults).
  std::uint64_t image_checks = 0;
  std::uint64_t image_skips = 0;

  net::FaultStats link_faults;
  storage::StorageFaultStats storage_faults;
  std::vector<ChaosViolation> violations;

  bool ok() const { return violations.empty(); }

  /// Canonical digest of the headline fields and every violation — two
  /// replays of the same schedule must agree on this byte for byte.
  std::uint64_t digest() const;
};

/// The topics the harness manages: an adaptive topic with a delay stage, a
/// buffer topic with a holding queue and interrupts, and an on-line topic
/// with a per-day cap, so a run crosses every queue and journal stage.
std::vector<std::string> chaos_topics();

/// The base workload behind every chaos run. Outages come from the
/// schedule, not the trace (outage_fraction = 0).
workload::ScenarioConfig chaos_scenario();

/// Runs one schedule to its horizon and returns the outcome; never throws
/// on invariant violations (they are data, for the shrinker). Validates the
/// schedule first (validate_chaos).
ChaosOutcome run_chaos(const ChaosSchedule& schedule);

struct ChaosShrinkResult {
  /// The minimal schedule that still violates.
  ChaosSchedule minimized;
  /// run_chaos(minimized), for reporting.
  ChaosOutcome outcome;
  std::size_t original_faults = 0;
  /// run_chaos invocations the shrink spent.
  std::size_t replays = 0;
};

/// Shrinks a violating schedule: ddmin over the fault list (drop whole
/// segments while the violation reproduces), then per-fault minimization
/// (halve duration, magnitude and param). Precondition: run_chaos(schedule)
/// reports at least one violation; throws std::invalid_argument otherwise.
ChaosShrinkResult shrink_chaos(const ChaosSchedule& schedule);

}  // namespace waif::experiments
