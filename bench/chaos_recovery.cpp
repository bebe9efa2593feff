// Chaos harness for proxy durability: sweeps crash point x sync policy x
// snapshot interval x injected storage fault, replaying every cell through
// the deterministic parallel runner. Each cell is one `.chaos` schedule run
// through experiments::run_chaos: the replicated, journaled last hop over
// 12 days with four 3-hour outages. The cell sets the schedule's
// persistence line, an optional storage-fault window, and an optional
// machine crash once the WAL reaches a record index, restarted in place
// from the newest valid snapshot plus the WAL-tail replay. The sweep
// asserts the durability invariants:
//
//   1. with write-ahead syncs and no storage faults, the digest after
//      (crash, recover, continue) equals the uninterrupted run's digest —
//      recovery is exact;
//   2. without a crash or a fault, neither sync policy changes a read;
//   3. under batched syncs the crash loses at most the unsynced window;
//   4. the write-ahead discipline never yields a duplicate user read, even
//      when fsyncs fail (deliveries are refused, not lost track of);
//   5. whatever the injected fault left on disk, fsck still finds a
//      recoverable image (a valid snapshot or a repairable WAL) — checked,
//      with every other monitor invariant, through the run's violations.
//
// That journaling itself changes no read is checked by the last-hop
// integration tests (tests/integration/last_hop_test.cpp).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "experiments/chaos_orchestrator.h"
#include "experiments/chaos_schedule.h"

using namespace waif;

namespace {

enum class SyncMode { kWriteAhead, kBatched };
enum class FaultKind { kNone, kFsync, kTorn };

struct RecoveryCell {
  SyncMode sync = SyncMode::kWriteAhead;
  std::uint64_t snapshot_interval = 64;
  FaultKind fault = FaultKind::kNone;
  double crash_fraction = 0.0;  // of the baseline's WAL record count; 0 = no crash
};

const char* sync_name(SyncMode mode) {
  return mode == SyncMode::kWriteAhead ? "ahead" : "batch";
}

const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kFsync: return "fsync";
    case FaultKind::kTorn: return "torn";
  }
  return "?";
}

/// The uninterrupted, fault-free run every cell varies: default
/// (write-ahead) persistence and one 3-hour outage every three days.
experiments::ChaosSchedule base_schedule() {
  experiments::ChaosSchedule schedule;
  schedule.horizon = 12 * kDay;
  for (SimTime day = 1; day < 12; day += 3) {
    experiments::ChaosFault outage;
    outage.kind = experiments::ChaosFaultKind::kOutage;
    outage.at = day * kDay + 6 * kHour;
    outage.duration = 3 * kHour;
    schedule.faults.push_back(outage);
  }
  return schedule;
}

experiments::ChaosSchedule cell_schedule(const RecoveryCell& cell,
                                         std::uint64_t baseline_records) {
  experiments::ChaosSchedule schedule = base_schedule();
  schedule.persistence.snapshot_interval = cell.snapshot_interval;
  if (cell.sync == SyncMode::kBatched) {
    schedule.persistence.sync_interval = 32;
    schedule.persistence.sync_on_forward = false;
  }
  if (cell.fault != FaultKind::kNone) {
    // A storage-fault window over the whole run: magnitude 0.2 fails a
    // fifth of the fsyncs; 0.5 fails half and tears every crashed tail.
    experiments::ChaosFault storage;
    storage.kind = experiments::ChaosFaultKind::kStorageFault;
    storage.duration = schedule.horizon;
    storage.magnitude = cell.fault == FaultKind::kFsync ? 0.2 : 0.5;
    schedule.faults.push_back(storage);
  }
  if (cell.crash_fraction > 0.0) {
    // Duration 0: the machine comes back in place at once.
    experiments::ChaosFault crash;
    crash.kind = experiments::ChaosFaultKind::kCrashAtRecord;
    crash.param = static_cast<std::uint64_t>(
        cell.crash_fraction * static_cast<double>(baseline_records));
    schedule.faults.push_back(crash);
  }
  return schedule;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("chaos_recovery");
  experiments::ParallelRunner runner(bench::parse_jobs(
      argc, argv,
      "Durability chaos sweep — crash point x sync policy x snapshot "
      "interval x injected storage fault over the persistent last-hop "
      "proxy"));

  // The uninterrupted no-fault run: its digest is what every exact-tier
  // cell must reproduce, and its record count is what the crash fractions
  // index into. (Without faults the sync policy cannot change behavior, so
  // one baseline covers both sync modes.)
  const experiments::ChaosOutcome baseline =
      experiments::run_chaos(base_schedule());
  WAIF_CHECK(baseline.ok());
  WAIF_CHECK(baseline.records_logged > 0);
  WAIF_CHECK(baseline.crashes == 0);

  const SyncMode sync_modes[] = {SyncMode::kWriteAhead, SyncMode::kBatched};
  const std::uint64_t snapshot_intervals[] = {32, 256};
  const FaultKind faults[] = {FaultKind::kNone, FaultKind::kFsync,
                              FaultKind::kTorn};
  const double crash_fractions[] = {0.0, 0.5};

  std::vector<RecoveryCell> cells;
  std::vector<experiments::ChaosSchedule> schedules;
  for (SyncMode sync : sync_modes) {
    for (std::uint64_t snap : snapshot_intervals) {
      for (FaultKind fault : faults) {
        for (double crash : crash_fractions) {
          cells.push_back(RecoveryCell{sync, snap, fault, crash});
          schedules.push_back(
              cell_schedule(cells.back(), baseline.records_logged));
        }
      }
    }
  }

  const std::vector<experiments::ChaosOutcome> results = runner.map(
      schedules.size(),
      [&schedules](std::size_t i) { return experiments::run_chaos(schedules[i]); });

  metrics::Table table(
      "Durability chaos sweep — crash-point recovery under sync policies, "
      "snapshot intervals and storage faults\n(12-day three-topic runs on "
      "the replicated last hop with four 3-hour outages; ahead = "
      "write-ahead fsync per record, batch = 32-record sync window;\n"
      "fsync / torn = storage-fault window of magnitude 0.2 / 0.5; crash at "
      "half the baseline's WAL, restarted in place; Δreads vs the "
      "uninterrupted no-fault run)",
      "sync / snap / fault / crash",
      {"reads", "Δreads", "dupes", "refused", "lost win", "replayed",
       "repairs"});

  const auto max_per_read =
      static_cast<std::uint64_t>(experiments::chaos_scenario().max);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const RecoveryCell& cell = cells[i];
    const experiments::ChaosOutcome& result = results[i];
    const experiments::ChaosSchedule& schedule = schedules[i];
    const bool crashed = result.machine_crashes > 0;
    const bool write_ahead = cell.sync == SyncMode::kWriteAhead;

    // Invariant 5, and every monitor invariant besides.
    WAIF_CELL_CHECK(result.ok(), "chaos_recovery", i, schedule);
    // Invariant 1: write-ahead syncs + clean storage = exact recovery.
    if (write_ahead && cell.fault == FaultKind::kNone) {
      WAIF_CELL_CHECK(result.read_digest == baseline.read_digest,
                      "chaos_recovery", i, schedule);
      WAIF_CELL_CHECK(result.total_read == baseline.total_read,
                      "chaos_recovery", i, schedule);
      if (crashed) {
        WAIF_CELL_CHECK(result.lost_records == 0, "chaos_recovery", i,
                        schedule);
      }
    }
    // Invariant 2: no crash + no fault is behavior-neutral for either sync
    // policy.
    if (!crashed && cell.fault == FaultKind::kNone) {
      WAIF_CELL_CHECK(result.read_digest == baseline.read_digest,
                      "chaos_recovery", i, schedule);
    }
    // Invariant 3: a crash can only cost the unsynced window (each lost
    // record hides at most one read of up to `max` events; the in-flight
    // slack on either side of the crash instant adds two more windows).
    if (crashed && cell.fault == FaultKind::kNone) {
      const std::int64_t loss = static_cast<std::int64_t>(baseline.total_read) -
                                static_cast<std::int64_t>(result.total_read);
      WAIF_CELL_CHECK(loss <= static_cast<std::int64_t>(
                                  (result.lost_records + 2) * max_per_read),
                      "chaos_recovery", i, schedule);
    }
    // Invariant 4: duplicates require losing a *forward* record, which the
    // write-ahead discipline makes impossible — crash or no crash, faults
    // or not. (Batched cells may legitimately re-deliver.)
    if (write_ahead || !crashed) {
      WAIF_CELL_CHECK(result.duplicate_user_reads == 0, "chaos_recovery", i,
                      schedule);
    }
    // A crash was actually injected where the cell asked for one.
    if (cell.crash_fraction > 0.0) {
      WAIF_CELL_CHECK(crashed, "chaos_recovery", i, schedule);
    }

    char label[64];
    std::snprintf(label, sizeof label, "%s / %3llu / %-5s / %.1f",
                  sync_name(cell.sync),
                  static_cast<unsigned long long>(cell.snapshot_interval),
                  fault_name(cell.fault), cell.crash_fraction);
    const std::int64_t delta = static_cast<std::int64_t>(result.total_read) -
                               static_cast<std::int64_t>(baseline.total_read);
    table.add_row(label,
                  {static_cast<double>(result.total_read),
                   static_cast<double>(delta),
                   static_cast<double>(result.duplicate_user_reads),
                   static_cast<double>(result.forward_refusals),
                   static_cast<double>(result.lost_records),
                   static_cast<double>(result.replayed),
                   static_cast<double>(result.wal_repairs)});
  }

  bench::report_sweep(runner, report);
  bench::emit(
      table,
      "all invariants held (the binary aborts otherwise). Write-ahead cells "
      "with clean storage recover exactly (Δreads 0) at any crash point and "
      "snapshot interval; batched cells lose at most the 32-record unsynced "
      "window; fsync faults show up as refused deliveries, never as "
      "duplicates; torn writes and bit flips are truncated away by the CRC "
      "scan (repairs column) and the image stays recoverable.");
  return 0;
}
