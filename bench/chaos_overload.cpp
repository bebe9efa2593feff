// Chaos harness for overload protection: sweeps publisher storm x device
// stall x queue budget, replaying every cell through the deterministic
// parallel runner. Each cell is one `.chaos` schedule run through
// experiments::run_chaos: the replicated, journaled last hop over 4 days
// with four 2-hour outages, optionally swamped by storm faults (bursts of
// extra publishes), optionally ACK-starved by device-stall faults, with the
// budgets/watermarks armed per cell and the breaker armed everywhere. The
// sweep asserts the overload invariants:
//
//   1. the all-off cell is behavior-identical to the unprotected baseline;
//   2. with a budget armed, sampled queue occupancy never exceeds it — per
//      topic and proxy-wide — however hard the storm pushes;
//   3. every shed event is journaled, sheds strictly follow the canonical
//      rank-then-expiration order, and replaying the WAL from scratch
//      rebuilds per-topic images byte-identical to the live proxy (no
//      unjournaled drops) — the monitor's shed-journal, shed-order and
//      image-equality invariants;
//   4. without a budget nothing is ever shed or rejected;
//   5. stall windows trip the circuit breaker; the cooldown probes
//      half-open and the device's recovery recloses it.
//
// That journaling itself changes no read is checked by the last-hop
// integration tests (tests/integration/last_hop_test.cpp).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "experiments/chaos_orchestrator.h"
#include "experiments/chaos_schedule.h"
#include "metrics/inefficiency.h"

using namespace waif;

namespace {

struct OverloadCell {
  bool storm = false;
  bool stall = false;
  std::size_t budget = 0;  // per-topic; 0 = overload protection off
};

experiments::ChaosSchedule cell_schedule(const OverloadCell& cell) {
  using experiments::ChaosFault;
  using experiments::ChaosFaultKind;
  experiments::ChaosSchedule schedule;
  schedule.horizon = 4 * kDay;
  // The breaker is armed in every cell, but only ACK starvation can trip it.
  schedule.breaker_threshold = 3;
  // No snapshots: every image check replays the WAL from its first record.
  schedule.persistence.snapshot_interval = 0;
  for (SimTime day = 0; day < 4; ++day) {
    ChaosFault outage;
    outage.kind = ChaosFaultKind::kOutage;
    outage.at = day * kDay + 12 * kHour;
    outage.duration = 2 * kHour;
    schedule.faults.push_back(outage);
  }
  if (cell.storm) {
    // Six 48-event bursts an hour apart from a quarter into the run.
    for (std::uint64_t burst = 0; burst < 6; ++burst) {
      ChaosFault storm;
      storm.kind = ChaosFaultKind::kStorm;
      storm.at = schedule.horizon / 4 + static_cast<SimTime>(burst) * kHour;
      storm.param = 48;
      storm.seed = burst + 1;
      schedule.faults.push_back(storm);
    }
  }
  if (cell.stall) {
    // Two 3-hour windows in which every ACK vanishes.
    for (SimTime window = 1; window <= 2; ++window) {
      ChaosFault stall;
      stall.kind = ChaosFaultKind::kDeviceStall;
      stall.at = schedule.horizon * window / 3;
      stall.duration = 3 * kHour;
      schedule.faults.push_back(stall);
    }
  }
  if (cell.budget > 0) {
    schedule.topic_budget = cell.budget;
    schedule.proxy_budget = 2 * cell.budget;
    schedule.admission_high = 2 * cell.budget;
    schedule.admission_low = cell.budget;
  }
  return schedule;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("chaos_overload");
  experiments::ParallelRunner runner(bench::parse_jobs(
      argc, argv,
      "Overload chaos sweep — publisher storm x device stall x queue budget "
      "over the protected last-hop proxy"));

  // The unprotected, undisturbed run: its digest is what the all-off cell
  // must reproduce.
  const experiments::ChaosOutcome baseline =
      experiments::run_chaos(cell_schedule(OverloadCell{}));
  WAIF_CHECK(baseline.ok());
  WAIF_CHECK(baseline.shed == 0);
  WAIF_CHECK(baseline.admission_rejects == 0);

  const bool storms[] = {false, true};
  const bool stalls[] = {false, true};
  const std::size_t budgets[] = {0, 32, 8};

  std::vector<OverloadCell> cells;
  std::vector<experiments::ChaosSchedule> schedules;
  for (bool storm : storms) {
    for (bool stall : stalls) {
      for (std::size_t budget : budgets) {
        cells.push_back(OverloadCell{storm, stall, budget});
        schedules.push_back(cell_schedule(cells.back()));
      }
    }
  }

  const std::vector<experiments::ChaosOutcome> results = runner.map(
      schedules.size(),
      [&schedules](std::size_t i) { return experiments::run_chaos(schedules[i]); });

  metrics::Table table(
      "Overload chaos sweep — storms, device stalls and queue budgets over "
      "the protected proxy\n(4-day three-topic runs on the replicated last "
      "hop with four 2-hour outages; storm = 6x48-event bursts, stall = two "
      "3-hour ACK-starvation windows;\nbudget = per-topic cap, proxy-wide "
      "cap 2x, admission watermarks at budget/2x-budget; shed = the active "
      "replica's journaled sheds; peaks over both replicas)",
      "storm / stall / budget",
      {"reads", "shed", "shed%", "rejects", "peakQ", "peakT", "trips",
       "requeued"});

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const OverloadCell& cell = cells[i];
    const experiments::ChaosOutcome& result = results[i];
    const experiments::ChaosSchedule& schedule = schedules[i];

    // Invariants 2 and 3 through the monitor: occupancy sampled after
    // every mutation, sheds journaled in canonical order, and the WAL
    // replay equal to the live image at every checkpoint.
    WAIF_CELL_CHECK(result.ok(), "chaos_overload", i, schedule);
    WAIF_CELL_CHECK(result.image_checks > 0, "chaos_overload", i, schedule);

    if (cell.budget > 0) {
      // Invariant 2: sampled occupancy is bounded by the armed budgets.
      WAIF_CELL_CHECK(result.peak_topic_queued <= cell.budget,
                      "chaos_overload", i, schedule);
      WAIF_CELL_CHECK(result.peak_queued <= 2 * cell.budget,
                      "chaos_overload", i, schedule);
    } else {
      // Invariant 4: no budget, no drops.
      WAIF_CELL_CHECK(result.shed == 0, "chaos_overload", i, schedule);
      WAIF_CELL_CHECK(result.admission_rejects == 0, "chaos_overload", i,
                      schedule);
    }
    // Invariant 1: the all-off cell is the baseline, bit for bit.
    if (!cell.storm && !cell.stall && cell.budget == 0) {
      WAIF_CELL_CHECK(result.read_digest == baseline.read_digest,
                      "chaos_overload", i, schedule);
      WAIF_CELL_CHECK(result.total_read == baseline.total_read,
                      "chaos_overload", i, schedule);
    }
    // Invariant 5: ACK starvation trips the breaker; a healthy device
    // never does.
    if (cell.stall) {
      WAIF_CELL_CHECK(result.breaker_trips > 0, "chaos_overload", i,
                      schedule);
      WAIF_CELL_CHECK(result.breaker_closes > 0, "chaos_overload", i,
                      schedule);
    } else {
      WAIF_CELL_CHECK(result.breaker_trips == 0, "chaos_overload", i,
                      schedule);
    }

    char label[64];
    std::snprintf(label, sizeof label, "%-5s / %-5s / %2zu",
                  cell.storm ? "storm" : "calm",
                  cell.stall ? "stall" : "none", cell.budget);
    table.add_row(
        label,
        {static_cast<double>(result.total_read),
         static_cast<double>(result.journaled_sheds),
         metrics::shed_percent(result.arrivals, result.journaled_sheds),
         static_cast<double>(result.admission_rejects),
         static_cast<double>(result.peak_queued),
         static_cast<double>(result.peak_topic_queued),
         static_cast<double>(result.breaker_trips),
         static_cast<double>(result.requeued)});
  }

  bench::report_sweep(runner, report);
  bench::emit(
      table,
      "all invariants held (the binary aborts otherwise). Budgeted cells "
      "keep peak occupancy within the cap — rank-then-expiration shedding "
      "and the admission watermarks absorb the storm — while every shed is "
      "journaled and the WAL replay matches the live image byte for byte; "
      "unbudgeted cells never drop; stall cells trip the circuit breaker "
      "into hold-only mode and reclose it once ACKs flow again.");
  return 0;
}
