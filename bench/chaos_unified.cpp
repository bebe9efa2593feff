// Unified chaos sweep: hundreds of composed fault schedules — link faults,
// outages, storage faults, machine crashes with WAL-tail damage, replica
// kills, shed storms and device stalls, all in one run — each checked
// against the full invariant monitor (experiments/invariant_monitor.h):
//
//   1. breaker state-machine legality on every observer callback;
//   2. monotone sequence/ACK/delivery counters at every checkpoint;
//   3. queue occupancy bounded by the armed budgets (sampled after every
//      publish, read, requeue and breaker wake);
//   4. no admission rejects unless admission control is armed;
//   5. live-vs-recovered image equality on clean WAL lineage (a fault-free
//      copy of the written log replays to exactly the live state), and
//      every shed journaled in canonical order;
//   6. no expired event ever reaches the transport or the device;
//   7. no duplicate user reads without a failover/requeue to explain them;
//   8. the on-disk image stays fsck-recoverable through everything.
//
// Every schedule must come out clean (the binary aborts otherwise, after
// writing the failing cell's schedule as chaos_unified-cell<N>.chaos), and
// the whole sweep is byte-identical at any --jobs, so the CI determinism
// diff covers the entire composed-fault surface.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "experiments/chaos_orchestrator.h"
#include "experiments/chaos_schedule.h"

using namespace waif;

namespace {

struct ChaosCell {
  double intensity = 0.35;
  std::size_t faults = 8;
  bool allow_crashes = true;
  std::size_t rebalance_shards = 0;
  std::size_t autoscale_spike = 0;
  std::uint64_t seed = 1;
};

experiments::ChaosSchedule cell_schedule(const ChaosCell& cell) {
  experiments::ChaosDrawConfig draw;
  draw.intensity = cell.intensity;
  draw.faults = cell.faults;
  draw.allow_crashes = cell.allow_crashes;
  draw.rebalance_shards = cell.rebalance_shards;
  draw.autoscale_spike = cell.autoscale_spike;
  experiments::ChaosSchedule schedule = experiments::draw_chaos(draw, cell.seed);
  // Every rebalance-tier cell must actually resize: when the draw picked
  // no rebalance fault, deterministically turn the first fault into one.
  if (cell.rebalance_shards > 0) {
    const bool has_rebalance = std::any_of(
        schedule.faults.begin(), schedule.faults.end(),
        [](const experiments::ChaosFault& fault) {
          return fault.kind == experiments::ChaosFaultKind::kRebalance;
        });
    if (!has_rebalance && !schedule.faults.empty()) {
      schedule.faults.front().kind = experiments::ChaosFaultKind::kRebalance;
      schedule.faults.front().param = cell.rebalance_shards;
    }
  }
  // Likewise every autoscale-tier cell must actually spike, so the
  // closed-loop controller harness runs for all 36 seeds.
  if (cell.autoscale_spike > 0) {
    const bool has_autoscale = std::any_of(
        schedule.faults.begin(), schedule.faults.end(),
        [](const experiments::ChaosFault& fault) {
          return fault.kind == experiments::ChaosFaultKind::kAutoscale;
        });
    if (!has_autoscale && !schedule.faults.empty()) {
      schedule.faults.front().kind = experiments::ChaosFaultKind::kAutoscale;
      schedule.faults.front().param = cell.autoscale_spike;
    }
  }
  return schedule;
}

struct GroupTotals {
  std::uint64_t runs = 0;
  std::uint64_t applied = 0;
  std::uint64_t crashes = 0;
  std::uint64_t failovers = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejects = 0;
  std::uint64_t trips = 0;
  std::uint64_t image_checks = 0;
  std::uint64_t reads = 0;   // user reads (last-hop runs)
  std::uint64_t drains = 0;  // mailbox drains (elastic runs)
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("chaos_unified");
  experiments::ParallelRunner runner(bench::parse_jobs(
      argc, argv,
      "Unified chaos sweep — composed fault schedules (link x storage x "
      "crash x storm x stall) against the replicated, persistent, "
      "overload-protected last hop, every run checked by the invariant "
      "monitor"));

  // 8 draw shapes x 36 seeds = 288 composed schedules. The gentle tier
  // stays below the shedding regime, the fierce tier composes everything.
  struct Shape {
    const char* label;
    double intensity;
    std::size_t faults;
    bool allow_crashes;
    std::size_t rebalance_shards;
    std::size_t autoscale_spike;
  };
  const Shape shapes[] = {
      {"gentle  /  6 / net-only", 0.15, 6, false, 0, 0},
      {"gentle  /  6 / +crash", 0.15, 6, true, 0, 0},
      {"medium  /  8 / net-only", 0.35, 8, false, 0, 0},
      {"medium  /  8 / +crash", 0.35, 8, true, 0, 0},
      {"fierce  / 12 / net-only", 0.60, 12, false, 0, 0},
      {"fierce  / 12 / +crash", 0.60, 12, true, 0, 0},
      // The elasticity tier: schedules that also grow the shard fleet to 7
      // nodes and shrink it back mid-run (experiments/elastic_chaos.h) —
      // every one must keep the topology-invariant delivery digest equal
      // to a never-resized, fault-free run of the same trace.
      {"medium  /  8 / +rebal", 0.35, 8, true, 7, 0},
      // The autoscale tier: flash crowds against the closed-loop
      // controller, through the same elastic harness — the no-thrash
      // invariant, the journal round-trip and the gated digest check must
      // all hold for every seed.
      {"medium  /  8 / +auto", 0.35, 8, true, 0, 1024},
  };
  constexpr std::uint64_t kSeedsPerShape = 36;

  std::vector<ChaosCell> cells;
  for (std::size_t s = 0; s < std::size(shapes); ++s) {
    for (std::uint64_t seed = 1; seed <= kSeedsPerShape; ++seed) {
      cells.push_back(ChaosCell{shapes[s].intensity, shapes[s].faults,
                                shapes[s].allow_crashes,
                                shapes[s].rebalance_shards,
                                shapes[s].autoscale_spike,
                                (s + 1) * 1000 + seed});
    }
  }

  const std::vector<experiments::ChaosOutcome> results =
      runner.map(cells.size(), [&cells](std::size_t i) {
        return experiments::run_chaos(cell_schedule(cells[i]));
      });

  metrics::Table table(
      "Unified chaos sweep — composed fault schedules vs the invariant "
      "monitor\n(3-day runs, two replicas, WAL persistence, budgets + "
      "admission + breaker armed; every cell must pass all invariants)",
      "intensity / faults / kinds",
      {"runs", "faults", "crashes", "failovers", "shed", "rejects", "trips",
       "img-chk", "reads", "drains"});

  std::uint64_t total_violations = 0;
  std::uint64_t total_image_checks = 0;
  for (std::size_t s = 0; s < std::size(shapes); ++s) {
    GroupTotals totals;
    for (std::uint64_t k = 0; k < kSeedsPerShape; ++k) {
      const std::size_t cell = s * kSeedsPerShape + k;
      const experiments::ChaosOutcome& outcome = results[cell];
      // The invariant gate: one violating schedule fails the whole bench.
      WAIF_CELL_CHECK(outcome.ok(), "chaos_unified", cell,
                      cell_schedule(cells[cell]));
      total_violations += outcome.violations.size();
      total_image_checks += outcome.image_checks;
      ++totals.runs;
      totals.applied += outcome.faults_applied;
      totals.crashes += outcome.crashes;
      totals.failovers += outcome.failovers;
      totals.shed += outcome.shed;
      totals.rejects += outcome.admission_rejects;
      totals.trips += outcome.breaker_trips;
      totals.image_checks += outcome.image_checks;
      totals.reads += outcome.total_read;
      totals.drains += outcome.drained;
    }
    table.add_row(shapes[s].label,
                  {static_cast<double>(totals.runs),
                   static_cast<double>(totals.applied),
                   static_cast<double>(totals.crashes),
                   static_cast<double>(totals.failovers),
                   static_cast<double>(totals.shed),
                   static_cast<double>(totals.rejects),
                   static_cast<double>(totals.trips),
                   static_cast<double>(totals.image_checks),
                   static_cast<double>(totals.reads),
                   static_cast<double>(totals.drains)});
  }

  report.metric("schedules", static_cast<double>(cells.size()));
  report.metric("violations", static_cast<double>(total_violations));
  report.metric("image_checks", static_cast<double>(total_image_checks));

  bench::report_sweep(runner, report);
  bench::emit(
      table,
      "every composed schedule passes the full invariant monitor (the "
      "binary aborts otherwise): breaker transitions stay legal, channel "
      "counters stay monotone, queues respect the armed budgets, no "
      "expired event reaches the device, the durable image replays to "
      "exactly the live state on clean WAL lineage, and fsck stays "
      "recoverable through crashes, torn tails and bit flips. Crash rows "
      "show failovers and restarts; fierce rows show shedding and breaker "
      "trips without a single invariant violation.");
  report.write();
  return 0;
}
