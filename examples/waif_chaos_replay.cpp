// waif_chaos_replay: replay, draw, shrink and fuzz composed chaos
// schedules against the full last-hop stack.
//
// A `.chaos` file (experiments/chaos_schedule.h) is a complete, replayable
// description of one chaos run: the workload seed, the armed budgets and
// breaker threshold, and every fault — link degradation, outages, storage
// faults, crashes, storms, device stalls — with its own substream seed.
// Replaying the same file always reproduces the same outcome byte for
// byte, which is what makes a minimized repro from the fuzzer (or CI)
// worth committing to a bug report.
//
// Modes (pick one):
//   --replay=FILE   run FILE and print the outcome; with --shrink, a
//                   violating schedule is minimized and written next to
//                   the input as FILE.min
//   --draw=SEED     draw a schedule from SEED and print it (or --out=FILE)
//   --fuzz=N        long-running mode: run N drawn schedules, shrink every
//                   violation and save the minimized repro into
//                   --repro-dir (default $WAIF_CHAOS_REPRO_DIR, else ".")
//
// Exit status: 0 = all runs clean, 1 = an invariant violation was found,
// 2 = usage or I/O error.
//
// Examples:
//   ./build/examples/waif_chaos_replay --draw=7 --out=seed7.chaos
//   ./build/examples/waif_chaos_replay --replay=seed7.chaos
//   ./build/examples/waif_chaos_replay --fuzz=500 --seed=1
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include <algorithm>

#include "common/flags.h"
#include "experiments/chaos_orchestrator.h"
#include "experiments/chaos_schedule.h"
#include "experiments/elastic_chaos.h"

using namespace waif;
using namespace waif::experiments;

namespace {

void print_outcome(const ChaosOutcome& outcome) {
  std::printf(
      "run: %llu arrivals, %llu reads over %llu operations, digest "
      "%016llx\n"
      "faults: %llu applied, %llu skipped — %llu crashes (%llu machine), "
      "%llu restarts, %llu failovers, %llu WAL repairs\n"
      "protection: %llu shed (%llu journaled), %llu admission rejects, "
      "%llu breaker trips / %llu closes, %llu WAL records\n"
      "monitor: %llu checkpoints, %llu image comparisons (%llu skipped)\n",
      static_cast<unsigned long long>(outcome.arrivals),
      static_cast<unsigned long long>(outcome.total_read),
      static_cast<unsigned long long>(outcome.read_operations),
      static_cast<unsigned long long>(outcome.read_digest),
      static_cast<unsigned long long>(outcome.faults_applied),
      static_cast<unsigned long long>(outcome.faults_skipped),
      static_cast<unsigned long long>(outcome.crashes),
      static_cast<unsigned long long>(outcome.machine_crashes),
      static_cast<unsigned long long>(outcome.restarts),
      static_cast<unsigned long long>(outcome.failovers),
      static_cast<unsigned long long>(outcome.wal_repairs),
      static_cast<unsigned long long>(outcome.shed),
      static_cast<unsigned long long>(outcome.journaled_sheds),
      static_cast<unsigned long long>(outcome.admission_rejects),
      static_cast<unsigned long long>(outcome.breaker_trips),
      static_cast<unsigned long long>(outcome.breaker_closes),
      static_cast<unsigned long long>(outcome.records_logged),
      static_cast<unsigned long long>(outcome.checks),
      static_cast<unsigned long long>(outcome.image_checks),
      static_cast<unsigned long long>(outcome.image_skips));
  for (const ChaosViolation& violation : outcome.violations) {
    std::printf("VIOLATION [%s] at t=%lld: %s\n", violation.invariant.c_str(),
                static_cast<long long>(violation.at),
                violation.detail.c_str());
  }
  if (outcome.ok()) std::printf("all invariants held\n");
}

bool write_file(const std::string& path, const ChaosSchedule& schedule) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "waif_chaos_replay: cannot write %s\n", path.c_str());
    return false;
  }
  write_chaos(out, schedule);
  return bool(out);
}

/// Shrinks a violating schedule, reports the reduction, writes the repro.
bool shrink_and_save(const ChaosSchedule& schedule, const std::string& path) {
  const ChaosShrinkResult result = shrink_chaos(schedule);
  std::printf(
      "shrink: %zu -> %zu faults in %zu replays; minimized repro still "
      "violates (%zu violation(s), first: %s)\n",
      result.original_faults, result.minimized.faults.size(), result.replays,
      result.outcome.violations.size(),
      result.outcome.violations.empty()
          ? "-"
          : result.outcome.violations[0].invariant.c_str());
  if (!write_file(path, result.minimized)) return false;
  std::printf("shrink: wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string replay_path;
  std::string out_path;
  std::string repro_dir;
  std::string bug_name = "none";
  std::int64_t draw_seed = -1;
  std::int64_t fuzz_runs = 0;
  std::int64_t base_seed = 1;
  std::int64_t fault_count = 8;
  std::int64_t rebalance_shards = 0;
  std::int64_t autoscale_spike = 0;
  double intensity = 0.35;
  bool shrink = false;

  FlagSet flags(
      "waif_chaos_replay — replay, draw, shrink and fuzz composed chaos "
      "schedules (.chaos files) against the replicated, persistent, "
      "overload-protected last hop.\nExit status: 0 clean, 1 violation "
      "found, 2 usage/IO error.");
  flags.add_string("replay", &replay_path, "run this .chaos file");
  flags.add_bool("shrink", &shrink,
                 "with --replay: minimize a violating schedule to FILE.min");
  flags.add_int("draw", &draw_seed, "draw a schedule from this seed", -1,
                std::numeric_limits<std::int64_t>::max());
  flags.add_string("out", &out_path, "with --draw: write here, not stdout");
  flags.add_int("fuzz", &fuzz_runs, "run this many drawn schedules", 0,
                std::numeric_limits<std::int64_t>::max());
  flags.add_int("seed", &base_seed, "first fuzz seed", 0,
                std::numeric_limits<std::int64_t>::max());
  flags.add_int("faults", &fault_count, "faults per drawn schedule", 1, 64);
  flags.add_double("intensity", &intensity, "drawn fault intensity in [0,1]");
  flags.add_int("rebalance", &rebalance_shards,
                "let drawn schedules grow the elastic fleet to this shard "
                "count (0 = no rebalance faults)",
                0, 64);
  flags.add_int("autoscale", &autoscale_spike,
                "let drawn schedules spike one topic with up to this many "
                "extra publishes against the closed-loop controller (0 = no "
                "autoscale faults)",
                0, 1 << 20);
  flags.add_string("bug", &bug_name,
                   "arm a test-only bug (none | swallow-shed)");
  flags.add_string("repro-dir", &repro_dir,
                   "where fuzz repros land (default $WAIF_CHAOS_REPRO_DIR)");
  if (!flags.parse(argc - 1, argv + 1)) return 2;
  if (!(intensity >= 0.0 && intensity <= 1.0)) {
    std::fprintf(stderr, "waif_chaos_replay: --intensity must be in [0,1]\n");
    return 2;
  }

  ChaosBug bug = ChaosBug::kNone;
  if (bug_name == "swallow-shed") {
    bug = ChaosBug::kSwallowShedJournal;
  } else if (bug_name != "none") {
    std::fprintf(stderr, "waif_chaos_replay: unknown --bug '%s'\n",
                 bug_name.c_str());
    return 2;
  }
  if (repro_dir.empty()) {
    const char* env = std::getenv("WAIF_CHAOS_REPRO_DIR");
    repro_dir = env != nullptr ? env : ".";
  }

  ChaosDrawConfig draw;
  draw.faults = static_cast<std::size_t>(fault_count);
  draw.intensity = intensity;
  draw.rebalance_shards = static_cast<std::size_t>(rebalance_shards);
  draw.autoscale_spike = static_cast<std::size_t>(autoscale_spike);

  try {
    if (!replay_path.empty()) {
      std::ifstream in(replay_path);
      if (!in) {
        std::fprintf(stderr, "waif_chaos_replay: cannot read %s\n",
                     replay_path.c_str());
        return 2;
      }
      ChaosSchedule schedule = read_chaos(in);
      if (bug != ChaosBug::kNone) schedule.bug = bug;
      const ChaosOutcome outcome = run_chaos(schedule);
      print_outcome(outcome);
      if (outcome.ok()) return 0;
      if (shrink && !shrink_and_save(schedule, replay_path + ".min")) {
        return 2;
      }
      return 1;
    }

    if (draw_seed >= 0) {
      ChaosSchedule schedule =
          draw_chaos(draw, static_cast<std::uint64_t>(draw_seed));
      schedule.bug = bug;
      if (out_path.empty()) {
        std::ostringstream text;
        write_chaos(text, schedule);
        // The timeline rows are '#' comments, so the printed output is
        // still a valid .chaos file (pipe it straight into --replay).
        render_chaos_timeline(text, schedule);
        // A schedule with an autoscale fault gets the closed-loop
        // controller's actual decisions rendered under the fault timeline
        // — run it through the elastic harness (deterministic) and append
        // the decision rows, '#'-prefixed like everything else.
        const bool autoscales = std::any_of(
            schedule.faults.begin(), schedule.faults.end(),
            [](const ChaosFault& fault) {
              return fault.kind == ChaosFaultKind::kAutoscale;
            });
        if (autoscales) {
          const ElasticChaosOutcome outcome = run_elastic_chaos(schedule);
          render_autoscale_timeline(text, outcome.decisions,
                                    schedule.horizon);
        }
        std::fputs(text.str().c_str(), stdout);
      } else if (!write_file(out_path, schedule)) {
        return 2;
      }
      return 0;
    }

    if (fuzz_runs > 0) {
      int violations = 0;
      for (std::int64_t i = 0; i < fuzz_runs; ++i) {
        const std::uint64_t seed = static_cast<std::uint64_t>(base_seed + i);
        ChaosSchedule schedule = draw_chaos(draw, seed);
        schedule.bug = bug;
        const ChaosOutcome outcome = run_chaos(schedule);
        if (outcome.ok()) continue;
        ++violations;
        std::printf("fuzz: seed %llu violated (%zu violation(s), first: "
                    "%s)\n",
                    static_cast<unsigned long long>(seed),
                    outcome.violations.size(),
                    outcome.violations[0].invariant.c_str());
        const std::string path = repro_dir + "/chaos_repro_seed" +
                                 std::to_string(seed) + ".chaos";
        if (!shrink_and_save(schedule, path)) return 2;
      }
      std::printf("fuzz: %lld schedules, %d violated\n",
                  static_cast<long long>(fuzz_runs), violations);
      return violations == 0 ? 0 : 1;
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "waif_chaos_replay: %s\n", error.what());
    return 2;
  }

  std::fprintf(stderr,
               "waif_chaos_replay: pick a mode — --replay, --draw or --fuzz "
               "(see --help)\n");
  return 2;
}
