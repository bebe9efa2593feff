// Shared helpers for the figure-reproduction bench binaries.
//
// Every bench submits its sweep through experiments::ParallelRunner; the
// shared --jobs flag picks the worker count (0 = all hardware threads) and
// report_sweep() prints the wall-clock speedup against the
// sequential-equivalent cost of the same jobs.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/time.h"
#include "experiments/chaos_schedule.h"
#include "experiments/parallel_runner.h"
#include "experiments/runner.h"
#include "metrics/table.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace waif::bench {

/// The paper's default workload: event frequency 32/day, one virtual year.
inline workload::ScenarioConfig paper_config() {
  workload::ScenarioConfig config;
  config.event_frequency = 32.0;
  config.horizon = kYear;
  return config;
}

/// Parses the shared bench flags and returns the requested worker count for
/// experiments::ParallelRunner (0 = all hardware threads). Exits the process
/// on --help or a malformed flag. `default_jobs` lets timing-sensitive
/// benches (scale_proxies) default to one worker.
inline std::size_t parse_jobs(int argc, const char* const* argv,
                              const std::string& description,
                              std::int64_t default_jobs = 0) {
  std::int64_t jobs = default_jobs;
  FlagSet flags(description);
  flags.add_int("jobs", &jobs,
                "sweep worker threads (0 = all hardware threads)", 0, 4096);
  if (!flags.parse(argc - 1, argv + 1)) std::exit(1);
  return static_cast<std::size_t>(jobs);
}

/// Prints the accounting of the runner's most recent sweep: the observed
/// wall clock, the sequential-equivalent cost (sum of per-job run times),
/// the resulting speedup, and the process-wide CPU/peak-RSS triple so every
/// bench reports the same resource line. All of it stays on "sweep:" lines,
/// which the determinism diffs strip.
inline void report_sweep(const experiments::ParallelRunner& runner) {
  const experiments::SweepStats& stats = runner.last_stats();
  if (stats.jobs == 0) return;
  std::printf(
      "sweep: %zu jobs on %zu thread(s) — wall %.2f s, "
      "sequential-equivalent %.2f s, speedup %.2fx\n"
      "sweep: process — cpu %.2f s, peak rss %.1f MiB\n\n",
      stats.jobs, stats.threads, stats.wall_seconds, stats.task_seconds,
      stats.speedup(), process_cpu_seconds(),
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
}

/// report_sweep() that additionally folds the sweep's accounting into the
/// bench's BENCH_<name>.json.
inline void report_sweep(const experiments::ParallelRunner& runner,
                         BenchReport& report,
                         const std::string& label = "main") {
  report.note_sweep(runner.last_stats(), label);
  report_sweep(runner);
}

/// Prints the table followed by the paper's expected shape, so the output is
/// self-checking by eye.
inline void emit(const metrics::Table& table, const std::string& expectation) {
  table.print(std::cout);
  std::cout << "\nPaper expectation: " << expectation << "\n" << std::endl;
}

/// The bare engine rate, in fired events per wall-clock second: 16
/// self-rescheduling timers with a ~1 ms mean period (seed 42), timed from
/// simulated 20 s to 140 s so the heap and the handle arena are warm and
/// the steady state allocates nothing.
inline double measure_engine_events_per_sec() {
  sim::Simulator sim;
  Rng rng(42);
  struct Ticker {
    sim::Simulator& sim;
    Rng& rng;
    void tick() {
      sim.schedule_after(1 + static_cast<SimDuration>(rng.next_below(2000)),
                         [this] { tick(); });
    }
  } ticker{sim, rng};
  for (int i = 0; i < 16; ++i) {
    sim.schedule_after(static_cast<SimDuration>(1 + rng.next_below(2000)),
                       [&ticker] { ticker.tick(); });
  }
  sim.run_until(20'000'000);  // warm-up
  const std::uint64_t fired_before = sim.fired_events();
  const auto start = std::chrono::steady_clock::now();
  sim.run_until(140'000'000);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return static_cast<double>(sim.fired_events() - fired_before) / wall;
}

inline std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

/// Saves a failing chaos cell's schedule as `<bench>-cell<cell>.chaos` in
/// the working directory, for `waif_chaos_replay --replay` or `--shrink`.
inline void write_cell_repro(const char* bench, std::size_t cell,
                             const experiments::ChaosSchedule& schedule) {
  const std::string path =
      std::string(bench) + "-cell" + std::to_string(cell) + ".chaos";
  std::ofstream out(path);
  experiments::write_chaos(out, schedule);
  std::fprintf(stderr, "%s: cell %zu failed; its schedule is in %s\n", bench,
               cell, path.c_str());
}

}  // namespace waif::bench

/// WAIF_CHECK for one cell of a chaos bench: before aborting, writes the
/// cell's schedule (evaluated only on failure) as a replayable repro.
#define WAIF_CELL_CHECK(expr, name, index, repro)              \
  do {                                                         \
    if (!(expr)) {                                             \
      ::waif::bench::write_cell_repro(name, index, repro);     \
      ::waif::detail::check_failed(#expr, __FILE__, __LINE__); \
    }                                                          \
  } while (false)
