// Machine-readable bench reports: every bench binary emits one
// BENCH_<name>.json next to its table output, so the repo can commit a
// perf trajectory that scripts (and the CI regression gate) can diff.
//
// The schema is deliberately flat and stable:
//
//   {
//     "schema": 1,
//     "name": "fig1_overflow_waste",
//     "wall_seconds": 1.84,            // steady-clock span of the report
//     "cpu_seconds": 1.79,             // getrusage user+system, whole process
//     "peak_rss_bytes": 27262976,      // ru_maxrss, whole process
//     "events_fired": 1183744,         // sim::total_events_fired() delta
//     "events_per_sec": 643339.1,      // events_fired / wall_seconds
//     "alloc": { "counted": true, "allocations": 91, "bytes": 5824 },
//     "metrics": { "engine_events_per_sec": 8.6e6, ... },  // bench-specific
//     "sweeps": [ { "label": "main", "jobs": 56, "threads": 1,
//                   "wall_seconds": 1.8, "task_seconds": 1.7,
//                   "speedup": 0.97 } ]
//   }
//
// wall/cpu/rss and the alloc block are measured between BenchReport's
// construction and write(), so a bench that wants to exclude setup can
// construct the report late. "alloc.counted" is false when the binary was
// linked without waif::alloc_hooks — the numbers are then meaningless zeros
// and consumers must ignore them.
//
// Files land in $WAIF_BENCH_JSON_DIR (default: the working directory). The
// committed copies at the repo root are refreshed by running the benches
// with WAIF_BENCH_JSON_DIR=<repo root>; see EXPERIMENTS.md. write() also
// prints a one-line confirmation prefixed "sweep:" so the determinism diffs
// (which canonicalize with `grep -v '^sweep:'`) ignore it.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_stats.h"
#include "common/check.h"
#include "common/resource.h"
#include "experiments/parallel_runner.h"
#include "sim/simulator.h"

namespace waif::bench {

/// User + system CPU seconds consumed by the whole process so far.
inline double process_cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set size of the process, in bytes.
inline std::uint64_t peak_rss_bytes() { return waif::peak_rss_bytes(); }

class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)),
        start_(std::chrono::steady_clock::now()),
        start_cpu_(process_cpu_seconds()),
        start_events_(sim::total_events_fired()),
        start_allocs_(alloc_stats::allocation_count()),
        start_alloc_bytes_(alloc_stats::allocation_bytes()) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() {
    if (!written_) write();
  }

  /// Records a bench-specific scalar under "metrics". A key may be recorded
  /// once: JSON readers keep only the last of duplicate keys.
  void metric(const std::string& key, double value) {
    for (const auto& entry : metrics_) WAIF_CHECK(entry.first != key);
    metrics_.emplace_back(key, value);
  }

  /// Samples the process's *current* RSS and folds it into the report's
  /// peak. Benches whose rows allocate wildly different working sets (the
  /// scale_million population sweep) call this after each row, so the
  /// reported peak is the max over the sweep even on platforms where
  /// getrusage's lifetime high-water mark is unavailable or misleading
  /// (e.g. 0 on a getrusage failure, or inflated by an earlier unrelated
  /// phase the caller reset_rss()'d away). Returns the sample, so callers
  /// can also attach per-row metrics from it.
  std::uint64_t sample_rss() {
    const std::uint64_t sample = current_rss_bytes();
    sampled_peak_rss_ = std::max(sampled_peak_rss_, sample);
    return sample;
  }

  /// Forgets RSS history (both the sampled max and the getrusage peak seen
  /// so far): subsequent samples start a fresh max-over-sweep window. Used
  /// by benches that want the report to reflect only the sweep, not setup.
  void reset_rss() {
    sampled_peak_rss_ = 0;
    rss_floor_ = waif::peak_rss_bytes();
  }

  /// Records one ParallelRunner sweep's accounting under "sweeps".
  void note_sweep(const experiments::SweepStats& stats,
                  const std::string& label = "main") {
    if (stats.jobs == 0) return;
    sweeps_.push_back(Sweep{label, stats});
  }

  /// Emits BENCH_<name>.json into $WAIF_BENCH_JSON_DIR (default ".").
  /// Idempotent: the destructor calls it only if nobody else did.
  void write() {
    written_ = true;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    const double cpu = process_cpu_seconds() - start_cpu_;
    const std::uint64_t events = sim::total_events_fired() - start_events_;
    // Max-over-sweep RSS: the larger of every sample_rss() call and the
    // current RSS at write time; the getrusage lifetime high-water mark is
    // folded in only when it rose past the reset_rss() floor (i.e. the peak
    // actually happened inside the report window).
    std::uint64_t rss = std::max(sampled_peak_rss_, current_rss_bytes());
    const std::uint64_t lifetime_peak = peak_rss_bytes();
    if (lifetime_peak > rss_floor_) rss = std::max(rss, lifetime_peak);

    const char* dir = std::getenv("WAIF_BENCH_JSON_DIR");
    const std::string path =
        std::string(dir && *dir ? dir : ".") + "/BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
      return;
    }

    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema\": 1,\n");
    std::fprintf(out, "  \"name\": \"%s\",\n", name_.c_str());
    std::fprintf(out, "  \"wall_seconds\": %.6f,\n", wall);
    std::fprintf(out, "  \"cpu_seconds\": %.6f,\n", cpu);
    std::fprintf(out, "  \"peak_rss_bytes\": %llu,\n",
                 static_cast<unsigned long long>(rss));
    std::fprintf(out, "  \"events_fired\": %llu,\n",
                 static_cast<unsigned long long>(events));
    std::fprintf(out, "  \"events_per_sec\": %.1f,\n",
                 wall > 0.0 ? static_cast<double>(events) / wall : 0.0);
    std::fprintf(
        out, "  \"alloc\": { \"counted\": %s, \"allocations\": %llu, "
             "\"bytes\": %llu },\n",
        alloc_stats::hooks_installed() ? "true" : "false",
        static_cast<unsigned long long>(alloc_stats::allocation_count() -
                                        start_allocs_),
        static_cast<unsigned long long>(alloc_stats::allocation_bytes() -
                                        start_alloc_bytes_));

    std::fprintf(out, "  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(out, "%s\n    \"%s\": %.6g", i == 0 ? "" : ",",
                   metrics_[i].first.c_str(), metrics_[i].second);
    }
    std::fprintf(out, "%s},\n", metrics_.empty() ? " " : "\n  ");

    std::fprintf(out, "  \"sweeps\": [");
    for (std::size_t i = 0; i < sweeps_.size(); ++i) {
      const Sweep& sweep = sweeps_[i];
      std::fprintf(
          out,
          "%s\n    { \"label\": \"%s\", \"jobs\": %zu, \"threads\": %zu, "
          "\"wall_seconds\": %.6f, \"task_seconds\": %.6f, "
          "\"speedup\": %.3f }",
          i == 0 ? "" : ",", sweep.label.c_str(), sweep.stats.jobs,
          sweep.stats.threads, sweep.stats.wall_seconds,
          sweep.stats.task_seconds, sweep.stats.speedup());
    }
    std::fprintf(out, "%s]\n", sweeps_.empty() ? " " : "\n  ");
    std::fprintf(out, "}\n");
    std::fclose(out);

    std::printf("sweep: wrote %s — wall %.2f s, cpu %.2f s, peak rss "
                "%.1f MiB, %.3g events/s\n",
                path.c_str(), wall, cpu,
                static_cast<double>(rss) / (1024.0 * 1024.0),
                wall > 0.0 ? static_cast<double>(events) / wall : 0.0);
  }

 private:
  struct Sweep {
    std::string label;
    experiments::SweepStats stats;
  };

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  double start_cpu_;
  std::uint64_t start_events_;
  std::uint64_t start_allocs_;
  std::uint64_t start_alloc_bytes_;
  /// Max over every sample_rss() call (0 until the first sample).
  std::uint64_t sampled_peak_rss_ = 0;
  /// getrusage peak at the last reset_rss(); the lifetime high-water mark
  /// only counts when it exceeds this floor.
  std::uint64_t rss_floor_ = 0;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<Sweep> sweeps_;
  bool written_ = false;
};

}  // namespace waif::bench
