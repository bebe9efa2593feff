// Shared plumbing of the repository benchmark: options, the result record
// run.py prints, and small statistics helpers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed window.
  double seconds = 30.0;
  /// Run the traced pass (per-layer metrics) instead of the untraced one.
  bool trace = false;
  /// Where the traced pass writes its spans.
  std::string span_dir = ".bench_build/spans";
};

/// Worker threads of the fleet workloads' ParallelRunner (the host has 4).
inline constexpr std::size_t kWorkers = 2;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Output checks that did not hold; any entry makes the run incorrect.
  std::vector<std::string> check_failures;

  void metric(std::string name, double value, std::string unit);
  void check(bool ok, const std::string& what);
  bool correct() const { return check_failures.empty(); }
};

Result run_lasthop_year(const Options& options);
Result run_fleet_day(const Options& options);
Result run_elastic_resize(const Options& options);

double median(std::vector<double> values);
/// Nearest-rank percentile (q in [0, 1]) of `values`, which it reorders.
double percentile(std::vector<double>& values, double q);
double seconds_between(std::int64_t start_ns, std::int64_t end_ns);
/// Peak resident set of the process so far, in MiB.
double peak_rss_mib();
/// Writes the spans of a traced pass under options.span_dir.
class SpanRecorder;
void write_spans(const Options& options, const SpanRecorder& recorder);

}  // namespace perfbench
