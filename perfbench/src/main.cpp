// The repository benchmark's program. Usually started through run.py, which
// builds it first:
//
//   perfbench --workload lasthop_year|fleet_day|elastic_resize
//             [--seed N] [--seconds S] [--trace 0|1] [--span-dir DIR]
//
// Prints one "metric <name> <value> <unit>" line per metric, one "check"
// line per failed output check, and as its last line a JSON object with the
// keys correct, attempted, failed and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "spans.h"

namespace perfbench {

void Result::metric(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::check(bool ok, const std::string& what) {
  if (!ok && std::find(check_failures.begin(), check_failures.end(), what) ==
                 check_failures.end()) {
    check_failures.push_back(what);
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank > 0 ? rank - 1 : 0);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void write_spans(const Options& options, const SpanRecorder& recorder) {
  std::filesystem::create_directories(options.span_dir);
  const std::string path = options.span_dir + "/" + options.workload + ".tsv";
  std::ofstream out(path);
  recorder.write_tsv(out);
  std::printf("spans %zu written to %s\n", recorder.spans().size(), path.c_str());
}

namespace {

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--span-dir") {
      options.span_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return options;
}

void print_json(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
  Result result;
  if (options.workload == "lasthop_year") {
    result = run_lasthop_year(options);
  } else if (options.workload == "fleet_day") {
    result = run_fleet_day(options);
  } else if (options.workload == "elastic_resize") {
    result = run_elastic_resize(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  for (const Metric& m : result.metrics) {
    std::printf("metric %-42s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    result.check(std::isfinite(m.value), m.name + " is a finite number");
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("check FAILED: %s\n", failure.c_str());
  }
  print_json(result);
  return 0;
}
