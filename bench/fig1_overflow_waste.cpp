// Figure 1: waste due to overflow at different values of Max and user
// frequency (event frequency = 32/day, on-line forwarding, no expirations,
// no outages).
//
// Expected shape (paper): waste% ~= 100 * (1 - user_frequency*Max/32); a
// user reading 32 messages once a day wastes nothing, Max=4 at uf=1 wastes
// ~88%.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace waif;

int main(int argc, char** argv) {
  bench::BenchReport report("fig1_overflow_waste");
  const std::vector<double> user_frequencies = {0.25, 0.5, 1, 2, 4, 8, 16, 32};
  const std::vector<int> max_values = {1, 2, 4, 8, 16, 32, 64};
  experiments::ParallelRunner runner(
      bench::parse_jobs(argc, argv, "fig1 — waste due to overflow"));

  std::vector<std::string> series;
  series.reserve(user_frequencies.size());
  for (double uf : user_frequencies) series.push_back(bench::fmt("uf=%g", uf));

  metrics::Table table(
      "Figure 1 — Percent of wasted messages vs Max, one series per user "
      "frequency\n(event frequency = 32/day, on-line forwarding)",
      "Max", series);

  // Row-major grid of sweep cells, submitted as one batch.
  std::vector<experiments::EvalPoint> points;
  for (int max : max_values) {
    for (double uf : user_frequencies) {
      experiments::EvalPoint point;
      point.scenario = bench::paper_config();
      point.scenario.user_frequency = uf;
      point.scenario.max = max;
      point.policy = core::PolicyConfig::online();
      point.seeds = 2;
      points.push_back(point);
    }
  }
  const std::vector<experiments::Aggregate> aggregates =
      runner.evaluate_many(points);

  std::size_t cursor = 0;
  for (int max : max_values) {
    std::vector<double> row;
    row.reserve(user_frequencies.size());
    for (std::size_t s = 0; s < user_frequencies.size(); ++s) {
      row.push_back(aggregates[cursor++].waste_percent);
    }
    table.add_row(std::to_string(max), row);
  }
  bench::report_sweep(runner, report);

  bench::emit(table,
              "waste ~ 100*(1 - uf*Max/32), clamped at 0: ~88% at uf=1,Max=4; "
              "0% once uf*Max >= 32. Curves fall with Max and with uf.");

  // Check the table against the closed form and print the worst residual.
  std::printf("Closed-form residual check (|measured - formula|, percentage "
              "points):\n");
  double worst = 0.0;
  for (std::size_t r = 0; r < max_values.size(); ++r) {
    for (std::size_t s = 0; s < user_frequencies.size(); ++s) {
      const double formula =
          std::max(0.0, 100.0 * (1.0 - user_frequencies[s] *
                                           max_values[r] / 32.0));
      worst = std::max(worst, std::abs(table.value(r, s) - formula));
    }
  }
  std::printf("  worst residual: %.1f points\n", worst);
  // 2.0 points on these fixed seeds; a user reading Max + 1 per READ instead
  // of Max is 48.0 points off, one reading Max - 1 is 100.0 points off.
  WAIF_CHECK(worst <= 3.0);
  return 0;
}
