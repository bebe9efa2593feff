// Figure 2: loss due to overflow at different levels of network availability
// (event frequency = 32/day, Max = 8, pure on-demand forwarding vs the
// on-line baseline).
//
// Expected shape (paper): loss grows with the outage fraction toward ~100%,
// then drops back to 0 at total outage (both policies equally powerless).
// The bench checks that shape and aborts when the table breaks it.
#include <cstddef>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"

using namespace waif;

int main(int argc, char** argv) {
  bench::BenchReport report("fig2_overflow_loss");
  const std::vector<double> user_frequencies = {0.25, 0.5, 1, 2,
                                                4,    8,   16, 32, 64};
  const std::vector<double> outages = {0.0, 0.1, 0.2, 0.3, 0.4,  0.5,
                                       0.6, 0.7, 0.8, 0.9, 0.95, 1.0};
  experiments::ParallelRunner runner(
      bench::parse_jobs(argc, argv, "fig2 — loss due to overflow"));

  std::vector<std::string> series;
  series.reserve(user_frequencies.size());
  for (double uf : user_frequencies) series.push_back(bench::fmt("uf=%g", uf));

  metrics::Table table(
      "Figure 2 — Percent of lost messages vs network outage fraction, one "
      "series per user frequency\n(event frequency = 32/day, Max = 8, pure "
      "on-demand forwarding)",
      "outage", series);

  std::vector<experiments::EvalPoint> points;
  for (double outage : outages) {
    for (double uf : user_frequencies) {
      experiments::EvalPoint point;
      point.scenario = bench::paper_config();
      point.scenario.user_frequency = uf;
      point.scenario.max = 8;
      point.scenario.outage_fraction = outage;
      point.policy = core::PolicyConfig::on_demand();
      point.seeds = 2;
      points.push_back(point);
    }
  }
  const std::vector<experiments::Aggregate> aggregates =
      runner.evaluate_many(points);

  std::size_t cursor = 0;
  for (double outage : outages) {
    std::vector<double> row;
    row.reserve(user_frequencies.size());
    for (std::size_t s = 0; s < user_frequencies.size(); ++s) {
      row.push_back(aggregates[cursor++].loss_percent);
    }
    table.add_row(bench::fmt("%.2f", outage), row);
  }
  bench::report_sweep(runner, report);

  bench::emit(table,
              "loss grows with the outage fraction toward just below 100%, "
              "then drops to 0 at outage = 1.0 where the on-line baseline "
              "reads nothing either.");

  // Check the shape just printed. On these fixed seeds every series reads
  // 0.0 at outage 1.0; for uf <= 4 the largest fall between neighbouring
  // outages up to 0.95 is 0.5 points, and the lowest loss at 0.95 is 92.6 %
  // (94.2 % at uf = 2). An on-demand proxy that forwards like the on-line
  // baseline reads 0.0 at 0.95.
  const std::size_t total = outages.size() - 1;  // outage 1.0
  const std::size_t heavy = outages.size() - 2;  // outage 0.95
  for (std::size_t s = 0; s < user_frequencies.size(); ++s) {
    WAIF_CHECK(table.value(total, s) <= 0.0);
    if (user_frequencies[s] > 4) continue;
    for (std::size_t r = 1; r <= heavy; ++r) {
      WAIF_CHECK(table.value(r - 1, s) - table.value(r, s) <= 2.0);
    }
    WAIF_CHECK(table.value(heavy, s) >= 90.0);
  }
  return 0;
}
