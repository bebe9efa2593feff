// Figure 4: waste due to expirations with different values of user frequency
// and expiration periods from 16 seconds to ~3 days (event frequency =
// 32/day, Max = infinity, on-line forwarding, no outages).
//
// Expected shape (paper): short-lived notifications mostly expire before the
// user gets to them (waste near 100%); once the user's read interval drops
// below the expiration time, waste disappears.
#include <string>
#include <vector>

#include "bench_util.h"
#include "pubsub/subscription.h"

using namespace waif;

int main(int argc, char** argv) {
  bench::BenchReport report("fig4_expiration_waste");
  const std::vector<double> user_frequencies = {1, 2, 4, 8, 16, 32, 64};
  const std::vector<double> expirations = {16,    64,    256,   1024,
                                           4096,  16384, 65536, 262144};
  experiments::ParallelRunner runner(
      bench::parse_jobs(argc, argv, "fig4 — waste due to expirations"));

  std::vector<std::string> series;
  series.reserve(user_frequencies.size());
  for (double uf : user_frequencies) series.push_back(bench::fmt("uf=%g", uf));

  metrics::Table table(
      "Figure 4 — Percent of wasted messages vs mean expiration time "
      "(seconds), one series per user frequency\n(event frequency = 32/day, "
      "Max = infinity, on-line forwarding, exponential lifetimes)",
      "exp(s)", series);

  std::vector<experiments::EvalPoint> points;
  for (double expiration : expirations) {
    for (double uf : user_frequencies) {
      experiments::EvalPoint point;
      point.scenario = bench::paper_config();
      point.scenario.user_frequency = uf;
      point.scenario.max = pubsub::kUnlimitedMax;  // "Max = infinity" (S3.3)
      point.scenario.mean_expiration = seconds(expiration);
      point.policy = core::PolicyConfig::online();
      point.seeds = 2;
      points.push_back(point);
    }
  }
  const std::vector<experiments::Aggregate> aggregates =
      runner.evaluate_many(points);

  std::size_t cursor = 0;
  for (double expiration : expirations) {
    std::vector<double> row;
    row.reserve(user_frequencies.size());
    for (std::size_t s = 0; s < user_frequencies.size(); ++s) {
      row.push_back(aggregates[cursor++].waste_percent);
    }
    table.add_row(bench::fmt("%.0f", expiration), row);
  }
  bench::report_sweep(runner, report);

  bench::emit(table,
              "near-100% waste for lifetimes far below the interval between "
              "reads; waste drops toward 0 once reads come more often than "
              "expirations. Higher user frequency pushes the knee left.");

  // The shape. The margins come from the table on these fixed seeds: every
  // series reads 98.9-100.0 % at 16 s; waste falls from each lifetime to the
  // next and from each user frequency to the next (it never rises; the
  // smallest falls are 0.05 and 0.02 points); at 4,096 s uf = 64 reads 53.3
  // points below uf = 1 (41.8 against 95.1 %); and at 262,144 s every series
  // reads at most 17.6 %. A proxy whose notifications never expire wastes
  // nothing at 16 s, and a reader whose rate ignores uf reads every series
  // alike: each aborts.
  for (std::size_t r = 0; r < expirations.size(); ++r) {
    for (std::size_t s = 0; s < user_frequencies.size(); ++s) {
      const double waste = table.value(r, s);
      if (r > 0) WAIF_CHECK(waste <= table.value(r - 1, s) + 0.1);
      if (s > 0) WAIF_CHECK(waste <= table.value(r, s - 1) + 0.1);
    }
  }
  const std::size_t longest = expirations.size() - 1;
  for (std::size_t s = 0; s < user_frequencies.size(); ++s) {
    WAIF_CHECK(table.value(0, s) >= 97.0);
    WAIF_CHECK(table.value(longest, s) <= 20.0);
  }
  const std::size_t at_4096 = 4;
  WAIF_CHECK(expirations[at_4096] == 4096);
  WAIF_CHECK(table.value(at_4096, user_frequencies.size() - 1) <=
             table.value(at_4096, 0) - 30.0);
  return 0;
}
