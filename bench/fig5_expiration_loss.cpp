// Figure 5: loss due to expirations with different values of user frequency
// and expiration periods from 16 seconds to ~3 days (event frequency =
// 32/day, network outage 95% of the time, pure on-demand forwarding).
//
// Expected shape (paper): a hump — negligible loss for very short lifetimes
// (events expire before anyone could read them under either policy), rising
// in the middle (events expire during outages, unrecoverable on-demand),
// dropping again for long lifetimes (events survive until connectivity
// returns).
#include <string>
#include <vector>

#include "bench_util.h"
#include "pubsub/subscription.h"

using namespace waif;

int main(int argc, char** argv) {
  bench::BenchReport report("fig5_expiration_loss");
  experiments::ParallelRunner runner(
      bench::parse_jobs(argc, argv, "fig5 — loss due to expirations"));
  const std::vector<double> user_frequencies = {1, 2, 4, 8, 16, 32, 64};
  const std::vector<double> expirations = {16,   64,    256,   1024,
                                           4096, 16384, 65536, 262144};

  std::vector<std::string> series;
  series.reserve(user_frequencies.size());
  for (double uf : user_frequencies) series.push_back(bench::fmt("uf=%g", uf));

  metrics::Table table(
      "Figure 5 — Percent of lost messages vs mean expiration time (seconds), "
      "one series per user frequency\n(event frequency = 32/day, Max = "
      "infinity, network down 95% of the time, pure on-demand)",
      "exp(s)", series);

  std::vector<experiments::EvalPoint> points;
  for (double expiration : expirations) {
    for (double uf : user_frequencies) {
      experiments::EvalPoint point;
      point.scenario = bench::paper_config();
      point.scenario.user_frequency = uf;
      point.scenario.max = pubsub::kUnlimitedMax;
      point.scenario.mean_expiration = seconds(expiration);
      point.scenario.outage_fraction = 0.95;
      point.policy = core::PolicyConfig::on_demand();
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
      row.push_back(aggregates[cursor++].loss_percent);
    }
    table.add_row(bench::fmt("%.0f", expiration), row);
  }
  bench::report_sweep(runner, report);

  bench::emit(table,
              "a hump: low loss at very short lifetimes, peak when lifetimes "
              "are comparable to outage/read intervals, declining at long "
              "lifetimes as events survive the outages.");

  // The hump. The margins come from the table on these fixed seeds: at 16 s
  // every series reads 0.0 % but uf = 64, which reads 10.0 %; each series
  // peaks inside the grid (uf = 1 at 65,536 s, uf = 2-16 at 16,384 s,
  // uf = 32 and 64 at 4,096 s), at least 37.0 points above its 16-s value
  // (uf = 64: 47.0 against 10.0); at 262,144 s every series reads at least
  // 7.7 points below its peak (uf = 1: 83.8 against 91.5), and loss falls
  // with every step in user frequency (83.8 % at uf = 1 to 9.4 % at 64).
  // A proxy whose notifications never expire, and an on-demand proxy that
  // forwards like the on-line one, flatten the hump: each aborts.
  const std::size_t longest = expirations.size() - 1;
  for (std::size_t s = 0; s < user_frequencies.size(); ++s) {
    std::size_t peak = 0;
    for (std::size_t r = 1; r < expirations.size(); ++r) {
      if (table.value(r, s) > table.value(peak, s)) peak = r;
    }
    WAIF_CHECK(table.value(0, s) <= 15.0);
    WAIF_CHECK(peak > 0 && peak < longest);
    WAIF_CHECK(table.value(peak, s) >= table.value(0, s) + 30.0);
    WAIF_CHECK(table.value(longest, s) <= table.value(peak, s) - 5.0);
    if (s > 0) {
      WAIF_CHECK(table.value(longest, s) <=
                 table.value(longest, s - 1) + 0.1);
    }
  }
  return 0;
}
