// The elasticity headline bench: a 200k-device, 1024-topic day replayed
// through an elastic proxy fleet that grows 8 -> 12 shards a quarter of the
// way in and shrinks back to 8 past the 60% mark, with every moved topic
// migrated live through the crash-safe protocol of DESIGN.md §11 (quiesce,
// ship snapshot image + WAL tail, replay, flip, drain).
//
// The acceptance bar is enforced inline: the resized run's topology-
// invariant delivery digest must be byte-identical to a never-resized run
// of the same trace (the binary aborts otherwise), and the whole output is
// byte-identical at any --jobs value, so the CI determinism diff covers the
// live-migration path end to end.
//
// Metrics (BENCH_scale_elastic.json, gated by tools/check_perf.py):
//   * events_per_sec_steady_<pop> — delivery throughput of the resized run
//     per population row, gated as a floor against the committed baseline
//     (CI smoke gates the 50k row; the 200k row is asserted when the
//     committed report is regenerated);
//   * migration_max_pause_ms_per_topic_<pop> — the worst per-topic
//     unavailability window (quiesce -> traffic flowing again), gated as an
//     absolute ceiling on the 50k row: elasticity must never stall a topic
//     for seconds (`_mean_` alongside);
//   * snapshot_bytes_<pop> — checkpoint blob bytes made durable over the
//     resized run, every node incarnation summed (also a column of the
//     counts table, so the --jobs diff covers it).
//
// --max-devices skips the larger rows (CI smoke runs --max-devices 50000;
// the committed JSON is regenerated with the full 50k + 200k sweep).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/check.h"
#include "common/flags.h"
#include "experiments/elastic_fleet.h"

using namespace waif;

namespace {

struct RowSpec {
  std::uint64_t devices;
  const char* pop_key;  // metric-key fragment: 50k / 200k
};

constexpr RowSpec kRows[] = {
    {50'000, "50k"},
    {200'000, "200k"},
};

experiments::ElasticFleetConfig make_config(std::uint64_t devices) {
  experiments::ElasticFleetConfig config;
  config.base.shards = 8;
  config.base.population.devices = devices;
  config.base.population.topics = 1024;
  config.base.population.zipf_s = 1.1;
  config.base.population.seed = 1;
  config.base.publishes = 49152;  // ~48 per topic over the simulated day
  config.base.horizon = kDay;
  config.base.drain_period = 15 * kMinute;
  config.base.seed = 1;
  config.checkpoints = 24;
  // Grow at 25% of the day, shrink back past 60% — both on checkpoint
  // boundaries (kDay / 24 = 1h steps).
  config.resizes = {{6 * kHour, 12}, {15 * kHour, 8}};
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t jobs = 0;
  std::int64_t max_devices = 200'000;
  FlagSet flags(
      "elastic fleet resize sweep — 8 -> 12 -> 8 shards over one simulated "
      "day with live crash-safe topic migration; the resized run must "
      "digest-equal a never-resized run of the same trace");
  flags.add_int("jobs", &jobs,
                "sweep worker threads (0 = all hardware threads)", 0, 4096);
  flags.add_int("max-devices", &max_devices,
                "skip population rows larger than this (CI smoke: 50000)", 1,
                100'000'000);
  if (!flags.parse(argc - 1, argv + 1)) return 1;

  bench::BenchReport report("scale_elastic");
  experiments::ParallelRunner runner(static_cast<std::size_t>(jobs));

  metrics::Table table(
      "Elastic fleet — one simulated day, 1024 topics, 49152 publishes;\n"
      "8 -> 12 shards at 6h, back to 8 at 15h, every moved topic migrated "
      "live",
      "population / run",
      {"deliveries", "drops", "drained", "wal_records", "snapshot_bytes",
       "migrations", "held", "crashes"});
  table.set_precision(0);

  for (const RowSpec& row : kRows) {
    if (row.devices > static_cast<std::uint64_t>(max_devices)) continue;
    const experiments::ElasticFleetConfig config = make_config(row.devices);
    const experiments::ElasticFleet elastic(config);

    experiments::ElasticFleetConfig fixed_config = config;
    fixed_config.resizes.clear();
    const experiments::ElasticFleet fixed(fixed_config);

    experiments::InvariantMonitor monitor;
    const auto start = std::chrono::steady_clock::now();
    const experiments::ElasticOutcome resized =
        elastic.run(runner, {}, &monitor);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    const auto fixed_start = std::chrono::steady_clock::now();
    const experiments::ElasticOutcome baseline = fixed.run(runner);
    const double fixed_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      fixed_start)
            .count();

    // The acceptance bar: growing, migrating and shrinking must be
    // invisible in delivery-visible state, and the monitor must have seen
    // exactly one owner per topic at every checkpoint.
    WAIF_CHECK(resized.digest == baseline.digest);
    WAIF_CHECK(monitor.ok());
    WAIF_CHECK(resized.resizes_applied == 2);
    WAIF_CHECK(resized.final_shards == 8);
    WAIF_CHECK(resized.migrations_done > 0);
    WAIF_CHECK(resized.seq_violations == 0);

    const std::string pop(row.pop_key);
    table.add_row(pop + " elastic 8->12->8",
                  {static_cast<double>(resized.deliveries),
                   static_cast<double>(resized.overflow_drops),
                   static_cast<double>(resized.drained),
                   static_cast<double>(resized.wal_records),
                   static_cast<double>(resized.snapshot_bytes),
                   static_cast<double>(resized.migrations_done),
                   static_cast<double>(resized.held),
                   static_cast<double>(resized.crashes)});
    table.add_row(pop + " fixed 8",
                  {static_cast<double>(baseline.deliveries),
                   static_cast<double>(baseline.overflow_drops),
                   static_cast<double>(baseline.drained),
                   static_cast<double>(baseline.wal_records),
                   static_cast<double>(baseline.snapshot_bytes), 0.0, 0.0,
                   0.0});

    // Deterministic output for the --jobs 1 vs 8 diff: the digests, the
    // migration totals, and the pause profile are all simulated-time facts.
    std::printf("digest: %s elastic %016llx fixed %016llx (routed=%llu "
                "held=%llu)\n",
                row.pop_key,
                static_cast<unsigned long long>(resized.digest),
                static_cast<unsigned long long>(baseline.digest),
                static_cast<unsigned long long>(resized.publishes_routed),
                static_cast<unsigned long long>(resized.held));
    std::printf(
        "digest: %s migrations %llu done, %llu rolled back, %llu "
        "retries; pause max %lld ms total %lld ms\n",
        row.pop_key,
        static_cast<unsigned long long>(resized.migrations_done),
        static_cast<unsigned long long>(resized.migrations_rolled_back),
        static_cast<unsigned long long>(resized.migration_retries),
        static_cast<long long>(resized.max_pause / kMillisecond),
        static_cast<long long>(resized.total_pause / kMillisecond));

    const std::string suffix = "_" + pop;
    report.metric("events_per_sec_steady" + suffix,
                  wall > 0.0 ? static_cast<double>(resized.deliveries +
                                                   resized.drained) /
                                   wall
                             : 0.0);
    report.metric("events_per_sec_fixed_ref" + suffix,
                  fixed_wall > 0.0
                      ? static_cast<double>(baseline.deliveries +
                                            baseline.drained) /
                            fixed_wall
                      : 0.0);
    report.metric("migration_max_pause_ms_per_topic" + suffix,
                  static_cast<double>(resized.max_pause) /
                      static_cast<double>(kMillisecond));
    report.metric(
        "migration_mean_pause_ms_per_topic" + suffix,
        resized.migrations_done > 0
            ? static_cast<double>(resized.total_pause) /
                  static_cast<double>(kMillisecond) /
                  static_cast<double>(resized.migrations_done)
            : 0.0);
    report.metric("migrations_done" + suffix,
                  static_cast<double>(resized.migrations_done));
    report.metric("snapshot_bytes" + suffix,
                  static_cast<double>(resized.snapshot_bytes));
  }

  bench::report_sweep(runner, report);
  bench::emit(
      table,
      "the resized run's delivery-visible totals and digest are identical "
      "to the fixed fleet's (the binary aborts otherwise): live migration "
      "holds a moving topic's traffic during quiesce->flip and drains it on "
      "the new owner, so elasticity costs a bounded per-topic pause — never "
      "a lost, duplicated or reordered delivery.");
  report.write();
  return 0;
}
