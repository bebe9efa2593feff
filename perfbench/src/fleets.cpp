// Workloads `fleet_day` and `elastic_resize`: the two fleet engines at the
// rows of bench/scale_million (1M devices) and bench/scale_elastic (50k
// devices, 8 -> 12 -> 8 shards, plus a flash crowd), driven through their
// public run() calls.
//
// The fleets build their proxies, channels and WALs inside run(), so the
// traced pass times them from outside only: one span per run, the
// ParallelRunner's task accounting, the outcome's counters, and ablation runs
// (journal off; the same trace on a fixed fleet) whose difference isolates
// one layer.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/alloc_stats.h"
#include "experiments/elastic_fleet.h"
#include "experiments/invariant_monitor.h"
#include "experiments/parallel_runner.h"
#include "experiments/sharded_fleet.h"
#include "spans.h"
#include "workload/stressors.h"

namespace perfbench {
namespace {

using namespace waif;

/// Builds per set-up median: the 1M-device fleet takes ~0.6 s to build,
/// the 50k one ~40 ms.
constexpr int kFleetDaySetups = 3;
constexpr int kElasticSetups = 15;
constexpr int kTracedRepeats = 3;

/// The seed draws the population (subscriptions and ring placement) and the
/// flash crowd. The calm publish trace is the scale benches' (seed 1): its
/// hot topics' Poisson publish counts swing drop_share by ~14% from seed to
/// seed, while a 50k-1M device population averages out.
experiments::FleetConfig fleet_day_config(std::uint64_t seed) {
  experiments::FleetConfig config;
  config.shards = 16;
  config.vnodes = 64;
  config.population.devices = 1'000'000;
  config.population.topics = 1024;
  config.population.zipf_s = 1.1;
  config.population.seed = seed;
  config.publishes = 49152;
  config.horizon = kDay;
  config.drain_period = 15 * kMinute;
  config.drain_batch = 4;
  config.journal_forwards = true;
  config.seed = 1;
  return config;
}

experiments::ElasticFleetConfig elastic_config(std::uint64_t seed) {
  experiments::ElasticFleetConfig config;
  config.base = fleet_day_config(seed);
  config.base.shards = 8;
  config.base.population.devices = 50'000;
  config.checkpoints = 24;
  config.resizes = {{6 * kHour, 12}, {15 * kHour, 8}};
  // Breaking news on the most popular topic while the fleet is grown: 128
  // extra publishes in one hour (64x the topic's base rate) overflow its
  // subscribers' mailboxes, so this workload measures drops too (the calm
  // trace never fills a mailbox).
  workload::FlashCrowdConfig crowd;
  crowd.topic = 0;
  crowd.at = 10 * kHour;
  crowd.duration = kHour;
  crowd.events = 128;
  crowd.rank_lo = pubsub::kMinRank;
  crowd.rank_hi = pubsub::kMaxRank;
  crowd.seed = seed;
  for (const workload::StressEvent& spike : workload::draw_flash_crowd(crowd)) {
    config.extra_publishes.push_back({spike.time, spike.topic, spike.rank, 0});
  }
  return config;
}

/// Builds the fleet `repeats` times (each copy is destroyed before the next
/// is built) and returns the median build time.
template <typename Fleet, typename Config>
double construct(std::optional<Fleet>& fleet, const Config& config,
                 int repeats) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    fleet.reset();
    const std::int64_t start = now_ns();
    fleet.emplace(config);
    seconds.push_back(seconds_between(start, now_ns()));
  }
  return median(seconds);
}

double draw_seconds(const experiments::FleetConfig& config) {
  std::vector<double> seconds;
  for (int i = 0; i < kTracedRepeats; ++i) {
    const std::int64_t start = now_ns();
    const auto trace = experiments::draw_publishes(config);
    seconds.push_back(seconds_between(start, now_ns()));
  }
  return median(seconds);
}

/// One timed fleet run.
struct Timed {
  double seconds = 0.0;
  std::uint64_t allocs = 0;
  double task_seconds = 0.0;
};

template <typename Run>
Timed timed(experiments::ParallelRunner& runner, Run&& run) {
  const alloc_stats::AllocProbe allocs;
  const std::int64_t start = now_ns();
  run();
  Timed t;
  t.seconds = seconds_between(start, now_ns());
  t.allocs = allocs.allocations();
  t.task_seconds = runner.last_stats().task_seconds;
  return t;
}

/// The end-to-end metrics every fleet workload reports.
struct FleetFigures {
  std::uint64_t trace_publishes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t drops = 0;
  std::uint64_t drained = 0;
};

void report_end_to_end(Result& result, double setup_s,
                       const std::vector<Timed>& runs, const FleetFigures& f) {
  std::vector<double> publish_rate, delivery_rate, allocs;
  for (const Timed& t : runs) {
    publish_rate.push_back(static_cast<double>(f.trace_publishes) / t.seconds);
    delivery_rate.push_back(static_cast<double>(f.deliveries) / t.seconds);
    allocs.push_back(static_cast<double>(t.allocs) /
                     static_cast<double>(f.trace_publishes));
  }
  const auto attempts = static_cast<double>(f.deliveries + f.drops);
  result.metric("setup_s", setup_s, "s");
  result.metric("publishes_per_s", median(publish_rate), "1/s");
  result.metric("deliveries_per_s", median(delivery_rate), "1/s");
  result.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  result.metric("allocs_per_publish", median(allocs), "count");
  result.metric("drop_share", static_cast<double>(f.drops) / attempts, "fraction");
  // Delivered to a device queue but not drained by the last settlement.
  result.metric("waste_pct",
                100.0 * static_cast<double>(f.deliveries - f.drained) /
                    static_cast<double>(f.deliveries),
                "%");
  // A message dropped at a full queue is one its subscriber never sees.
  result.metric("loss_pct", 100.0 * static_cast<double>(f.drops) / attempts, "%");
}

/// Runs `run` until the window has passed, at least twice.
template <typename Run>
std::vector<Timed> window(const Options& options,
                          experiments::ParallelRunner& runner, Run&& run) {
  std::vector<Timed> runs;
  const std::int64_t start = now_ns();
  while (runs.size() < 2 || seconds_between(start, now_ns()) < options.seconds) {
    runs.push_back(timed(runner, run));
    std::printf("run %zu: %.4f s wall, %.4f s task\n", runs.size(),
                runs.back().seconds, runs.back().task_seconds);
  }
  return runs;
}

FleetFigures figures(const experiments::FleetOutcome& o, std::uint64_t trace) {
  FleetFigures f;
  f.trace_publishes = trace;
  f.deliveries = o.deliveries;
  f.drops = o.overflow_drops;
  for (const experiments::ShardOutcome& shard : o.shards) f.drained += shard.drained;
  return f;
}

FleetFigures figures(const experiments::ElasticOutcome& o, std::uint64_t trace) {
  FleetFigures f;
  f.trace_publishes = trace;
  f.deliveries = o.deliveries;
  f.drops = o.overflow_drops;
  f.drained = o.drained;
  return f;
}

/// Per-layer figures of the runner and the fan-out, from one set of runs.
/// `one_sweep`: the run is a single ParallelRunner sweep, so the runner's
/// task accounting covers all of it (ShardedFleet). ElasticFleet runs one
/// sweep per segment and the runner keeps only the last, so its task
/// figures are left out.
void report_fleet_layers(Result& result, const std::vector<Timed>& runs,
                         std::uint64_t deliveries, std::uint64_t batches,
                         bool one_sweep) {
  std::vector<double> run_s, task_s, idle, ns_per_delivery;
  for (const Timed& t : runs) {
    run_s.push_back(t.seconds);
    task_s.push_back(t.task_seconds);
    idle.push_back(1.0 - t.task_seconds /
                             (t.seconds * static_cast<double>(kWorkers)));
    ns_per_delivery.push_back(1e9 * t.task_seconds /
                              static_cast<double>(deliveries));
  }
  result.metric("experiments.fleet.run_s", median(run_s), "s");
  result.metric("experiments.fanout.deliveries_per_batch",
                static_cast<double>(deliveries) / static_cast<double>(batches),
                "count");
  if (!one_sweep) return;
  result.metric("experiments.fleet.task_s", median(task_s), "s");
  result.metric("experiments.fleet.idle_share", median(idle), "fraction");
  result.metric("experiments.fanout.ns_per_delivery", median(ns_per_delivery),
                "ns");
}

double median_seconds(const std::vector<Timed>& runs) {
  std::vector<double> s;
  for (const Timed& t : runs) s.push_back(t.seconds);
  return median(s);
}

double overhead_pct(const std::vector<Timed>& traced,
                    const std::vector<Timed>& untraced) {
  return 100.0 * (median_seconds(traced) / median_seconds(untraced) - 1.0);
}

}  // namespace

Result run_fleet_day(const Options& options) {
  Result result;
  const experiments::FleetConfig config = fleet_day_config(options.seed);
  std::optional<experiments::ShardedFleet> fleet;
  const double setup_s = construct(fleet, config, kFleetDaySetups);
  const std::uint64_t trace = fleet->publishes().size();
  experiments::ParallelRunner runner(kWorkers);

  std::uint64_t expected_touches = 0;
  for (const experiments::PublishEvent& publish : fleet->publishes()) {
    expected_touches += fleet->population().topic_subscriber_count(publish.topic);
  }
  std::optional<experiments::FleetOutcome> first;
  const auto run_once = [&] {
    experiments::FleetOutcome outcome = fleet->run(runner);
    result.attempted += trace;
    if (!first) {
      first = std::move(outcome);
    } else {
      result.check(outcome.digest == first->digest,
                   "every run of the fleet has the same digest");
    }
  };

  if (!options.trace) {
    const std::vector<Timed> runs = window(options, runner, run_once);
    const FleetFigures f = figures(*first, trace);
    report_end_to_end(result, setup_s, runs, f);

    result.check(first->deliveries + first->overflow_drops == expected_touches,
                 "deliveries + overflow drops = subscriber touches of the trace");
    result.check(f.drained <= f.deliveries, "drained <= delivered");
    experiments::ParallelRunner one_worker(1);
    result.check(fleet->run(one_worker).digest == first->digest,
                 "the digest is identical at 1 and " +
                     std::to_string(kWorkers) + " workers");
    return result;
  }

  result.metric("workload.trace_s", draw_seconds(config), "s");
  result.metric("experiments.construct_s", setup_s, "s");
  SpanRecorder recorder;
  const std::uint32_t span_name = recorder.intern("experiments.fleet.run");
  std::vector<Timed> untraced, traced;
  run_once();  // warm-up: the first run after construction faults pages in
  for (int r = 0; r < kTracedRepeats; ++r) {
    untraced.push_back(timed(runner, run_once));
    traced.push_back(timed(runner, [&] {
      ScopedSpan span(&recorder, span_name);
      run_once();
    }));
  }
  std::uint64_t batches = 0;
  for (const experiments::ShardOutcome& shard : first->shards) batches += shard.batches;
  report_fleet_layers(result, traced, first->deliveries, batches, true);
  result.metric("experiments.fleet.delivery_imbalance", first->delivery_imbalance,
                "ratio");
  result.metric("sim.events_per_publish",
                static_cast<double>(first->events_fired) /
                    static_cast<double>(trace),
                "count");
  result.metric("storage.wal.records_per_publish",
                static_cast<double>(first->wal_records) /
                    static_cast<double>(trace),
                "count");
  result.metric("trace_overhead_pct", overhead_pct(traced, untraced), "%");

  // Ablation: the same fleet with forward journaling off.
  experiments::FleetConfig no_wal_config = config;
  no_wal_config.journal_forwards = false;
  fleet.reset();
  fleet.emplace(no_wal_config);
  std::vector<Timed> no_wal;
  for (int r = 0; r < kTracedRepeats; ++r) {
    no_wal.push_back(timed(runner, [&] { fleet->run(runner); }));
  }
  const double with_wal = median_seconds(untraced);
  result.metric("storage.fleet_wal_share",
                (with_wal - median_seconds(no_wal)) / with_wal, "fraction");
  write_spans(options, recorder);
  return result;
}

Result run_elastic_resize(const Options& options) {
  Result result;
  const experiments::ElasticFleetConfig config = elastic_config(options.seed);
  std::optional<experiments::ElasticFleet> fleet;
  const double setup_s = construct(fleet, config, kElasticSetups);
  const std::uint64_t trace = fleet->publishes().size();
  experiments::ParallelRunner runner(kWorkers);

  std::optional<experiments::ElasticOutcome> first;
  const auto run_once = [&] {
    experiments::InvariantMonitor monitor;
    experiments::ElasticOutcome outcome = fleet->run(runner, {}, &monitor);
    result.attempted += trace;
    result.failed += outcome.admission_rejected + outcome.fanout_shed_batches;
    result.check(monitor.ok(), "the invariant monitor saw no violation");
    result.check(outcome.resizes_applied == 2, "both resizes were applied");
    result.check(outcome.seq_violations == 0, "no sequence violation");
    if (!first) {
      first = std::move(outcome);
    } else {
      result.check(outcome.digest == first->digest,
                   "every run of the fleet has the same digest");
    }
  };

  // The same trace on a fleet that never resizes.
  experiments::ElasticFleetConfig fixed_config = config;
  fixed_config.resizes.clear();

  if (!options.trace) {
    const std::vector<Timed> runs = window(options, runner, run_once);
    report_end_to_end(result, setup_s, runs, figures(*first, trace));

    experiments::ParallelRunner one_worker(1);
    const experiments::ElasticOutcome fixed =
        experiments::ElasticFleet(fixed_config).run(one_worker);
    result.check(fixed.digest == first->digest,
                 "the resized run's digest equals a fixed fleet's (1 worker)");
    result.check(fixed.overflow_drops == first->overflow_drops &&
                     fixed.deliveries == first->deliveries,
                 "drops and deliveries are identical at 1 and " +
                     std::to_string(kWorkers) + " workers");
    return result;
  }

  result.metric("workload.trace_s", draw_seconds(config.base), "s");
  result.metric("experiments.construct_s", setup_s, "s");
  SpanRecorder recorder;
  const std::uint32_t span_name = recorder.intern("experiments.fleet.run");
  std::vector<Timed> untraced, traced, fixed_runs;
  const experiments::ElasticFleet fixed_fleet(fixed_config);
  for (int r = 0; r < kTracedRepeats; ++r) {
    untraced.push_back(timed(runner, run_once));
    traced.push_back(timed(runner, [&] {
      ScopedSpan span(&recorder, span_name);
      run_once();
    }));
    fixed_runs.push_back(timed(runner, [&] { fixed_fleet.run(runner); }));
  }
  const experiments::ElasticOutcome& o = *first;
  report_fleet_layers(result, traced, o.deliveries, o.batches, false);
  result.metric("storage.wal.records_per_publish",
                static_cast<double>(o.wal_records) / static_cast<double>(trace),
                "count");
  result.metric("storage.snapshots", static_cast<double>(o.snapshots), "count");
  result.metric("experiments.migration.count",
                static_cast<double>(o.migrations_done), "count");
  result.metric("experiments.migration.host_ms_per_topic",
                1e3 * (median_seconds(untraced) - median_seconds(fixed_runs)) /
                    static_cast<double>(o.migrations_done),
                "ms");
  result.metric("experiments.migration.retries",
                static_cast<double>(o.migration_retries), "count");
  result.metric("experiments.migration.rolled_back",
                static_cast<double>(o.migrations_rolled_back), "count");
  result.metric("experiments.migration.journal_appends",
                static_cast<double>(o.journal_appends), "count");
  result.metric("trace_overhead_pct", overhead_pct(traced, untraced), "%");
  write_spans(options, recorder);
  return result;
}

}  // namespace perfbench
