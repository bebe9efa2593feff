// The closed-loop autoscaler headline bench: the same capacity-armed
// elastic fleet replayed under two storm traces — a two-peak diurnal day
// and a single-topic flash crowd — under four provisioning policies:
//
//   * auto     — the AutoscalerController closing the loop (hysteresis,
//                token bucket, pause charging, degradation ladder), racing
//   * oracle   — a hand-tuned resize schedule that knows where the peaks
//                are (the upper bound a controller can aspire to),
//   * static3  — never resize, provisioned for the trough (minimum waste,
//                maximum loss), and
//   * static6  — never resize, provisioned for the peak (minimum loss,
//                maximum waste).
//
// Every metric is a simulated-time fact — byte-identical at any --jobs —
// so the CI gate compares real control quality, not runner hardware:
//
//   * charged_eps_<trace>_<policy> — pause-charged delivery throughput:
//     deliveries scaled down by the fraction of topic-time the policy's
//     migrations paused (the measured 1250 ms/topic profile is what the
//     controller charges itself against), per simulated second;
//   * loss_units_<trace>_<policy> — work units shed or turned away at the
//     admission gate (the paper's volume-limit violations);
//   * shard_hours_<trace>_<policy> — provisioned shard-hours (waste);
//   * resizes_diurnal_auto — controller resize count, gated as an absolute
//     ceiling (the no-thrash bound made a number).
//
// The acceptance bars are enforced inline (the binary aborts otherwise):
// the controller's charged throughput stays within 10% of the oracle's, it
// strictly beats never-resize-at-trough on loss and never-resize-at-peak
// on waste on the diurnal trace, its resize count stays bounded, and the
// invariant monitor (no-thrash armed) is silent for every run.
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/flags.h"
#include "experiments/autoscaler.h"
#include "experiments/elastic_chaos.h"
#include "experiments/elastic_fleet.h"
#include "workload/stressors.h"

using namespace waif;

namespace {

/// The shared base: the elastic chaos harness's capacity-armed fleet (3
/// shards that may grow to 6, occupancy a real signal) over one simulated
/// day.
experiments::ElasticFleetConfig base_config() {
  experiments::ChaosSchedule schedule;
  schedule.seed = 1;
  schedule.horizon = kDay;
  return experiments::autoscale_fleet_config(schedule);
}

experiments::AutoscalerConfig controller_config() {
  experiments::ChaosSchedule schedule;
  schedule.seed = 1;
  schedule.horizon = kDay;
  return experiments::autoscale_controller_config(schedule);
}

/// The two-peak day: extra publishes drawn by the diurnal profile on top of
/// the stationary base trace.
std::vector<experiments::PublishEvent> diurnal_trace() {
  workload::DiurnalConfig diurnal;
  diurnal.events = 12000;
  diurnal.horizon = kDay;
  diurnal.topics = 96;
  diurnal.amplitude = 4.0;
  diurnal.seed = 3;
  std::vector<experiments::PublishEvent> extra;
  for (const workload::StressEvent& event : draw_diurnal(diurnal)) {
    extra.push_back({event.time, event.topic, event.rank, 0});
  }
  return extra;
}

/// The flash crowd: one topic spikes ~1000x its base rate for two hours.
std::vector<experiments::PublishEvent> flash_trace() {
  workload::FlashCrowdConfig crowd;
  crowd.topic = 7;
  crowd.at = 8 * kHour;
  crowd.duration = 2 * kHour;
  crowd.events = 2500;
  crowd.seed = 5;
  std::vector<experiments::PublishEvent> extra;
  for (const workload::StressEvent& event : draw_flash_crowd(crowd)) {
    extra.push_back({event.time, event.topic, event.rank, 0});
  }
  return extra;
}

struct PolicyResult {
  experiments::ElasticOutcome outcome;
  /// Applied topology steps {at, shards} for the waste integral.
  std::vector<std::pair<SimTime, std::size_t>> steps;
  std::size_t start_shards = 3;
  bool monitor_ok = true;
  std::size_t decisions = 0;
};

/// Provisioned shard-hours: the integral of the shard count over the day.
double shard_hours(const PolicyResult& result, SimTime horizon) {
  double hours = 0.0;
  SimTime prev = 0;
  std::size_t shards = result.start_shards;
  for (const auto& [at, target] : result.steps) {
    hours += static_cast<double>(shards) * static_cast<double>(at - prev) /
             static_cast<double>(kHour);
    prev = at;
    shards = target;
  }
  hours += static_cast<double>(shards) * static_cast<double>(horizon - prev) /
           static_cast<double>(kHour);
  return hours;
}

/// Pause-charged throughput: deliveries per simulated second, scaled down
/// by the fraction of topic-time the policy's migrations paused.
double charged_eps(const experiments::ElasticOutcome& outcome,
                   const experiments::ElasticFleetConfig& config) {
  const double topic_time =
      static_cast<double>(config.base.population.topics) *
      static_cast<double>(config.base.horizon);
  const double pause_fraction =
      topic_time > 0.0 ? static_cast<double>(outcome.total_pause) / topic_time
                       : 0.0;
  const double seconds =
      static_cast<double>(config.base.horizon) / static_cast<double>(kSecond);
  return static_cast<double>(outcome.deliveries) * (1.0 - pause_fraction) /
         seconds;
}

std::uint64_t loss_units(const experiments::ElasticOutcome& outcome) {
  return outcome.fanout_shed_units + outcome.rejected_units;
}

PolicyResult run_static(experiments::ParallelRunner& runner,
                        const experiments::ElasticFleetConfig& config,
                        std::size_t shards) {
  experiments::ElasticFleetConfig fixed = config;
  fixed.base.shards = shards;
  fixed.resizes.clear();
  PolicyResult result;
  result.start_shards = shards;
  experiments::InvariantMonitor monitor;
  result.outcome = experiments::ElasticFleet(fixed).run(runner, {}, &monitor);
  result.monitor_ok = monitor.ok();
  return result;
}

PolicyResult run_oracle(experiments::ParallelRunner& runner,
                        const experiments::ElasticFleetConfig& config,
                        const std::vector<experiments::ElasticResize>& plan) {
  experiments::ElasticFleetConfig scheduled = config;
  scheduled.resizes = plan;
  PolicyResult result;
  for (const experiments::ElasticResize& resize : plan) {
    result.steps.push_back({resize.at, resize.shards});
  }
  experiments::InvariantMonitor monitor;
  result.outcome =
      experiments::ElasticFleet(scheduled).run(runner, {}, &monitor);
  result.monitor_ok = monitor.ok();
  return result;
}

PolicyResult run_auto(experiments::ParallelRunner& runner,
                      const experiments::ElasticFleetConfig& config) {
  const experiments::AutoscalerConfig autoscaler = controller_config();
  experiments::AutoscalerController controller(autoscaler);

  // The no-thrash invariant armed exactly as the chaos tier arms it: the
  // controller's own flip dwell, and the token-bucket resize bound.
  experiments::InvariantMonitor::Expectations expectations;
  expectations.resize_min_dwell = autoscaler.flip_dwell;
  expectations.max_resizes =
      autoscaler.resize_tokens +
      static_cast<std::uint64_t>(config.checkpoints) /
          std::max<std::size_t>(autoscaler.token_refill_checkpoints, 1) +
      3;
  experiments::InvariantMonitor monitor(expectations);

  PolicyResult result;
  result.outcome =
      experiments::ElasticFleet(config).run(runner, {}, &monitor, &controller);
  result.monitor_ok = monitor.ok();
  result.decisions = controller.events().size();
  for (const experiments::AutoscaleEvent& event : controller.events()) {
    if (event.decision == experiments::AutoscaleDecision::kGrow ||
        event.decision == experiments::AutoscaleDecision::kShrink) {
      result.steps.push_back({event.at, event.shards_after});
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t jobs = 0;
  FlagSet flags(
      "closed-loop autoscaler race — controller vs hand-tuned oracle vs "
      "never-resize on a diurnal day and a flash crowd; every metric is a "
      "simulated-time fact, byte-identical at any --jobs");
  flags.add_int("jobs", &jobs,
                "sweep worker threads (0 = all hardware threads)", 0, 4096);
  if (!flags.parse(argc - 1, argv + 1)) return 1;

  bench::BenchReport report("scale_autoscale");
  experiments::ParallelRunner runner(static_cast<std::size_t>(jobs));

  metrics::Table table(
      "Closed-loop autoscaler — capacity-armed elastic fleet (3..6 shards), "
      "one simulated day;\ncontroller vs oracle vs static provisioning on "
      "diurnal and flash-crowd traces",
      "trace / policy",
      {"deliveries", "loss_units", "shard_hours", "resizes", "pause_ms",
       "charged_eps"});
  table.set_precision(0);

  struct TraceSpec {
    const char* key;
    std::vector<experiments::PublishEvent> extra;
    std::vector<experiments::ElasticResize> oracle_plan;
  };
  // Oracle plans sit on checkpoint boundaries (kDay / 48 = 30 min steps)
  // around the known peaks: 9h and 20h for the diurnal profile, 8h..10h for
  // the flash window.
  TraceSpec traces[] = {
      {"diurnal",
       diurnal_trace(),
       {{7 * kHour, 6}, {12 * kHour, 3}, {18 * kHour, 6}, {23 * kHour, 3}}},
      {"flash",
       flash_trace(),
       {{7 * kHour + 30 * kMinute, 6}, {11 * kHour, 3}}},
  };

  for (TraceSpec& trace : traces) {
    experiments::ElasticFleetConfig config = base_config();
    config.extra_publishes = trace.extra;

    PolicyResult automatic = run_auto(runner, config);
    PolicyResult oracle = run_oracle(runner, config, trace.oracle_plan);
    PolicyResult static3 = run_static(runner, config, 3);
    PolicyResult static6 = run_static(runner, config, 6);

    const struct {
      const char* name;
      PolicyResult* result;
    } policies[] = {{"auto", &automatic},
                    {"oracle", &oracle},
                    {"static3", &static3},
                    {"static6", &static6}};

    for (const auto& policy : policies) {
      // Every run — controller-driven or not — must satisfy the full
      // invariant monitor (single owner, routing conservation, no-thrash).
      WAIF_CHECK(policy.result->monitor_ok);
      WAIF_CHECK(policy.result->outcome.seq_violations == 0);

      const double eps = charged_eps(policy.result->outcome, config);
      const double hours = shard_hours(*policy.result, config.base.horizon);
      const std::uint64_t loss = loss_units(policy.result->outcome);
      table.add_row(
          std::string(trace.key) + " " + policy.name,
          {static_cast<double>(policy.result->outcome.deliveries),
           static_cast<double>(loss), hours,
           static_cast<double>(policy.result->outcome.resizes_applied),
           static_cast<double>(policy.result->outcome.total_pause) /
               static_cast<double>(kMillisecond),
           eps});

      const std::string suffix =
          std::string("_") + trace.key + "_" + policy.name;
      report.metric("charged_eps" + suffix, eps);
      report.metric("loss_units" + suffix, static_cast<double>(loss));
      report.metric("shard_hours" + suffix, hours);
    }
    report.metric(std::string("resizes_") + trace.key + "_auto",
                  static_cast<double>(automatic.outcome.resizes_applied));

    // Deterministic digest lines for the --jobs 1 vs N diff.
    std::printf(
        "digest: %s auto shed=%llu rejected=%llu resizes=%llu "
        "decisions=%llu pause_ms=%lld\n",
        trace.key,
        static_cast<unsigned long long>(
            automatic.outcome.fanout_shed_units),
        static_cast<unsigned long long>(automatic.outcome.rejected_units),
        static_cast<unsigned long long>(automatic.outcome.resizes_applied),
        static_cast<unsigned long long>(automatic.decisions),
        static_cast<long long>(automatic.outcome.total_pause /
                               kMillisecond));

    // The acceptance bars.
    const double auto_eps = charged_eps(automatic.outcome, config);
    const double oracle_eps = charged_eps(oracle.outcome, config);
    WAIF_CHECK(auto_eps >= 0.9 * oracle_eps);
    WAIF_CHECK(loss_units(automatic.outcome) <= loss_units(static3.outcome));
    if (std::string(trace.key) == "diurnal") {
      // The diurnal day is the bread-and-butter case: the controller must
      // strictly beat trough provisioning on loss AND peak provisioning on
      // waste, with a bounded resize count.
      WAIF_CHECK(loss_units(automatic.outcome) <
                 loss_units(static3.outcome));
      WAIF_CHECK(shard_hours(automatic, config.base.horizon) <
                 shard_hours(static6, config.base.horizon));
      WAIF_CHECK(automatic.outcome.resizes_applied <= 12);
    } else {
      WAIF_CHECK(automatic.outcome.resizes_applied <= 8);
    }
  }

  bench::report_sweep(runner, report);
  bench::emit(
      table,
      "the closed-loop controller lands within 10% of the hand-tuned "
      "oracle's pause-charged throughput on both traces, strictly beats "
      "trough provisioning on loss and peak provisioning on shard-hours on "
      "the diurnal day, and stays inside the no-thrash resize bound — with "
      "the invariant monitor silent for every run (the binary aborts "
      "otherwise).");
  report.write();
  return 0;
}
