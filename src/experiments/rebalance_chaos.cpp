#include "experiments/rebalance_chaos.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "experiments/parallel_runner.h"

namespace waif::experiments {

void add_storm(const ChaosFault& fault, const ElasticFleetConfig& config,
               std::vector<PublishEvent>* out) {
  Rng rng(fault.seed ^ 0x5709Cull);
  const std::size_t topics = std::max<std::size_t>(
      config.base.population.topics, 1);
  for (std::uint64_t i = 0; i < fault.param; ++i) {
    PublishEvent event;
    event.time = fault.at + static_cast<SimTime>(i) * kSecond;
    if (event.time >= config.base.horizon) break;
    event.topic = static_cast<std::uint32_t>(i % topics);
    event.rank = config.base.rank_lo +
                 (config.base.rank_hi - config.base.rank_lo) *
                     rng.next_double();
    out->push_back(event);
  }
}

void sort_resizes(std::vector<ElasticResize>* resizes) {
  std::stable_sort(resizes->begin(), resizes->end(),
                   [](const ElasticResize& a, const ElasticResize& b) {
                     return a.at < b.at;
                   });
  std::vector<ElasticResize> merged;
  merged.reserve(resizes->size());
  for (const ElasticResize& resize : *resizes) {
    if (!merged.empty() && merged.back().at == resize.at) {
      merged.back() = resize;
    } else {
      merged.push_back(resize);
    }
  }
  *resizes = std::move(merged);
}

ElasticFleetConfig rebalance_fleet_config(const ChaosSchedule& schedule) {
  ElasticFleetConfig config;
  config.base.shards = 4;
  config.base.population.devices = 1200;
  config.base.population.topics = 96;
  config.base.publishes = 4096;
  config.base.horizon = schedule.horizon;
  config.base.seed = schedule.seed;
  config.checkpoints = 24;
  // Stretched protocol steps give migrations real hold windows (minutes,
  // not milliseconds), so rebalance chaos exercises the hold-then-drain
  // path against live traffic.
  config.migration.ship_latency = 10 * kMinute;
  config.migration.replay_latency = 5 * kMinute;
  config.migration.checkpoint_latency = 5 * kMinute;
  return config;
}

RebalanceChaosOutcome run_rebalance_chaos(const ChaosSchedule& schedule) {
  validate_chaos(schedule);
  RebalanceChaosOutcome result;
  ElasticFleetConfig config = rebalance_fleet_config(schedule);
  ElasticFaults faults;

  for (const ChaosFault& fault : schedule.faults) {
    switch (fault.kind) {
      case ChaosFaultKind::kRebalance: {
        if (fault.at >= config.base.horizon) {
          // Shrunk schedules can push a rebalance past the run; the
          // ElasticFleet constructor rejects such instants, so skip it.
          ++result.faults_skipped;
          break;
        }
        config.resizes.push_back(
            {fault.at, static_cast<std::size_t>(fault.param)});
        const SimTime back = fault.at + fault.duration;
        if (back < config.base.horizon) {
          config.resizes.push_back({back, config.base.shards});
        }
        if (fault.magnitude > 0.0) {
          faults.storage_windows.push_back(
              {fault.at, fault.at + fault.duration, fault.magnitude});
        }
        ++result.faults_applied;
        break;
      }
      case ChaosFaultKind::kStorageFault:
        faults.storage_windows.push_back(
            {fault.at, fault.at + fault.duration, fault.magnitude});
        ++result.faults_applied;
        break;
      case ChaosFaultKind::kCrashActive:
        faults.node_crashes.push_back(
            {fault.at,
             static_cast<std::uint32_t>(fault.seed % config.base.shards)});
        ++result.faults_applied;
        break;
      case ChaosFaultKind::kCrashAtRecord:
        faults.record_crashes.push_back(
            {static_cast<std::uint32_t>(fault.seed % config.base.shards),
             std::max<std::uint64_t>(fault.param, 1)});
        ++result.faults_applied;
        break;
      case ChaosFaultKind::kStorm:
        add_storm(fault, config, &config.extra_publishes);
        ++result.faults_applied;
        break;
      case ChaosFaultKind::kLinkFault:
      case ChaosFaultKind::kOutage:
      case ChaosFaultKind::kDeviceStall:
      case ChaosFaultKind::kAutoscale:
        // The elastic fanout has no faulty last hop, and autoscale faults
        // belong to the controller harness (autoscale_chaos.h); these
        // injectors stay with their own runners.
        ++result.faults_skipped;
        break;
    }
  }
  sort_resizes(&config.resizes);

  ParallelRunner runner(1);
  InvariantMonitor monitor;
  result.elastic = ElasticFleet(config).run(runner, faults, &monitor);
  result.violations = monitor.violations();

  // The acceptance bar: same trace (storms included), fixed base fleet,
  // no faults — byte-identical delivery digest.
  ElasticFleetConfig fixed = config;
  fixed.resizes.clear();
  result.baseline_digest = ElasticFleet(fixed).run(runner).digest;
  if (result.elastic.digest != result.baseline_digest) {
    result.violations.push_back(
        {"rebalance-digest",
         "elastic digest " + std::to_string(result.elastic.digest) +
             " != fixed-topology baseline " +
             std::to_string(result.baseline_digest),
         schedule.horizon});
  }
  return result;
}

}  // namespace waif::experiments
