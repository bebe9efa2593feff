#include "experiments/elastic_chaos.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/rng.h"
#include "experiments/parallel_runner.h"
#include "storage/backend.h"

namespace waif::experiments {

namespace {

/// The fleet of a schedule without an autoscale fault (small enough that a
/// 36-seed sweep stays interactive).
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
  // not milliseconds), so chaos exercises the hold-then-drain path against
  // live traffic.
  config.migration.ship_latency = 10 * kMinute;
  config.migration.replay_latency = 5 * kMinute;
  config.migration.fold_latency = 5 * kMinute;
  return config;
}

/// Extra publishes for one storm fault: `param` events from `at`, one per
/// second, round-robin across the topics, ranks drawn from the fault's own
/// seed. Sequence numbers are left zero — the ElasticFleet constructor
/// re-sequences the merged trace.
void add_storm(const ChaosFault& fault, ElasticFleetConfig* config) {
  Rng rng(fault.seed ^ 0x5709Cull);
  const FleetConfig& base = config->base;
  const std::size_t topics = std::max<std::size_t>(base.population.topics, 1);
  for (std::uint64_t i = 0; i < fault.param; ++i) {
    PublishEvent event;
    event.time = fault.at + static_cast<SimTime>(i) * kSecond;
    if (event.time >= base.horizon) break;
    event.topic = static_cast<std::uint32_t>(i % topics);
    event.rank =
        base.rank_lo + (base.rank_hi - base.rank_lo) * rng.next_double();
    config->extra_publishes.push_back(event);
  }
}

/// The flash crowd behind one autoscale fault: `param` publishes on one
/// seeded topic packed into the fault window.
void add_flash_crowd(const ChaosFault& fault, ElasticFleetConfig* config) {
  const FleetConfig& base = config->base;
  workload::FlashCrowdConfig crowd;
  crowd.topic = static_cast<std::uint32_t>(
      fault.seed % std::max<std::size_t>(base.population.topics, 1));
  crowd.at = fault.at;
  crowd.duration = std::max<SimDuration>(fault.duration, kMinute);
  crowd.events = fault.param;
  crowd.rank_lo = base.rank_lo;
  crowd.rank_hi = base.rank_hi;
  crowd.seed = fault.seed;
  for (const workload::StressEvent& spike : draw_flash_crowd(crowd)) {
    if (spike.time >= base.horizon) break;
    config->extra_publishes.push_back({spike.time, spike.topic, spike.rank, 0});
  }
}

/// Orders `resizes` by instant. Shrunk schedules can land two resizes on
/// the same instant and the fleet demands strictly increasing instants, so
/// the last one drawn for an instant wins, as applying them in order would.
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

/// Maps one fault onto `config` and `faults` (the table in elastic_chaos.h);
/// false when the fault is skipped.
bool map_fault(const ChaosFault& fault, ElasticFleetConfig* config,
               ElasticFaults* faults) {
  const SimTime horizon = config->base.horizon;
  const std::size_t shards = config->base.shards;
  switch (fault.kind) {
    case ChaosFaultKind::kRebalance: {
      // Shrunk schedules can push a resize past the run; the ElasticFleet
      // constructor rejects such instants, so skip it.
      if (fault.at >= horizon) return false;
      const SimTime back = fault.at + fault.duration;
      config->resizes.push_back(
          {fault.at, static_cast<std::size_t>(fault.param)});
      if (back < horizon) config->resizes.push_back({back, shards});
      if (fault.magnitude > 0.0) {
        faults->storage_windows.push_back({fault.at, back, fault.magnitude});
      }
      return true;
    }
    case ChaosFaultKind::kStorageFault:
      faults->storage_windows.push_back(
          {fault.at, fault.at + fault.duration, fault.magnitude});
      return true;
    case ChaosFaultKind::kCrashActive:
      faults->node_crashes.push_back(
          {fault.at, static_cast<std::uint32_t>(fault.seed % shards)});
      return true;
    case ChaosFaultKind::kCrashAtRecord:
      faults->record_crashes.push_back(
          {static_cast<std::uint32_t>(fault.seed % shards),
           std::max<std::uint64_t>(fault.param, 1)});
      return true;
    case ChaosFaultKind::kStorm:
      add_storm(fault, config);
      return true;
    case ChaosFaultKind::kDeviceStall:
      config->cell_outages.push_back(
          {fault.seed, fault.magnitude, fault.at, fault.at + fault.duration});
      return true;
    case ChaosFaultKind::kAutoscale:
      if (fault.at >= horizon) return false;
      add_flash_crowd(fault, config);
      if (fault.magnitude > 0.0) {
        faults->storage_windows.push_back(
            {fault.at, fault.at + std::max<SimDuration>(fault.duration, kMinute),
             fault.magnitude});
      }
      return true;
    case ChaosFaultKind::kLinkFault:
    case ChaosFaultKind::kOutage:
      // The elastic fanout has no faulty last hop.
      return false;
  }
  return false;
}

/// Re-parses the controller's journal blob; true when it holds exactly
/// `decisions`. `replayed` receives the number of events it parsed.
bool journal_round_trips(const std::vector<std::uint8_t>& blob,
                         const std::vector<AutoscaleEvent>& decisions,
                         std::uint64_t* replayed) {
  std::vector<AutoscaleEvent> events;
  bool parse_ok = true;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= blob.size(); ++i) {
    if (i != blob.size() && blob[i] != '\n') continue;
    if (i > start) {
      AutoscaleEvent event;
      const std::string_view line(
          reinterpret_cast<const char*>(blob.data()) + start, i - start);
      if (parse_autoscale_event(line, &event)) {
        events.push_back(event);
      } else {
        parse_ok = false;
      }
    }
    start = i + 1;
  }
  *replayed = events.size();
  return parse_ok && events == decisions;
}

}  // namespace

ElasticFleetConfig autoscale_fleet_config(const ChaosSchedule& schedule) {
  ElasticFleetConfig config = rebalance_fleet_config(schedule);
  config.base.shards = 3;
  // Twice the rebalance fleet's checkpoint density: the controller only
  // sees the fleet at boundaries, and a flash crowd should span several.
  config.checkpoints = 48;
  // Capacity sized so the calm trace idles (~0.5 work-units/s per node
  // against 5/s of service) while a drawn flash crowd (hundreds of
  // publishes at ~100 subscriber-deliveries each) saturates its owner for
  // hours — a real occupancy signal, not noise.
  config.capacity.fanout_per_sec = 5.0;
  config.capacity.backlog_budget = 6000;
  config.capacity.admission_high = 4800;
  config.capacity.admission_low = 1200;
  return config;
}

AutoscalerConfig autoscale_controller_config(const ChaosSchedule& schedule) {
  AutoscalerConfig config;
  config.min_shards = 3;
  config.max_shards = 6;
  config.grow_step = 1;
  config.shrink_step = 1;
  config.grow_dwell = 1;
  config.shrink_dwell = 3;
  config.resize_tokens = 3;
  config.token_refill_checkpoints = 8;
  // Moving ~24 topics at the measured 1250 ms/topic charges ~30 s per
  // grow; five minutes bounds the run to a handful of resizes however hard
  // the signals push.
  config.pause_budget = 5 * kMinute;
  // One checkpoint interval between a grow and a shrink (or vice versa);
  // the monitor's resize_min_dwell is armed at the same value, so the
  // controller satisfies the no-thrash invariant by construction.
  config.flip_dwell = schedule.horizon / 24;
  return config;
}

ElasticChaosOutcome run_elastic_chaos(const ChaosSchedule& schedule) {
  validate_chaos(schedule);
  ElasticChaosOutcome result;
  const bool autoscales = std::any_of(
      schedule.faults.begin(), schedule.faults.end(),
      [](const ChaosFault& fault) {
        return fault.kind == ChaosFaultKind::kAutoscale;
      });
  ElasticFleetConfig config = autoscales ? autoscale_fleet_config(schedule)
                                         : rebalance_fleet_config(schedule);
  ElasticFaults faults;
  for (const ChaosFault& fault : schedule.faults) {
    ++(map_fault(fault, &config, &faults) ? result.faults_applied
                                          : result.faults_skipped);
  }
  sort_resizes(&config.resizes);

  // With an autoscale fault the controller closes the loop, journaling
  // every decision, and the monitor holds its resizes to the no-thrash
  // bounds.
  std::optional<AutoscalerController> controller;
  storage::MemBackend journal_backend;
  const std::string journal_blob = "autoscale.journal";
  InvariantMonitor::Expectations expectations;
  if (autoscales) {
    const AutoscalerConfig loop = autoscale_controller_config(schedule);
    controller.emplace(loop);
    controller->attach_journal(&journal_backend, journal_blob);
    expectations.resize_min_dwell = loop.flip_dwell;
    // Token-bucket arithmetic bounds controller resizes: the bank plus
    // every possible refill, with slack for the extra boundaries resizes
    // create.
    expectations.max_resizes =
        loop.resize_tokens +
        static_cast<std::uint64_t>(config.checkpoints) /
            std::max<std::size_t>(loop.token_refill_checkpoints, 1) +
        3;
  }
  InvariantMonitor monitor(expectations);
  ParallelRunner runner(1);
  result.elastic = ElasticFleet(config).run(
      runner, faults, &monitor, controller ? &*controller : nullptr);
  result.violations = monitor.violations();
  if (controller) {
    result.decisions = controller->events();
    std::vector<std::uint8_t> blob;
    journal_backend.read(journal_blob, &blob);
    if (!journal_round_trips(blob, result.decisions, &result.journal_events)) {
      result.violations.push_back(
          {"autoscale-journal",
           "journal replays " + std::to_string(result.journal_events) +
               " decision(s) but the controller recorded " +
               std::to_string(result.decisions.size()),
           schedule.horizon});
    }
  }

  // The acceptance bar: same trace (storms, spikes and cell outages
  // included), fixed base fleet, no faults, no controller.
  ElasticFleetConfig fixed = config;
  fixed.resizes.clear();
  const ElasticOutcome baseline = ElasticFleet(fixed).run(runner);
  result.baseline_digest = baseline.digest;
  const auto clean = [](const ElasticOutcome& outcome) {
    return outcome.fanout_shed_batches == 0 && outcome.admission_rejected == 0;
  };
  result.digest_checked = clean(result.elastic) && clean(baseline);
  if (result.digest_checked && result.elastic.digest != baseline.digest) {
    result.violations.push_back(
        {"elastic-digest",
         "elastic digest " + std::to_string(result.elastic.digest) +
             " != fixed-topology baseline " + std::to_string(baseline.digest),
         schedule.horizon});
  }
  return result;
}

}  // namespace waif::experiments
