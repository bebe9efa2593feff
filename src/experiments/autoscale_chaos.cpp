#include "experiments/autoscale_chaos.h"

#include <algorithm>
#include <string>
#include <utility>

#include "experiments/parallel_runner.h"
#include "experiments/rebalance_chaos.h"
#include "storage/backend.h"

namespace waif::experiments {

namespace {

/// The flash crowd behind one autoscale fault: `param` publishes on one
/// seeded topic packed into the fault window, merged into BOTH the
/// controller run and the fixed baseline.
void add_flash_crowd(const ChaosFault& fault, const ElasticFleetConfig& config,
                     std::vector<PublishEvent>* out) {
  workload::FlashCrowdConfig crowd;
  crowd.topic = static_cast<std::uint32_t>(
      fault.seed % std::max<std::size_t>(config.base.population.topics, 1));
  crowd.at = fault.at;
  crowd.duration = std::max<SimDuration>(fault.duration, kMinute);
  crowd.events = fault.param;
  crowd.rank_lo = config.base.rank_lo;
  crowd.rank_hi = config.base.rank_hi;
  crowd.seed = fault.seed;
  for (const workload::StressEvent& spike : draw_flash_crowd(crowd)) {
    if (spike.time >= config.base.horizon) break;
    out->push_back({spike.time, spike.topic, spike.rank, 0});
  }
}

}  // namespace

ElasticFleetConfig autoscale_fleet_config(const ChaosSchedule& schedule) {
  ElasticFleetConfig config;
  config.base.shards = 3;
  config.base.population.devices = 1200;
  config.base.population.topics = 96;
  config.base.publishes = 4096;
  config.base.horizon = schedule.horizon;
  config.base.seed = schedule.seed;
  // Twice the rebalance-chaos checkpoint density: the controller only sees
  // the fleet at boundaries, and a flash crowd should span several.
  config.checkpoints = 48;
  config.migration.ship_latency = 10 * kMinute;
  config.migration.replay_latency = 5 * kMinute;
  config.migration.checkpoint_latency = 5 * kMinute;
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

AutoscaleChaosOutcome run_autoscale_chaos(const ChaosSchedule& schedule) {
  validate_chaos(schedule);
  AutoscaleChaosOutcome result;
  ElasticFleetConfig config = autoscale_fleet_config(schedule);
  ElasticFaults faults;

  for (const ChaosFault& fault : schedule.faults) {
    switch (fault.kind) {
      case ChaosFaultKind::kAutoscale:
        if (fault.at >= config.base.horizon) {
          ++result.faults_skipped;
          break;
        }
        add_flash_crowd(fault, config, &config.extra_publishes);
        if (fault.magnitude > 0.0) {
          // The storm's cruelty: migration storage faults for the same
          // window, so the controller's reaction to the spike is exactly
          // what the degradation ladder exists for.
          faults.storage_windows.push_back(
              {fault.at, fault.at + std::max<SimDuration>(fault.duration,
                                                          kMinute),
               fault.magnitude});
        }
        ++result.faults_applied;
        break;
      case ChaosFaultKind::kRebalance: {
        if (fault.at >= config.base.horizon) {
          ++result.faults_skipped;
          break;
        }
        config.resizes.push_back(
            {fault.at, static_cast<std::size_t>(fault.param)});
        const SimTime back = fault.at + fault.duration;
        if (back < config.base.horizon) {
          config.resizes.push_back({back, config.base.shards});
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
      case ChaosFaultKind::kDeviceStall:
        // A correlated cell outage: the stalled fraction of the population
        // freezes its drains and feeds the breaker-open health signal.
        config.cell_outages.push_back(
            {fault.seed, fault.magnitude, fault.at, fault.at + fault.duration});
        ++result.faults_applied;
        break;
      case ChaosFaultKind::kLinkFault:
      case ChaosFaultKind::kOutage:
        // The elastic fanout has no faulty last hop; these injectors stay
        // with run_chaos proper.
        ++result.faults_skipped;
        break;
    }
  }
  sort_resizes(&config.resizes);

  const AutoscalerConfig controller_config =
      autoscale_controller_config(schedule);
  AutoscalerController controller(controller_config);
  storage::MemBackend journal_backend;
  const std::string journal_blob = "autoscale.journal";
  controller.attach_journal(&journal_backend, journal_blob);

  InvariantMonitor::Expectations expectations;
  expectations.resize_min_dwell = controller_config.flip_dwell;
  // Token-bucket arithmetic bounds controller resizes: the bank plus every
  // possible refill, with slack for the extra boundaries resizes create.
  expectations.max_resizes =
      controller_config.resize_tokens +
      static_cast<std::uint64_t>(config.checkpoints) /
          std::max<std::size_t>(controller_config.token_refill_checkpoints,
                                1) +
      3;
  InvariantMonitor monitor(expectations);

  ParallelRunner runner(1);
  result.elastic =
      ElasticFleet(config).run(runner, faults, &monitor, &controller);
  result.violations = monitor.violations();
  result.decisions = controller.events();

  // The journal must round-trip: re-parse the fsynced blob and demand the
  // exact in-memory decision list.
  std::vector<std::uint8_t> blob;
  journal_backend.read(journal_blob, &blob);
  std::vector<AutoscaleEvent> replayed;
  std::size_t start = 0;
  bool parse_ok = true;
  for (std::size_t i = 0; i <= blob.size(); ++i) {
    if (i != blob.size() && blob[i] != '\n') continue;
    if (i > start) {
      AutoscaleEvent event;
      const std::string_view line(
          reinterpret_cast<const char*>(blob.data()) + start, i - start);
      if (parse_autoscale_event(line, &event)) {
        replayed.push_back(event);
      } else {
        parse_ok = false;
      }
    }
    start = i + 1;
  }
  result.journal_events = replayed.size();
  auto same = [](const AutoscaleEvent& a, const AutoscaleEvent& b) {
    return a.at == b.at && a.decision == b.decision &&
           a.shards_before == b.shards_before &&
           a.shards_after == b.shards_after && a.occupancy == b.occupancy &&
           a.charged_pause == b.charged_pause;
  };
  bool journal_ok = parse_ok && replayed.size() == result.decisions.size();
  for (std::size_t i = 0; journal_ok && i < replayed.size(); ++i) {
    journal_ok = same(replayed[i], result.decisions[i]);
  }
  if (!journal_ok) {
    result.violations.push_back(
        {"autoscale-journal",
         "journal replays " + std::to_string(replayed.size()) +
             " decision(s) but the controller recorded " +
             std::to_string(result.decisions.size()),
         schedule.horizon});
  }

  // Digest acceptance: same trace (spikes and storms included), fixed base
  // fleet, no faults, no controller. Pacing never moves the digest — only
  // shedding and admission rejects do — so the comparison runs exactly
  // when neither run dropped anything.
  ElasticFleetConfig fixed = config;
  fixed.resizes.clear();
  const ElasticOutcome baseline = ElasticFleet(fixed).run(runner);
  result.baseline_digest = baseline.digest;
  const bool elastic_clean = result.elastic.fanout_shed_batches == 0 &&
                             result.elastic.admission_rejected == 0;
  const bool baseline_clean = baseline.fanout_shed_batches == 0 &&
                              baseline.admission_rejected == 0;
  if (elastic_clean && baseline_clean) {
    result.digest_checked = true;
    if (result.elastic.digest != result.baseline_digest) {
      result.violations.push_back(
          {"autoscale-digest",
           "elastic digest " + std::to_string(result.elastic.digest) +
               " != fixed-topology baseline " +
               std::to_string(result.baseline_digest),
           schedule.horizon});
    }
  }
  return result;
}

}  // namespace waif::experiments
