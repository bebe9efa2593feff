#include "experiments/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <exception>
#include <thread>

#include "common/check.h"
#include "common/moving_stats.h"

namespace waif::experiments {

double thread_cpu_seconds() {
#ifdef CLOCK_THREAD_CPUTIME_ID
  timespec now{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now) == 0) {
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
  }
#endif
  // Fallback: wall clock — correct when workers are not oversubscribed.
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Sorted copy of a read set, so digests do not depend on hash iteration
/// order (which varies with the container's history, not just its content).
std::vector<std::uint64_t> sorted_ids(const metrics::ReadSet& ids) {
  std::vector<std::uint64_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

ParallelRunner::ParallelRunner(std::size_t jobs)
    : threads_(jobs > 0 ? jobs
                        : std::max(1u, std::thread::hardware_concurrency())) {
  stats_.threads = threads_;
}

void ParallelRunner::run_jobs(std::size_t count,
                              const std::function<void(std::size_t)>& job) {
  struct Slot {
    double cpu_seconds = 0.0;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(count);
  std::atomic<std::size_t> next{0};
  // Each thread claims indexes until none is left; a job's slot is written
  // only by the thread that claimed it, and the join publishes every slot.
  const auto work = [&job, &slots, &next, count] {
    for (std::size_t i = next++; i < count; i = next++) {
      const double started = thread_cpu_seconds();
      try {
        job(i);
      } catch (...) {
        slots[i].error = std::current_exception();
      }
      slots[i].cpu_seconds = thread_cpu_seconds() - started;
    }
  };

  const auto started = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < std::min(threads_, count); ++t) {
      helpers.emplace_back(work);
    }
    work();
  }  // the helpers join here

  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  stats_.task_seconds = 0.0;
  for (const Slot& slot : slots) stats_.task_seconds += slot.cpu_seconds;
  stats_.jobs = count;
  for (const Slot& slot : slots) {
    if (slot.error) std::rethrow_exception(slot.error);
  }
}

std::vector<Comparison> ParallelRunner::compare(
    const std::vector<SweepPoint>& points) {
  return map(points.size(), [&points](std::size_t i) {
    const SweepPoint& point = points[i];
    return compare_policies(point.scenario, point.policy, point.seed,
                            point.device);
  });
}

Aggregate ParallelRunner::evaluate(const workload::ScenarioConfig& config,
                                   const core::PolicyConfig& policy,
                                   std::uint64_t seeds,
                                   std::uint64_t first_seed,
                                   const DeviceOverrides& device_overrides) {
  EvalPoint point;
  point.scenario = config;
  point.policy = policy;
  point.device = device_overrides;
  point.seeds = seeds;
  point.first_seed = first_seed;
  return evaluate_many({point}).front();
}

std::vector<Aggregate> ParallelRunner::evaluate_many(
    const std::vector<EvalPoint>& points) {
  // Flatten every (point, seed) replay into one batch so every thread stays
  // busy across cells whose runs have very different costs.
  std::vector<SweepPoint> jobs;
  for (const EvalPoint& point : points) {
    WAIF_CHECK(point.seeds > 0);
    for (std::uint64_t s = 0; s < point.seeds; ++s) {
      SweepPoint job;
      job.scenario = point.scenario;
      job.policy = point.policy;
      job.device = point.device;
      job.seed = point.first_seed + s;
      jobs.push_back(job);
    }
  }

  const std::vector<Comparison> comparisons = compare(jobs);

  // Reduce each point in seed order — the same OnlineStats::add() sequence
  // as the sequential evaluate(), hence bit-identical aggregates.
  std::vector<Aggregate> aggregates;
  aggregates.reserve(points.size());
  std::size_t cursor = 0;
  for (const EvalPoint& point : points) {
    OnlineStats waste;
    OnlineStats loss;
    for (std::uint64_t s = 0; s < point.seeds; ++s, ++cursor) {
      waste.add(comparisons[cursor].waste_percent);
      loss.add(comparisons[cursor].loss_percent);
    }
    Aggregate aggregate;
    aggregate.waste_percent = waste.mean();
    aggregate.loss_percent = loss.mean();
    aggregate.waste_stddev = waste.stddev();
    aggregate.loss_stddev = loss.stddev();
    aggregate.seeds = point.seeds;
    aggregates.push_back(aggregate);
  }
  return aggregates;
}

Rng job_rng(std::uint64_t sweep_seed, std::uint64_t job_index) {
  // Two splitmix64 steps decorrelate (seed, index) pairs even when both
  // change by small deltas between neighbouring jobs.
  std::uint64_t state = sweep_seed;
  std::uint64_t mixed = splitmix64(state);
  state = mixed ^ (job_index * 0x9E3779B97F4A7C15ull + 0x8E9D5AB1AC53DA33ull);
  return Rng(splitmix64(state));
}

void canonicalize(workload::CanonicalDigest& digest,
                  const RunOutcome& outcome) {
  const std::vector<std::uint64_t> reads = sorted_ids(outcome.read_ids);
  digest.u64(reads.size());
  for (std::uint64_t id : reads) digest.u64(id);
  digest.u64(outcome.published.size());
  for (NotificationId id : outcome.published) digest.u64(id.value);
  digest.u64(outcome.forwarded_unique);
  digest.u64(outcome.read_operations);

  const core::TopicStats& topic = outcome.topic;
  digest.u64(topic.arrivals);
  digest.u64(topic.rank_update_arrivals);
  digest.u64(topic.below_threshold_drops);
  digest.u64(topic.forwarded);
  digest.u64(topic.prefetch_forwards);
  digest.u64(topic.outgoing_forwards);
  digest.u64(topic.read_difference_forwards);
  digest.u64(topic.rank_change_notices);
  digest.u64(topic.read_requests);
  digest.u64(topic.sync_requests);
  digest.u64(topic.expired_at_proxy);
  digest.u64(topic.expired_on_arrival);
  digest.u64(topic.held);
  digest.u64(topic.delayed);
  digest.u64(topic.delay_drops);
  digest.u64(topic.interrupts);
  digest.u64(topic.digest_deliveries);
  digest.u64(topic.requeued_undelivered);
  digest.u64(topic.duplicate_reads);
  digest.u64(topic.duplicate_syncs);

  const device::DeviceStats& device = outcome.device;
  digest.u64(device.received);
  digest.u64(device.duplicate_receives);
  digest.u64(device.rank_updates);
  digest.u64(device.retracted);
  digest.u64(device.read);
  digest.u64(device.expired_unread);
  digest.u64(device.evicted);
  digest.u64(device.rejected_dead_battery);
  digest.f64(device.energy_used);

  const net::LinkStats& link = outcome.link;
  digest.u64(link.downlink_messages);
  digest.u64(link.uplink_messages);
  digest.u64(link.downlink_bytes);
  digest.u64(link.uplink_bytes);
  digest.u64(link.transitions);

  const net::FaultStats& faults = outcome.faults;
  digest.u64(faults.independent_drops);
  digest.u64(faults.burst_drops);
  digest.u64(faults.half_open_drops);
  digest.u64(faults.uplink_drops);
  digest.u64(faults.bursts);
  digest.u64(faults.half_open_windows);

  const core::ReliableChannelStats& reliable = outcome.reliable;
  digest.u64(reliable.accepted);
  digest.u64(reliable.transmissions);
  digest.u64(reliable.retries);
  digest.u64(reliable.link_drops);
  digest.u64(reliable.outage_losses);
  digest.u64(reliable.delivered);
  digest.u64(reliable.duplicates_suppressed);
  digest.u64(reliable.acks_sent);
  digest.u64(reliable.ack_losses);
  digest.u64(reliable.acked);
  digest.u64(reliable.expired_abandoned);
  digest.u64(reliable.attempts_exhausted);
  digest.u64(reliable.requeued);
}

void canonicalize(workload::CanonicalDigest& digest,
                  const Comparison& comparison) {
  canonicalize(digest, comparison.baseline);
  canonicalize(digest, comparison.policy);
  digest.f64(comparison.waste_percent);
  digest.f64(comparison.loss_percent);
  digest.f64(comparison.raw_loss_percent);
}

std::uint64_t digest(const RunOutcome& outcome) {
  workload::CanonicalDigest canonical;
  canonicalize(canonical, outcome);
  return canonical.value();
}

std::uint64_t digest(const Comparison& comparison) {
  workload::CanonicalDigest canonical;
  canonicalize(canonical, comparison);
  return canonical.value();
}

std::uint64_t digest(const std::vector<Comparison>& comparisons) {
  workload::CanonicalDigest canonical;
  canonical.u64(comparisons.size());
  for (const Comparison& comparison : comparisons) {
    canonicalize(canonical, comparison);
  }
  return canonical.value();
}

std::uint64_t digest(const std::vector<Aggregate>& aggregates) {
  workload::CanonicalDigest canonical;
  canonical.u64(aggregates.size());
  for (const Aggregate& aggregate : aggregates) {
    canonical.f64(aggregate.waste_percent);
    canonical.f64(aggregate.loss_percent);
    canonical.f64(aggregate.waste_stddev);
    canonical.f64(aggregate.loss_stddev);
    canonical.u64(aggregate.seeds);
  }
  return canonical.value();
}

}  // namespace waif::experiments
