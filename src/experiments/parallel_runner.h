// Deterministic parallel sweep execution.
//
// Every figure and ablation replays dozens of independent (trace, policy)
// pairs, and every fleet splits a run into independent shards or nodes:
// each parallel step runs fn(i) for i < n and keeps each result at index i.
// ParallelRunner::map is that one executor. Each call starts
// min(jobs, n) - 1 helper threads, the calling thread works too, and every
// thread claims the next index from one shared atomic counter; the helpers
// are joined before map returns. The determinism contract:
//
//   * one Simulator per job — run_trace()/compare_policies() build a private
//     simulator, broker, link and device, so jobs share no virtual clock and
//     no notification-id counter;
//   * each job's randomness comes only from its own seed (job_rng() derives
//     further non-overlapping substreams when a replay needs extra streams);
//   * results are returned in submission order, never completion order.
//
// Identical inputs therefore yield byte-identical RunOutcome/Comparison
// values at ANY thread count, which digest() (built on
// workload::CanonicalDigest) makes cheap to assert in tests and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "experiments/runner.h"
#include "workload/serialization.h"

namespace waif::experiments {

/// One cell of a sweep: replay the trace of (scenario, seed) under `policy`.
struct SweepPoint {
  workload::ScenarioConfig scenario;
  core::PolicyConfig policy;
  DeviceOverrides device;
  std::uint64_t seed = 1;
};

/// One aggregate cell: `seeds` paired replays starting at `first_seed`,
/// reduced exactly like the sequential evaluate().
struct EvalPoint {
  workload::ScenarioConfig scenario;
  core::PolicyConfig policy;
  DeviceOverrides device;
  std::uint64_t seeds = 3;
  std::uint64_t first_seed = 1;
};

/// Wall-clock accounting of the most recent sweep. `task_seconds` sums the
/// per-job thread CPU times, i.e. what a sequential run of the same jobs
/// would have cost on one core (CPU, not wall, so oversubscribed workers do
/// not inflate each other's numbers); speedup() is that divided by the
/// observed wall time.
struct SweepStats {
  double wall_seconds = 0.0;
  double task_seconds = 0.0;
  std::size_t jobs = 0;
  std::size_t threads = 1;

  double speedup() const {
    return wall_seconds > 0.0 ? task_seconds / wall_seconds : 0.0;
  }
};

/// CPU time consumed by the calling thread, in seconds. Used for the
/// sequential-equivalent accounting: unlike wall time it is immune to
/// workers timesharing fewer cores than there are threads.
double thread_cpu_seconds();

class ParallelRunner {
 public:
  /// `jobs` = the most threads one call may use, the caller's included;
  /// 0 selects all hardware threads. Constructing a runner starts nothing.
  explicit ParallelRunner(std::size_t jobs = 0);

  std::size_t thread_count() const { return threads_; }

  /// compare_policies() for every point, results in submission order.
  std::vector<Comparison> compare(const std::vector<SweepPoint>& points);

  /// The sequential evaluate() with its seeds fanned out as parallel jobs.
  Aggregate evaluate(const workload::ScenarioConfig& config,
                     const core::PolicyConfig& policy, std::uint64_t seeds = 3,
                     std::uint64_t first_seed = 1,
                     const DeviceOverrides& device_overrides = {});

  /// A whole sweep grid in one batch: every (point, seed) replay runs as its
  /// own job, then each point is reduced in seed order so the Aggregate is
  /// bit-identical to calling the sequential evaluate() per point.
  std::vector<Aggregate> evaluate_many(const std::vector<EvalPoint>& points);

  /// Generic escape hatch for replays the harness does not know how to
  /// build (multi-device groups, replicated proxies, custom timing loops):
  /// runs fn(0)..fn(count-1) and returns the results indexed by job. `fn`
  /// must depend only on its index for determinism to hold. Every job runs
  /// even when some throw; map then rethrows the lowest-index exception.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
    using Result = std::invoke_result_t<Fn, std::size_t>;
    std::vector<std::optional<Result>> slots(count);
    run_jobs(count, [&fn, &slots](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<Result> results;
    results.reserve(count);
    for (auto& slot : slots) results.push_back(std::move(*slot));
    return results;
  }

  /// Accounting of the most recent compare/evaluate/map call.
  const SweepStats& last_stats() const { return stats_; }

 private:
  /// Runs job(0)..job(count-1) on up to thread_count() threads, records the
  /// call's SweepStats, then rethrows the lowest-index exception, if any.
  void run_jobs(std::size_t count, const std::function<void(std::size_t)>& job);

  std::size_t threads_;
  SweepStats stats_;
};

/// An Rng substream for job `job_index` of a sweep seeded with `sweep_seed`.
/// Mixes both values through splitmix64 so neighbouring jobs get unrelated
/// streams (the generator's own split()/jump() then provide further
/// per-component streams inside the job).
Rng job_rng(std::uint64_t sweep_seed, std::uint64_t job_index);

/// Canonical digests of outcomes: field order is fixed, read sets are
/// sorted, doubles hash their IEEE-754 bit patterns. Equal digests at
/// different thread counts are the determinism contract's test surface.
void canonicalize(workload::CanonicalDigest& digest, const RunOutcome& outcome);
void canonicalize(workload::CanonicalDigest& digest,
                  const Comparison& comparison);
std::uint64_t digest(const RunOutcome& outcome);
std::uint64_t digest(const Comparison& comparison);
std::uint64_t digest(const std::vector<Comparison>& comparisons);
std::uint64_t digest(const std::vector<Aggregate>& aggregates);

}  // namespace waif::experiments
