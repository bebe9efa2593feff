// ParallelRunner contract tests: identical digests at every thread count,
// submission-order results, degenerate sweeps, more jobs than threads, and
// the executor itself (every index once, results, exceptions, thread use).
#include "experiments/parallel_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/time.h"

namespace waif::experiments {
namespace {

using core::PolicyConfig;
using workload::ScenarioConfig;

ScenarioConfig quick_config() {
  ScenarioConfig config;
  config.horizon = 30 * kDay;  // scaled down for test speed
  config.event_frequency = 32.0;
  config.user_frequency = 2.0;
  config.max = 8;
  return config;
}

std::vector<SweepPoint> sample_sweep() {
  std::vector<SweepPoint> points;
  for (double outage : {0.0, 0.3, 0.9}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SweepPoint point;
      point.scenario = quick_config();
      point.scenario.outage_fraction = outage;
      point.policy = PolicyConfig::buffer(16);
      point.seed = seed;
      points.push_back(point);
    }
  }
  return points;
}

TEST(ParallelRunnerTest, SameSeedSameDigestAtOneTwoAndEightThreads) {
  const std::vector<SweepPoint> points = sample_sweep();
  ParallelRunner one(1);
  ParallelRunner two(2);
  ParallelRunner eight(8);
  const std::uint64_t digest_one = digest(one.compare(points));
  const std::uint64_t digest_two = digest(two.compare(points));
  const std::uint64_t digest_eight = digest(eight.compare(points));
  EXPECT_EQ(digest_one, digest_two);
  EXPECT_EQ(digest_one, digest_eight);
}

TEST(ParallelRunnerTest, ResultsArriveInSubmissionOrder) {
  // Jobs with very different costs (long vs short horizon) so completion
  // order differs from submission order; each outcome must still sit at its
  // submission index. Arrival counts scale with the horizon, which lets us
  // identify which job produced which outcome.
  std::vector<SweepPoint> points;
  for (int days : {40, 2, 30, 1, 20, 3}) {
    SweepPoint point;
    point.scenario = quick_config();
    point.scenario.horizon = days * kDay;
    point.policy = PolicyConfig::online();
    point.seed = 7;
    points.push_back(point);
  }
  ParallelRunner runner(4);
  const std::vector<RunOutcome> outcomes =
      runner.map(points.size(), [&points](std::size_t i) {
        const workload::Trace trace =
            workload::generate_trace(points[i].scenario, points[i].seed);
        return run_trace(trace, points[i].scenario, points[i].policy,
                         points[i].device);
      });
  ASSERT_EQ(outcomes.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const workload::Trace trace =
        workload::generate_trace(points[i].scenario, points[i].seed);
    EXPECT_EQ(outcomes[i].published.size(), trace.arrivals.size())
        << "outcome at index " << i << " does not match its submission";
  }
}

TEST(ParallelRunnerTest, EmptySweep) {
  ParallelRunner runner(4);
  EXPECT_TRUE(runner.compare({}).empty());
  EXPECT_TRUE(runner.map(0, [](std::size_t i) { return i; }).empty());
  EXPECT_TRUE(runner.evaluate_many({}).empty());
  EXPECT_EQ(runner.last_stats().jobs, 0u);
}

TEST(ParallelRunnerTest, ManyMoreJobsThanThreads) {
  // 24 jobs on 2 threads: the queue must drain fully and keep order.
  std::vector<SweepPoint> points;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SweepPoint point;
    point.scenario = quick_config();
    point.scenario.horizon = 5 * kDay;
    point.policy = PolicyConfig::on_demand();
    point.seed = seed;
    points.push_back(point);
  }
  ParallelRunner runner(2);
  const std::vector<Comparison> parallel = runner.compare(points);
  ASSERT_EQ(parallel.size(), points.size());
  EXPECT_EQ(runner.last_stats().jobs, points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Comparison sequential = compare_policies(
        points[i].scenario, points[i].policy, points[i].seed, points[i].device);
    EXPECT_EQ(digest(parallel[i]), digest(sequential)) << "job " << i;
  }
}

TEST(ParallelRunnerTest, EvaluateMatchesSequentialEvaluateBitwise) {
  ScenarioConfig config = quick_config();
  config.outage_fraction = 0.5;
  const PolicyConfig policy = PolicyConfig::buffer(16);
  const Aggregate sequential = evaluate(config, policy, /*seeds=*/3);
  ParallelRunner runner(4);
  const Aggregate parallel = runner.evaluate(config, policy, /*seeds=*/3);
  EXPECT_EQ(digest({parallel}), digest({sequential}));
  EXPECT_EQ(parallel.waste_percent, sequential.waste_percent);
  EXPECT_EQ(parallel.loss_percent, sequential.loss_percent);
  EXPECT_EQ(parallel.waste_stddev, sequential.waste_stddev);
  EXPECT_EQ(parallel.loss_stddev, sequential.loss_stddev);
}

TEST(ParallelRunnerTest, MapReturnsIndexedResults) {
  ParallelRunner runner(4);
  const std::vector<std::uint64_t> values =
      runner.map(100, [](std::size_t i) { return std::uint64_t{i} * 3; });
  ASSERT_EQ(values.size(), 100u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], i * 3);
  }
  EXPECT_EQ(runner.last_stats().jobs, 100u);
  EXPECT_EQ(runner.last_stats().threads, 4u);
}

TEST(ParallelRunnerTest, StatsReportTheThreadsACallUsed) {
  // A call runs on min(cap, jobs) threads, the caller's included, and its
  // stats say so; thread_count() stays the cap.
  ParallelRunner eight(8);
  eight.map(3, [](std::size_t i) { return i; });
  EXPECT_EQ(eight.last_stats().threads, 3u);
  EXPECT_EQ(eight.thread_count(), 8u);
  ParallelRunner four(4);
  four.map(100, [](std::size_t i) { return i; });
  EXPECT_EQ(four.last_stats().threads, 4u);
  ParallelRunner one(1);
  one.map(5, [](std::size_t i) { return i; });
  EXPECT_EQ(one.last_stats().threads, 1u);
}

TEST(ParallelRunnerTest, StatsAccountWallAndTaskTime) {
  ParallelRunner runner(2);
  runner.compare(sample_sweep());
  const SweepStats& stats = runner.last_stats();
  EXPECT_EQ(stats.jobs, 6u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.task_seconds, 0.0);
  EXPECT_GT(stats.speedup(), 0.0);
}

TEST(ParallelRunnerTest, JobRngSubstreamsDiffer) {
  Rng a = job_rng(1, 0);
  Rng b = job_rng(1, 1);
  Rng c = job_rng(2, 0);
  Rng a_again = job_rng(1, 0);
  EXPECT_NE(a(), b());
  EXPECT_NE(job_rng(1, 0)(), c());
  EXPECT_EQ(job_rng(1, 0)(), a_again());
}

TEST(ParallelRunnerTest, DigestDistinguishesDifferentSeeds) {
  SweepPoint point;
  point.scenario = quick_config();
  point.scenario.horizon = 10 * kDay;
  point.policy = PolicyConfig::buffer(16);
  point.seed = 1;
  SweepPoint other = point;
  other.seed = 2;
  ParallelRunner runner(2);
  const std::vector<Comparison> results = runner.compare({point, other});
  EXPECT_NE(digest(results[0]), digest(results[1]));
}

TEST(ParallelRunnerTest, MapRunsEveryIndexExactlyOnce) {
  for (std::size_t jobs : {1u, 3u, 8u}) {
    for (std::size_t count : {0u, 1u, 2u, 257u}) {
      ParallelRunner runner(jobs);
      std::vector<std::atomic<int>> hits(count);
      const std::vector<std::size_t> indexes =
          runner.map(count, [&hits](std::size_t i) {
            hits[i].fetch_add(1);
            return i;
          });
      ASSERT_EQ(indexes.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at jobs " << jobs;
        EXPECT_EQ(indexes[i], i);
      }
      EXPECT_EQ(runner.last_stats().jobs, count);
    }
  }
}

TEST(ParallelRunnerTest, MapRunsEveryJobThenRethrowsTheLowestIndexException) {
  ParallelRunner runner(4);
  std::atomic<int> finished{0};
  // Job 3 throws last in time, so only its index makes it the one rethrown.
  const auto jobs = [&finished](std::size_t i) {
    if (i == 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("job 3");
    }
    if (i == 7 || i == 11) throw std::runtime_error("job " + std::to_string(i));
    finished.fetch_add(1);
    return i;
  };
  try {
    runner.map(16, jobs);
    FAIL() << "map swallowed the jobs' exceptions";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()), "job 3");
  }
  EXPECT_EQ(finished.load(), 13);
  EXPECT_EQ(runner.last_stats().jobs, 16u);

  // The same runner maps again afterwards.
  std::atomic<int> count{0};
  runner.map(8, [&count](std::size_t i) {
    count.fetch_add(1);
    return i;
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(ParallelRunnerTest, RunsEveryJobUnderContention) {
  // Many more jobs than threads, all touching one counter: every job runs
  // exactly once whichever thread claims it.
  ParallelRunner runner(4);
  constexpr std::size_t kJobs = 2000;
  std::atomic<std::size_t> executed{0};
  runner.map(kJobs, [&executed](std::size_t i) {
    executed.fetch_add(1);
    return i;
  });
  EXPECT_EQ(executed.load(), kJobs);
  EXPECT_EQ(runner.last_stats().jobs, kJobs);
}

TEST(ParallelRunnerTest, MapMovesOwningResultsToTheirIndex) {
  // Move-only results that own heap memory come back intact, each at the
  // index of the job that made it.
  ParallelRunner runner(2);
  const std::vector<std::unique_ptr<std::string>> results =
      runner.map(10, [](std::size_t i) {
        return std::make_unique<std::string>(i * i, 'x');
      });
  ASSERT_EQ(results.size(), 10u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_NE(results[i], nullptr) << "index " << i;
    EXPECT_EQ(*results[i], std::string(i * i, 'x'));
  }
}

TEST(ParallelRunnerTest, HelperThreadExceptionReachesTheCaller) {
  // The two jobs wait for each other, so each holds a thread of its own; the
  // one that is not on the calling thread throws, and the caller must get
  // that exception with its type and message. The 10 s deadline turns a
  // regression into a failure rather than a hang.
  ParallelRunner runner(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  try {
    runner.map(2, [&started, caller](std::size_t i) {
      started.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (std::this_thread::get_id() != caller) {
        throw std::logic_error("helper job " + std::to_string(i));
      }
      return i;
    });
    FAIL() << "no job ran on a helper thread, or map swallowed its exception";
  } catch (const std::logic_error& error) {
    EXPECT_EQ(std::string(error.what()).rfind("helper job ", 0), 0u)
        << error.what();
  }
  EXPECT_EQ(started.load(), 2);
}

TEST(ParallelRunnerTest, ThrownErrorDoesNotOutliveItsMap) {
  // The rethrow consumes the error: the runner's next map runs its job and
  // returns normally.
  ParallelRunner runner(2);
  EXPECT_THROW(runner.map(1, [](std::size_t) -> int {
                 throw std::logic_error("plain job failed");
               }),
               std::logic_error);
  std::atomic<bool> ran{false};
  EXPECT_NO_THROW(runner.map(1, [&ran](std::size_t) {
    ran.store(true);
    return 0;
  }));
  EXPECT_TRUE(ran.load());
}

TEST(ParallelRunnerTest, EmptyMapCallsNoJob) {
  ParallelRunner runner(8);
  std::atomic<int> calls{0};
  const std::vector<std::size_t> results =
      runner.map(0, [&calls](std::size_t i) {
        calls.fetch_add(1);
        return i;
      });
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(runner.last_stats().jobs, 0u);
  EXPECT_EQ(runner.last_stats().task_seconds, 0.0);
}

TEST(ParallelRunnerTest, OneThreadRunsEveryJobOnTheCallingThread) {
  ParallelRunner runner(1);
  const std::vector<std::thread::id> ids =
      runner.map(50, [](std::size_t) { return std::this_thread::get_id(); });
  for (const std::thread::id& id : ids) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

/// Threads of this process, or 0 where /proc/self/task is not available.
std::size_t live_threads() {
  std::error_code error;
  std::filesystem::directory_iterator tasks("/proc/self/task", error);
  if (error) return 0;
  return static_cast<std::size_t>(std::distance(
      tasks, std::filesystem::directory_iterator{}));
}

TEST(ParallelRunnerTest, NeverStartsMoreThreadsThanJobs) {
  // A two-thread call first, so a thread that a runtime starts on the first
  // thread creation (a sanitizer's, say) is already in the baseline.
  ParallelRunner(2).map(2, [](std::size_t i) { return i; });
  const std::size_t before = live_threads();
  ParallelRunner runner(64);
  EXPECT_EQ(runner.thread_count(), 64u);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  std::size_t peak = 0;
  runner.map(3, [&](std::size_t i) {
    const std::size_t now = live_threads();
    std::lock_guard<std::mutex> lock(mutex);
    seen.insert(std::this_thread::get_id());
    peak = std::max(peak, now);
    return i;
  });
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), 3u);
  // Three jobs: the calling thread and at most two helpers.
  if (before > 0) {
    EXPECT_LE(peak, before + 2);
  }
}

TEST(ParallelRunnerTest, TwoJobsOnTwoThreadsRunAtTheSameTime) {
  // Each job waits for the other to start, so they only both finish if
  // they run at once; the 10 s deadline turns a regression into a failure
  // rather than a hang.
  ParallelRunner runner(2);
  std::atomic<int> started{0};
  const std::vector<bool> met = runner.map(2, [&started](std::size_t) {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return started.load() == 2;
  });
  EXPECT_TRUE(met[0]);
  EXPECT_TRUE(met[1]);
}

TEST(ParallelRunnerTest, ZeroSelectsHardwareThreads) {
  ParallelRunner runner(0);
  EXPECT_GE(runner.thread_count(), 1u);
  EXPECT_EQ(runner.thread_count(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  EXPECT_EQ(runner.last_stats().threads, runner.thread_count());
}

TEST(ParallelRunnerTest, BackToBackOneJobMapsAllRun) {
  // A lone job right after the previous call finished must always run: an
  // executor that loses a wakeup hangs here or skips the job.
  ParallelRunner runner(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<bool> ran{false};
    const std::vector<int> result = runner.map(1, [&ran, round](std::size_t) {
      ran.store(true);
      return round;
    });
    ASSERT_TRUE(ran.load());
    ASSERT_EQ(result, std::vector<int>{round});
  }
}

}  // namespace
}  // namespace waif::experiments
