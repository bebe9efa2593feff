#include "experiments/elastic_chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/time.h"
#include "experiments/chaos_orchestrator.h"
#include "experiments/chaos_schedule.h"

namespace waif::experiments {
namespace {

ChaosFault fault(ChaosFaultKind kind, SimTime at, SimDuration duration,
                 double magnitude, std::uint64_t param, std::uint64_t seed) {
  ChaosFault f;
  f.kind = kind;
  f.at = at;
  f.duration = duration;
  f.magnitude = magnitude;
  f.param = param;
  f.seed = seed;
  return f;
}

/// One fault of every kind a rebalance schedule can hold, no autoscale.
ChaosSchedule rebalance_schedule() {
  ChaosSchedule schedule;
  schedule.seed = 11;
  schedule.horizon = kDay;
  schedule.faults = {
      fault(ChaosFaultKind::kRebalance, 6 * kHour, 8 * kHour, 0.3, 7, 2),
      fault(ChaosFaultKind::kStorageFault, 16 * kHour, 2 * kHour, 0.5, 0, 3),
      fault(ChaosFaultKind::kCrashActive, 9 * kHour, 10 * kMinute, 0.0, 0, 5),
      fault(ChaosFaultKind::kCrashAtRecord, 0, 10 * kMinute, 0.0, 400, 6),
      fault(ChaosFaultKind::kStorm, 3 * kHour, 0, 0.0, 300, 7),
      fault(ChaosFaultKind::kDeviceStall, 16 * kHour, 8 * kHour, 0.4, 0, 8),
      fault(ChaosFaultKind::kLinkFault, 2 * kHour, kHour, 0.5, 0, 9),
      fault(ChaosFaultKind::kOutage, 12 * kHour, kHour, 0.0, 0, 10),
  };
  return schedule;
}

TEST(ElasticChaosTest, RebalanceScheduleAppliesEveryElasticInjector) {
  const ChaosSchedule schedule = rebalance_schedule();
  const ElasticChaosOutcome outcome = run_elastic_chaos(schedule);
  EXPECT_TRUE(outcome.ok()) << (outcome.violations.empty()
                                    ? ""
                                    : outcome.violations.front().detail);
  // The rebalance fleet never sheds, so its digest is always compared.
  EXPECT_TRUE(outcome.digest_checked);
  EXPECT_EQ(outcome.elastic.digest, outcome.baseline_digest);
  // Link faults and outages have no elastic counterpart.
  EXPECT_EQ(outcome.faults_applied, 6u);
  EXPECT_EQ(outcome.faults_skipped, 2u);
  // Without an autoscale fault no controller runs.
  EXPECT_TRUE(outcome.decisions.empty());
  EXPECT_GE(outcome.elastic.resizes_applied, 1u);
  EXPECT_GE(outcome.elastic.crashes, 1u);

  // The stall is a cell outage in the trace: it freezes drains in the run
  // and its baseline alike, so mailboxes still frozen at the horizon move
  // the digest both agree on.
  ChaosSchedule unstalled = schedule;
  unstalled.faults.erase(std::remove_if(unstalled.faults.begin(),
                                        unstalled.faults.end(),
                                        [](const ChaosFault& f) {
                                          return f.kind ==
                                                 ChaosFaultKind::kDeviceStall;
                                        }),
                         unstalled.faults.end());
  EXPECT_NE(run_elastic_chaos(unstalled).elastic.digest,
            outcome.elastic.digest);

  // run_chaos sends the schedule here and is deterministic.
  const ChaosOutcome first = run_chaos(schedule);
  const ChaosOutcome second = run_chaos(schedule);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first.read_digest, outcome.elastic.digest);
  EXPECT_EQ(first.faults_applied, 6u);
  EXPECT_EQ(first.faults_skipped, 2u);
  EXPECT_EQ(first.digest(), second.digest());
}

TEST(ElasticChaosTest, AutoscaleWithAForcedRebalanceRunsTheController) {
  ChaosSchedule schedule;
  schedule.seed = 21;
  schedule.horizon = kDay;
  schedule.faults = {
      fault(ChaosFaultKind::kAutoscale, 6 * kHour, 2 * kHour, 0.0, 1200, 5),
      fault(ChaosFaultKind::kRebalance, 14 * kHour, 4 * kHour, 0.5, 5, 4),
  };
  const ElasticChaosOutcome outcome = run_elastic_chaos(schedule);
  EXPECT_TRUE(outcome.ok()) << (outcome.violations.empty()
                                    ? ""
                                    : outcome.violations.front().detail);
  EXPECT_EQ(outcome.faults_applied, 2u);
  EXPECT_EQ(outcome.faults_skipped, 0u);
  // The spike saturates its owner: the controller reacted, and its journal
  // replays to exactly the decisions it made.
  EXPECT_FALSE(outcome.decisions.empty());
  EXPECT_EQ(outcome.journal_events, outcome.decisions.size());
  EXPECT_EQ(outcome.elastic.seq_violations, 0u);
  // The forced resize's storage window fails migration steps.
  EXPECT_GT(outcome.elastic.migration_retries, 0u);
}

}  // namespace
}  // namespace waif::experiments
