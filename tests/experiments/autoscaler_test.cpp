#include "experiments/autoscaler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/health.h"
#include "experiments/chaos_schedule.h"
#include "experiments/elastic_chaos.h"
#include "experiments/elastic_fleet.h"
#include "experiments/invariant_monitor.h"
#include "experiments/parallel_runner.h"
#include "storage/backend.h"

namespace waif::experiments {
namespace {

// ---------------------------------------------------------------------------
// Synthetic control inputs: one node whose occupancy we dial directly.

FleetControlInput make_input(SimTime at, std::size_t shards, double occupancy) {
  FleetControlInput input;
  input.at = at;
  input.shards = shards;
  input.topics = 96;
  core::HealthSnapshot node;
  node.queue_budget = 1000;
  node.queued = static_cast<std::uint64_t>(occupancy * 1000.0);
  input.nodes.push_back(node);
  return input;
}

AutoscalerConfig test_config() {
  AutoscalerConfig config;
  config.min_shards = 2;
  config.max_shards = 8;
  config.grow_threshold = 0.85;
  config.shrink_threshold = 0.25;
  config.grow_step = 1;
  config.shrink_step = 1;
  config.grow_dwell = 2;
  config.shrink_dwell = 3;
  config.resize_tokens = 4;
  config.token_refill_checkpoints = 1000;  // effectively no refill in tests
  config.pause_per_topic = kSecond;
  config.pause_budget = 0;
  config.defer_patience = 2;
  config.trouble_backoff = 2;
  config.recover_threshold = 0.5;
  return config;
}

// ---------------------------------------------------------------------------
// Journal line format.

TEST(AutoscaleEventTest, FormatParseRoundTrip) {
  AutoscaleEvent event;
  event.at = 12345678;
  event.decision = AutoscaleDecision::kShedEscalate;
  event.shards_before = 3;
  event.shards_after = 3;
  event.occupancy = 1.0625;
  event.charged_pause = 30 * kSecond;

  AutoscaleEvent parsed;
  ASSERT_TRUE(parse_autoscale_event(format_autoscale_event(event), &parsed));
  EXPECT_EQ(parsed.at, event.at);
  EXPECT_EQ(parsed.decision, event.decision);
  EXPECT_EQ(parsed.shards_before, event.shards_before);
  EXPECT_EQ(parsed.shards_after, event.shards_after);
  EXPECT_DOUBLE_EQ(parsed.occupancy, event.occupancy);
  EXPECT_EQ(parsed.charged_pause, event.charged_pause);
}

TEST(AutoscaleEventTest, ParseRejectsMalformedLines) {
  AutoscaleEvent event;
  EXPECT_FALSE(parse_autoscale_event("", &event));
  EXPECT_FALSE(parse_autoscale_event("resize 1 grow 2 3 0.5 0", &event));
  EXPECT_FALSE(parse_autoscale_event("autoscale 1 explode 2 3 0.5 0", &event));
  EXPECT_FALSE(parse_autoscale_event("autoscale 1 grow 2 3 0.5", &event));
  EXPECT_FALSE(parse_autoscale_event("autoscale 1 grow 2 3 0.5 0 junk",
                                     &event));
}

// ---------------------------------------------------------------------------
// Hysteresis.

TEST(AutoscalerTest, GrowWaitsForTheDwellAndMidBandResetsTheStreak) {
  AutoscalerController controller(test_config());

  // One hot checkpoint is not enough (grow_dwell = 2)...
  EXPECT_EQ(controller.on_checkpoint(make_input(kMinute, 3, 0.95))
                .target_shards,
            0u);
  // ...and a mid-band reading resets the streak entirely.
  EXPECT_EQ(controller.on_checkpoint(make_input(2 * kMinute, 3, 0.5))
                .target_shards,
            0u);
  EXPECT_EQ(controller.on_checkpoint(make_input(3 * kMinute, 3, 0.95))
                .target_shards,
            0u);
  // Two consecutive hot checkpoints grow by grow_step.
  const FleetController::Directive grow =
      controller.on_checkpoint(make_input(4 * kMinute, 3, 0.95));
  EXPECT_EQ(grow.target_shards, 4u);

  ASSERT_EQ(controller.events().size(), 1u);
  EXPECT_EQ(controller.events()[0].decision, AutoscaleDecision::kGrow);
  EXPECT_EQ(controller.events()[0].shards_before, 3u);
  EXPECT_EQ(controller.events()[0].shards_after, 4u);
  // 96 topics * 1/4 move to the new shard, charged at pause_per_topic.
  EXPECT_EQ(controller.events()[0].charged_pause, 24 * kSecond);
  EXPECT_EQ(controller.pause_charged(), 24 * kSecond);
}

TEST(AutoscalerTest, ShrinkNeedsItsOwnLongerDwell) {
  AutoscalerController controller(test_config());
  EXPECT_EQ(controller.on_checkpoint(make_input(kMinute, 4, 0.1))
                .target_shards,
            0u);
  EXPECT_EQ(controller.on_checkpoint(make_input(2 * kMinute, 4, 0.1))
                .target_shards,
            0u);
  const FleetController::Directive shrink =
      controller.on_checkpoint(make_input(3 * kMinute, 4, 0.1));
  EXPECT_EQ(shrink.target_shards, 3u);
  ASSERT_EQ(controller.events().size(), 1u);
  EXPECT_EQ(controller.events()[0].decision, AutoscaleDecision::kShrink);
}

TEST(AutoscalerTest, NeverGrowsPastMaxOrShrinksPastMin) {
  AutoscalerController controller(test_config());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(controller
                  .on_checkpoint(make_input((i + 1) * kMinute, 8, 0.99))
                  .target_shards,
              0u);
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(controller
                  .on_checkpoint(make_input((i + 10) * kMinute, 2, 0.0))
                  .target_shards,
              0u);
  }
  // At the bounds nothing is even wanted, so the ladder stays untouched.
  EXPECT_TRUE(controller.events().empty());
  EXPECT_EQ(controller.degrade_level(), 0);
}

// ---------------------------------------------------------------------------
// The degradation ladder: blocked resizes defer, escalate, tighten, recover.

TEST(AutoscalerTest, ExhaustedTokensWalkTheLadderAndRecoveryUnwindsIt) {
  AutoscalerConfig config = test_config();
  config.resize_tokens = 1;
  config.grow_dwell = 1;
  AutoscalerController controller(config);

  // Token 1 is spent on a legitimate grow.
  EXPECT_EQ(controller.on_checkpoint(make_input(kMinute, 3, 0.95))
                .target_shards,
            4u);

  // Still hot, no tokens left: defer, defer -> shed-escalate -> tighten.
  FleetController::Directive d =
      controller.on_checkpoint(make_input(2 * kMinute, 4, 0.95));
  EXPECT_EQ(d.target_shards, 0u);
  EXPECT_EQ(d.shed_level, -1);

  d = controller.on_checkpoint(make_input(3 * kMinute, 4, 0.95));
  EXPECT_EQ(d.shed_level, 1);
  EXPECT_EQ(d.admission_level, -1);
  EXPECT_EQ(controller.degrade_level(), 1);

  d = controller.on_checkpoint(make_input(4 * kMinute, 4, 0.95));
  EXPECT_EQ(d.shed_level, -1);  // already escalated; plain defer

  d = controller.on_checkpoint(make_input(5 * kMinute, 4, 0.95));
  EXPECT_EQ(d.shed_level, 1);
  EXPECT_EQ(d.admission_level, 1);
  EXPECT_EQ(controller.degrade_level(), 2);

  // Occupancy falls below the recover threshold: the whole ladder unwinds
  // in one decision, restoring both knobs.
  d = controller.on_checkpoint(make_input(6 * kMinute, 4, 0.3));
  EXPECT_EQ(d.shed_level, 0);
  EXPECT_EQ(d.admission_level, 0);
  EXPECT_EQ(controller.degrade_level(), 0);

  std::vector<AutoscaleDecision> decisions;
  for (const AutoscaleEvent& event : controller.events()) {
    decisions.push_back(event.decision);
  }
  EXPECT_EQ(decisions,
            (std::vector<AutoscaleDecision>{
                AutoscaleDecision::kGrow, AutoscaleDecision::kDefer,
                AutoscaleDecision::kShedEscalate, AutoscaleDecision::kDefer,
                AutoscaleDecision::kAdmissionTighten,
                AutoscaleDecision::kRecover}));
}

TEST(AutoscalerTest, PauseBudgetBlocksAnUnaffordableResize) {
  AutoscalerConfig config = test_config();
  config.grow_dwell = 1;
  // Growing 3 -> 4 moves ~24 of 96 topics = 24s of charged pause; a 10s
  // budget cannot afford it.
  config.pause_budget = 10 * kSecond;
  AutoscalerController controller(config);

  const FleetController::Directive d =
      controller.on_checkpoint(make_input(kMinute, 3, 0.95));
  EXPECT_EQ(d.target_shards, 0u);
  ASSERT_EQ(controller.events().size(), 1u);
  EXPECT_EQ(controller.events()[0].decision, AutoscaleDecision::kDefer);
  EXPECT_EQ(controller.pause_charged(), 0);
}

TEST(AutoscalerTest, MigrationTroubleStartsACooldown) {
  AutoscalerConfig config = test_config();
  config.grow_dwell = 1;
  AutoscalerController controller(config);

  // A rollback observed at this checkpoint blocks the wanted grow.
  FleetControlInput trouble = make_input(kMinute, 3, 0.95);
  trouble.migrations_rolled_back = 1;
  EXPECT_EQ(controller.on_checkpoint(trouble).target_shards, 0u);
  ASSERT_FALSE(controller.events().empty());
  EXPECT_EQ(controller.events().back().decision, AutoscaleDecision::kDefer);

  // Still cooling down (trouble_backoff = 2).
  FleetControlInput later = make_input(2 * kMinute, 3, 0.95);
  later.migrations_rolled_back = 1;
  EXPECT_EQ(controller.on_checkpoint(later).target_shards, 0u);

  // Cooldown expired, storage quiet: the grow goes through.
  later.at = 3 * kMinute;
  EXPECT_EQ(controller.on_checkpoint(later).target_shards, 4u);
}

TEST(AutoscalerTest, FlipDwellBlocksAnImmediateReversal) {
  AutoscalerConfig config = test_config();
  config.grow_dwell = 1;
  config.shrink_dwell = 1;
  config.flip_dwell = kHour;
  AutoscalerController controller(config);

  // Grow at t = 1min.
  EXPECT_EQ(controller.on_checkpoint(make_input(kMinute, 3, 0.95))
                .target_shards,
            4u);

  // A shrink signal inside the dwell is simply held (no event, no thrash).
  const std::size_t events_before = controller.events().size();
  EXPECT_EQ(controller.on_checkpoint(make_input(2 * kMinute, 4, 0.1))
                .target_shards,
            0u);
  EXPECT_EQ(controller.events().size(), events_before);

  // Past the dwell the same signal shrinks.
  EXPECT_EQ(controller
                .on_checkpoint(make_input(kMinute + kHour, 4, 0.1))
                .target_shards,
            3u);

  // And a grow wanted right after the shrink walks the ladder instead of
  // flipping back (grow-side blockage defers; shedding is the relief).
  EXPECT_EQ(controller
                .on_checkpoint(make_input(2 * kMinute + kHour, 3, 0.95))
                .target_shards,
            0u);
  EXPECT_EQ(controller.events().back().decision, AutoscaleDecision::kDefer);
}

TEST(AutoscalerTest, SameDirectionResizesIgnoreTheFlipDwell) {
  AutoscalerConfig config = test_config();
  config.grow_dwell = 1;
  config.flip_dwell = kHour;
  AutoscalerController controller(config);
  EXPECT_EQ(controller.on_checkpoint(make_input(kMinute, 3, 0.95))
                .target_shards,
            4u);
  EXPECT_EQ(controller.on_checkpoint(make_input(2 * kMinute, 4, 0.95))
                .target_shards,
            5u);
}

// ---------------------------------------------------------------------------
// Journal + timeline rendering.

TEST(AutoscalerTest, JournalRoundTripsEveryDecision) {
  AutoscalerConfig config = test_config();
  config.grow_dwell = 1;
  config.resize_tokens = 1;
  AutoscalerController controller(config);
  storage::MemBackend backend;
  controller.attach_journal(&backend, "autoscale.journal");

  controller.on_checkpoint(make_input(kMinute, 3, 0.95));      // grow
  controller.on_checkpoint(make_input(2 * kMinute, 4, 0.95));  // defer
  controller.on_checkpoint(make_input(3 * kMinute, 4, 0.95));  // escalate
  ASSERT_EQ(controller.events().size(), 3u);

  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(backend.read("autoscale.journal", &blob));
  std::istringstream lines{std::string(blob.begin(), blob.end())};
  std::string line;
  std::size_t parsed_count = 0;
  while (std::getline(lines, line)) {
    AutoscaleEvent parsed;
    ASSERT_TRUE(parse_autoscale_event(line, &parsed)) << line;
    ASSERT_LT(parsed_count, controller.events().size());
    const AutoscaleEvent& expected = controller.events()[parsed_count];
    EXPECT_EQ(parsed.at, expected.at);
    EXPECT_EQ(parsed.decision, expected.decision);
    EXPECT_EQ(parsed.shards_before, expected.shards_before);
    EXPECT_EQ(parsed.shards_after, expected.shards_after);
    EXPECT_EQ(parsed.charged_pause, expected.charged_pause);
    ++parsed_count;
  }
  EXPECT_EQ(parsed_count, controller.events().size());
}

TEST(AutoscalerTest, TimelineRendersAsChaosComments) {
  AutoscalerConfig config = test_config();
  config.grow_dwell = 1;
  AutoscalerController controller(config);
  controller.on_checkpoint(make_input(kMinute, 3, 0.95));
  ASSERT_EQ(controller.events().size(), 1u);

  std::ostringstream out;
  render_autoscale_timeline(out, controller.events(), kDay);
  std::istringstream lines{out.str()};
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line[0], '#') << line;
    ++count;
  }
  EXPECT_GE(count, 3u);  // header, mark row, one event line
  EXPECT_NE(out.str().find('G'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Closed loop end to end: the controller grows a hot fleet, the monitor
// stays silent, and the chaos bridge holds its acceptance bar.

TEST(AutoscalerTest, ClosedLoopGrowsUnderAFlashCrowd) {
  ChaosSchedule schedule;
  schedule.seed = 21;
  schedule.horizon = kDay;
  ChaosFault spike;
  spike.kind = ChaosFaultKind::kAutoscale;
  spike.at = 6 * kHour;
  spike.duration = 2 * kHour;
  spike.magnitude = 0.0;  // storage stays healthy
  spike.param = 1200;
  spike.seed = 5;
  schedule.faults.push_back(spike);

  const ElasticChaosOutcome outcome = run_elastic_chaos(schedule);
  EXPECT_TRUE(outcome.ok()) << (outcome.violations.empty()
                                    ? ""
                                    : outcome.violations.front().detail);
  EXPECT_EQ(outcome.faults_applied, 1u);
  // The spike saturates its owner: the controller must have reacted.
  EXPECT_FALSE(outcome.decisions.empty());
  EXPECT_EQ(outcome.journal_events, outcome.decisions.size());
  EXPECT_EQ(outcome.elastic.seq_violations, 0u);
}

TEST(AutoscalerTest, FaultedMigrationStorageEngagesTheLadder) {
  ChaosSchedule schedule;
  schedule.seed = 33;
  schedule.horizon = kDay;
  ChaosFault spike;
  spike.kind = ChaosFaultKind::kAutoscale;
  spike.at = 4 * kHour;
  spike.duration = 8 * kHour;
  spike.magnitude = 1.0;  // migration storage hard-faulted for the window
  spike.param = 1500;
  spike.seed = 9;
  schedule.faults.push_back(spike);

  const ElasticChaosOutcome outcome = run_elastic_chaos(schedule);
  EXPECT_TRUE(outcome.ok()) << (outcome.violations.empty()
                                    ? ""
                                    : outcome.violations.front().detail);
  // With resizes failing mid-storm the ladder must engage: at least one
  // defer and one escalation are journaled.
  bool deferred = false;
  bool escalated = false;
  for (const AutoscaleEvent& event : outcome.decisions) {
    deferred |= event.decision == AutoscaleDecision::kDefer;
    escalated |= event.decision == AutoscaleDecision::kShedEscalate ||
                 event.decision == AutoscaleDecision::kAdmissionTighten;
  }
  EXPECT_TRUE(deferred);
  EXPECT_TRUE(escalated);
  EXPECT_EQ(outcome.journal_events, outcome.decisions.size());
}

TEST(AutoscalerTest, CalmScheduleKeepsTheDigestCheckable) {
  // A tiny spike the capacity model absorbs without shedding: the bridge
  // must actually perform the digest comparison and pass it.
  ChaosSchedule schedule;
  schedule.seed = 7;
  schedule.horizon = kDay;
  ChaosFault spike;
  spike.kind = ChaosFaultKind::kAutoscale;
  spike.at = 6 * kHour;
  spike.duration = 4 * kHour;
  spike.magnitude = 0.0;
  spike.param = 8;  // barely a ripple
  spike.seed = 3;
  schedule.faults.push_back(spike);

  const ElasticChaosOutcome outcome = run_elastic_chaos(schedule);
  EXPECT_TRUE(outcome.ok()) << (outcome.violations.empty()
                                    ? ""
                                    : outcome.violations.front().detail);
  EXPECT_TRUE(outcome.digest_checked);
  EXPECT_EQ(outcome.elastic.digest, outcome.baseline_digest);
}

}  // namespace
}  // namespace waif::experiments
