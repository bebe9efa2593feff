#include "experiments/elastic_fleet.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "experiments/invariant_monitor.h"
#include "experiments/parallel_runner.h"

namespace waif::experiments {
namespace {

ElasticFleetConfig small_elastic() {
  ElasticFleetConfig config;
  config.base.shards = 4;
  config.base.population.devices = 1500;
  config.base.population.topics = 96;
  config.base.publishes = 3000;
  config.base.horizon = kDay;
  config.base.seed = 7;
  config.checkpoints = 8;
  // Stretch the protocol steps so hold windows are long enough (roughly an
  // hour per moving topic) that the trace actually publishes into them —
  // exercising the hold-then-drain path, not just the quiet flip.
  config.migration.ship_latency = 40 * kMinute;
  config.migration.replay_latency = 10 * kMinute;
  config.migration.fold_latency = 10 * kMinute;
  return config;
}

std::vector<ElasticResize> grow_and_shrink() {
  // Grow 4 -> 6 a quarter in, shrink back past the midpoint. Both instants
  // sit on checkpoint boundaries (kDay / 8 steps).
  return {{6 * kHour, 6}, {15 * kHour, 4}};
}

/// The acceptance bar everything below leans on: the digest of a resized,
/// faulted run must equal the never-resized, fault-free run of the same
/// trace.
std::uint64_t fixed_digest(const ElasticFleetConfig& config) {
  ElasticFleetConfig fixed = config;
  fixed.resizes.clear();
  ParallelRunner runner(1);
  return ElasticFleet(fixed).run(runner).digest;
}

TEST(ElasticFleetTest, FixedTopologyRunIsDeterministic) {
  const ElasticFleet fleet(small_elastic());
  ParallelRunner runner(2);
  const ElasticOutcome a = fleet.run(runner);
  const ElasticOutcome b = fleet.run(runner);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_GT(a.deliveries, 0u);
  EXPECT_GT(a.wal_records, 0u);
  EXPECT_EQ(a.migrations, 0u);
  EXPECT_EQ(a.final_shards, 4u);
}

TEST(ElasticFleetTest, GrowAndShrinkKeepTheDeliveryDigest) {
  ElasticFleetConfig config = small_elastic();
  config.resizes = grow_and_shrink();
  const ElasticFleet fleet(config);
  ParallelRunner runner(2);
  InvariantMonitor monitor;
  const ElasticOutcome elastic = fleet.run(runner, {}, &monitor);

  EXPECT_EQ(elastic.digest, fixed_digest(config));
  EXPECT_EQ(elastic.final_shards, 4u);
  EXPECT_EQ(elastic.resizes_applied, 2u);
  EXPECT_EQ(elastic.resizes_abandoned, 0u);
  EXPECT_GT(elastic.migrations_done, 0u);
  EXPECT_EQ(elastic.migrations_rolled_back, 0u);
  EXPECT_GT(elastic.held, 0u);
  EXPECT_GT(elastic.max_pause, 0);
  EXPECT_EQ(elastic.seq_violations, 0u);
  EXPECT_TRUE(monitor.ok()) << monitor.violations().size() << " violations, "
                            << (monitor.ok()
                                    ? ""
                                    : monitor.violations().front().invariant);
}

TEST(ElasticFleetTest, OutcomeIsIdenticalAcrossWorkerCounts) {
  ElasticFleetConfig config = small_elastic();
  config.resizes = grow_and_shrink();
  const ElasticFleet fleet(config);
  ParallelRunner sequential(1);
  ParallelRunner parallel(4);
  const ElasticOutcome a = fleet.run(sequential);
  const ElasticOutcome b = fleet.run(parallel);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.publishes_routed, b.publishes_routed);
  EXPECT_EQ(a.held, b.held);
  EXPECT_EQ(a.wal_records, b.wal_records);
  EXPECT_EQ(a.migrations_done, b.migrations_done);
  EXPECT_EQ(a.max_pause, b.max_pause);
  ASSERT_EQ(a.lineage.size(), b.lineage.size());
  for (std::size_t n = 0; n < a.lineage.size(); ++n) {
    EXPECT_EQ(a.lineage[n].wal_records, b.lineage[n].wal_records);
  }
}

TEST(ElasticFleetTest, EveryNodeLineageStaysCleanThroughResizes) {
  ElasticFleetConfig config = small_elastic();
  config.resizes = grow_and_shrink();
  ParallelRunner runner(2);
  const ElasticOutcome outcome = ElasticFleet(config).run(runner);
  ASSERT_EQ(outcome.lineage.size(), 4u);
  for (const storage::WalLineage& lineage : outcome.lineage) {
    EXPECT_TRUE(lineage.clean);
    EXPECT_GT(lineage.wal_records, 0u);
    // Shipped mig-* blobs were GC'd at kDone; fsck counts any survivor as
    // an unknown blob and wal_lineage would flag the backend unclean.
  }
}

TEST(ElasticFleetTest, HeldTrafficIsConserved) {
  ElasticFleetConfig config = small_elastic();
  config.resizes = grow_and_shrink();
  ParallelRunner runner(2);
  InvariantMonitor monitor;
  const ElasticOutcome elastic =
      ElasticFleet(config).run(runner, {}, &monitor);

  ElasticFleetConfig fixed = config;
  fixed.resizes.clear();
  const ElasticOutcome baseline = ElasticFleet(fixed).run(runner);

  // Every managed trace event reaches an owner exactly once, held or not.
  EXPECT_EQ(elastic.publishes_routed, baseline.publishes_routed);
  EXPECT_GT(elastic.held, 0u);
  EXPECT_EQ(baseline.held, 0u);
  EXPECT_TRUE(monitor.ok());
}

TEST(ElasticFleetTest, StorageWindowForcesRetriesButConverges) {
  ElasticFleetConfig config = small_elastic();
  config.resizes = grow_and_shrink();
  ElasticFaults faults;
  faults.storage_windows.push_back({5 * kHour, 8 * kHour, 0.55});
  ParallelRunner runner(2);
  InvariantMonitor monitor;
  const ElasticOutcome outcome =
      ElasticFleet(config).run(runner, faults, &monitor);

  EXPECT_GT(outcome.migration_retries, 0u);
  EXPECT_EQ(outcome.digest, fixed_digest(config));
  EXPECT_TRUE(monitor.ok());
}

TEST(ElasticFleetTest, TotalStorageFailureAbandonsTheShrinkSafely) {
  ElasticFleetConfig config = small_elastic();
  config.resizes = grow_and_shrink();
  ElasticFaults faults;
  // Every durable protocol step inside the window fails: the shrink's
  // migrations all roll back and the fleet keeps the extra nodes.
  faults.storage_windows.push_back({14 * kHour, 17 * kHour, 1.0});
  ParallelRunner runner(2);
  InvariantMonitor monitor;
  const ElasticOutcome outcome =
      ElasticFleet(config).run(runner, faults, &monitor);

  EXPECT_EQ(outcome.resizes_abandoned, 1u);
  EXPECT_EQ(outcome.final_shards, 6u);
  EXPECT_GT(outcome.migrations_rolled_back, 0u);
  EXPECT_EQ(outcome.digest, fixed_digest(config));
  EXPECT_TRUE(monitor.ok());
  ASSERT_EQ(outcome.lineage.size(), 6u);
  for (const storage::WalLineage& lineage : outcome.lineage) {
    EXPECT_TRUE(lineage.clean);
  }
}

TEST(ElasticFleetTest, NodeCrashesAtBoundariesKeepTheDigest) {
  ElasticFleetConfig config = small_elastic();
  config.resizes = grow_and_shrink();
  ElasticFaults faults;
  faults.node_crashes.push_back({9 * kHour, 1});
  faults.node_crashes.push_back({18 * kHour, 0});
  faults.record_crashes.push_back({2, 200});
  ParallelRunner runner(2);
  InvariantMonitor monitor;
  const ElasticOutcome outcome =
      ElasticFleet(config).run(runner, faults, &monitor);

  EXPECT_EQ(outcome.crashes, 3u);
  EXPECT_EQ(outcome.digest, fixed_digest(config));
  EXPECT_TRUE(monitor.ok());
}

// --- crash at every migration journal stage --------------------------------

enum class Victim { kSource = 0, kDest = 1, kJournal = 2 };

const char* victim_name(Victim victim) {
  switch (victim) {
    case Victim::kSource:
      return "source";
    case Victim::kDest:
      return "dest";
    case Victim::kJournal:
      return "journal";
  }
  return "?";
}

using CrashPoint = std::tuple<MigrationStage, Victim>;

class MigrationCrashPointTest : public ::testing::TestWithParam<CrashPoint> {};

TEST_P(MigrationCrashPointTest, RecoversToSingleOwnerAndConverges) {
  const auto [stage, victim] = GetParam();
  ElasticFleetConfig config = small_elastic();
  config.resizes = grow_and_shrink();

  ElasticFaults faults;
  ElasticFaults::MigrationCrash crash;
  crash.stage = stage;
  crash.source = victim == Victim::kSource;
  crash.dest = victim == Victim::kDest;
  crash.journal = victim == Victim::kJournal;
  faults.migration_crashes.push_back(crash);

  ParallelRunner runner(2);
  InvariantMonitor monitor;
  const ElasticOutcome outcome =
      ElasticFleet(config).run(runner, faults, &monitor);

  // The interrupted migration resolved per the resume rule: rolled back
  // before the flip, rolled forward at or past it — and either way the
  // run converged to the fixed-topology digest with exactly one owner per
  // topic at every checkpoint, no lost or duplicated deliveries.
  EXPECT_EQ(outcome.digest, fixed_digest(config))
      << migration_stage_name(stage) << "/" << victim_name(victim);
  EXPECT_TRUE(monitor.ok())
      << monitor.violations().front().invariant << ": "
      << monitor.violations().front().detail;
  EXPECT_EQ(outcome.seq_violations, 0u);
  if (victim != Victim::kJournal) {
    EXPECT_GT(outcome.crashes, 0u);
  }
  if (migration_resume_action(stage) == MigrationResume::kRollBack) {
    EXPECT_GT(outcome.migrations_rolled_back, 0u);
  } else {
    EXPECT_GT(outcome.migrations_done, 0u);
  }
  // The run still finished both resizes or abandoned them explicitly.
  EXPECT_EQ(outcome.resizes_applied + outcome.resizes_abandoned, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    EveryStageTimesEveryVictim, MigrationCrashPointTest,
    ::testing::Combine(::testing::Values(MigrationStage::kPlanned,
                                         MigrationStage::kQuiesced,
                                         MigrationStage::kShipped,
                                         MigrationStage::kReplayed,
                                         MigrationStage::kFlipped,
                                         MigrationStage::kDrained),
                       ::testing::Values(Victim::kSource, Victim::kDest,
                                         Victim::kJournal)),
    [](const ::testing::TestParamInfo<CrashPoint>& point) {
      return std::string(
                 migration_stage_name(std::get<0>(point.param))) +
             "_" + victim_name(std::get<1>(point.param));
    });

// ---------------------------------------------------------------------------
// Config validation: harnesses compose resize schedules programmatically,
// so an ill-formed schedule must fail loudly at construction — as a
// catchable std::invalid_argument naming the offending entry — not deep in
// run() as an abort.

TEST(ElasticFleetValidationTest, RejectsNonMonotoneResizeInstants) {
  ElasticFleetConfig config = small_elastic();
  config.resizes = {{6 * kHour, 6}, {6 * kHour, 4}};
  try {
    ElasticFleet fleet(config);
    FAIL() << "duplicate instants must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("resizes[1]"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("strictly increasing"),
              std::string::npos);
  }
  config.resizes = {{6 * kHour, 6}, {3 * kHour, 4}};
  EXPECT_THROW(ElasticFleet{config}, std::invalid_argument);
}

TEST(ElasticFleetValidationTest, RejectsShrinkingBelowOneShard) {
  ElasticFleetConfig config = small_elastic();
  config.resizes = {{6 * kHour, 0}};
  try {
    ElasticFleet fleet(config);
    FAIL() << "shrink to zero shards must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("cannot shrink below 1 shard"),
              std::string::npos);
  }
}

TEST(ElasticFleetValidationTest, RejectsResizesOutsideTheTrace) {
  ElasticFleetConfig config = small_elastic();
  config.resizes = {{config.base.horizon, 6}};
  try {
    ElasticFleet fleet(config);
    FAIL() << "resize at the horizon must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("outside [0, horizon)"),
              std::string::npos);
  }
  config.resizes = {{-kMinute, 6}};
  EXPECT_THROW(ElasticFleet{config}, std::invalid_argument);
}

TEST(ElasticFleetValidationTest, RejectsOutOfRangeExtraPublishes) {
  ElasticFleetConfig config = small_elastic();
  config.extra_publishes = {{config.base.horizon + kMinute, 0, 0.5, 0}};
  EXPECT_THROW(ElasticFleet{config}, std::invalid_argument);

  config = small_elastic();
  config.extra_publishes = {
      {kHour, config.base.population.topics, 0.5, 0}};
  try {
    ElasticFleet fleet(config);
    FAIL() << "out-of-range topic must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("out of range"),
              std::string::npos);
  }
}

TEST(ElasticFleetValidationTest, AWellFormedScheduleStillConstructs) {
  ElasticFleetConfig config = small_elastic();
  config.resizes = {{6 * kHour, 6}, {15 * kHour, 4}};
  config.extra_publishes = {{kHour, 0, 0.5, 0}};
  EXPECT_NO_THROW(ElasticFleet{config});
}

}  // namespace
}  // namespace waif::experiments
