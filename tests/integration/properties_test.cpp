// Property-style parameterized suites over the experiment harness: the
// paper's closed-form waste formula, policy invariants that must hold at any
// point of the parameter space, and monotonicity properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>

#include "common/time.h"
#include "experiments/runner.h"

namespace waif::experiments {
namespace {

using core::PolicyConfig;
using core::PolicyKind;
using workload::ScenarioConfig;

ScenarioConfig base_config() {
  ScenarioConfig config;
  config.horizon = 60 * kDay;
  config.event_frequency = 32.0;
  config.user_frequency = 2.0;
  config.max = 8;
  return config;
}

// ---------------------------------------------------------------------------
// Figure 1's closed form: waste% = 100 * (1 - uf*Max/ef), clamped at 0.
// ---------------------------------------------------------------------------

class OverflowFormulaTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(OverflowFormulaTest, OnlineWasteMatchesFormula) {
  const auto [user_frequency, max] = GetParam();
  ScenarioConfig config = base_config();
  config.user_frequency = user_frequency;
  config.max = max;

  const Comparison comparison =
      compare_policies(config, PolicyConfig::online(), /*seed=*/21);
  const double predicted =
      std::max(0.0, 100.0 * (1.0 - user_frequency * max / 32.0));
  // Generous tolerance: short horizon + discreteness of daily reads.
  EXPECT_NEAR(comparison.waste_percent, predicted, 8.0)
      << "uf=" << user_frequency << " max=" << max;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OverflowFormulaTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0),
                       ::testing::Values(1, 4, 8, 32)),
    [](const ::testing::TestParamInfo<std::tuple<double, int>>& param_info) {
      const double uf = std::get<0>(param_info.param);
      const int max = std::get<1>(param_info.param);
      return "uf" + std::to_string(static_cast<int>(uf * 100)) + "_max" +
             std::to_string(max);
    });

// ---------------------------------------------------------------------------
// Invariants that hold for every policy across mixed conditions.
// ---------------------------------------------------------------------------

struct PolicyCase {
  PolicyKind kind;
  const char* name;
};

// Without this gtest prints the struct's raw bytes (padding and the `name`
// pointer included) into every test's listed parameter, which then differs
// from run to run.
void PrintTo(const PolicyCase& policy_case, std::ostream* os) {
  *os << policy_case.name;
}

class PolicyInvariantsTest
    : public ::testing::TestWithParam<std::tuple<PolicyCase, double>> {
 protected:
  static PolicyConfig policy_for(PolicyKind kind) {
    switch (kind) {
      case PolicyKind::kOnline: return PolicyConfig::online();
      case PolicyKind::kOnDemand: return PolicyConfig::on_demand();
      case PolicyKind::kBufferPrefetch: return PolicyConfig::buffer(16);
      case PolicyKind::kRatePrefetch: return PolicyConfig::rate(0.0);
      case PolicyKind::kAdaptive: return PolicyConfig::adaptive();
    }
    return PolicyConfig::online();
  }
};

TEST_P(PolicyInvariantsTest, MetricsAreSaneAndConsistent) {
  const auto [policy_case, outage] = GetParam();
  ScenarioConfig config = base_config();
  config.horizon = 30 * kDay;
  config.outage_fraction = outage;
  config.mean_expiration = hours(12.0);

  const Comparison comparison =
      compare_policies(config, policy_for(policy_case.kind), /*seed=*/22);

  // Percentages are percentages.
  EXPECT_GE(comparison.waste_percent, 0.0);
  EXPECT_LE(comparison.waste_percent, 100.0);
  EXPECT_GE(comparison.loss_percent, 0.0);
  EXPECT_LE(comparison.loss_percent, 100.0);

  // Every read message crossed the link first.
  EXPECT_LE(comparison.policy.read_ids.size(),
            comparison.policy.forwarded_unique);
  // The user cannot read more than the trace offered.
  EXPECT_LE(comparison.policy.read_ids.size(),
            comparison.policy.topic.arrivals);
  // Downlink messages at least the distinct forwards.
  EXPECT_GE(comparison.policy.link.downlink_messages,
            comparison.policy.forwarded_unique);
  // The baseline never loses: its read set is the reference.
  EXPECT_EQ(metrics::loss_percent(comparison.baseline.read_ids,
                                  comparison.baseline.read_ids),
            0.0);
}

TEST_P(PolicyInvariantsTest, NoTrafficWhileLinkDownEver) {
  const auto [policy_case, outage] = GetParam();
  if (outage < 1.0) GTEST_SKIP() << "only meaningful at full outage";
  ScenarioConfig config = base_config();
  config.horizon = 30 * kDay;
  config.outage_fraction = 1.0;
  const Comparison comparison =
      compare_policies(config, policy_for(policy_case.kind), /*seed=*/23);
  EXPECT_EQ(comparison.policy.link.downlink_messages, 0u);
  EXPECT_EQ(comparison.policy.link.uplink_messages, 0u);
  EXPECT_TRUE(comparison.policy.read_ids.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PolicyInvariantsTest,
    ::testing::Combine(
        ::testing::Values(PolicyCase{PolicyKind::kOnline, "online"},
                          PolicyCase{PolicyKind::kOnDemand, "ondemand"},
                          PolicyCase{PolicyKind::kBufferPrefetch, "buffer"},
                          PolicyCase{PolicyKind::kRatePrefetch, "rate"},
                          PolicyCase{PolicyKind::kAdaptive, "adaptive"}),
        ::testing::Values(0.0, 0.5, 1.0)),
    [](const ::testing::TestParamInfo<std::tuple<PolicyCase, double>>&
           param_info) {
      const PolicyCase& policy_case = std::get<0>(param_info.param);
      const double outage = std::get<1>(param_info.param);
      return std::string(policy_case.name) + "_outage" +
             std::to_string(static_cast<int>(outage * 100));
    });

// ---------------------------------------------------------------------------
// Monotonicity of buffer-based prefetching in the prefetch limit (Figure 3).
// ---------------------------------------------------------------------------

class PrefetchLimitTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrefetchLimitTest, WasteAndLossStayBounded) {
  ScenarioConfig config = base_config();
  config.outage_fraction = 0.5;
  const Comparison comparison = compare_policies(
      config, PolicyConfig::buffer(GetParam()), /*seed=*/24);
  EXPECT_GE(comparison.waste_percent, 0.0);
  EXPECT_LE(comparison.waste_percent, 100.0);
  EXPECT_GE(comparison.loss_percent, 0.0);
  EXPECT_LE(comparison.loss_percent, 100.0);
}

INSTANTIATE_TEST_SUITE_P(Limits, PrefetchLimitTest,
                         ::testing::Values(1, 4, 16, 64, 256, 4096));

TEST(PrefetchLimitOrderTest, LossDecreasesWithLimit) {
  ScenarioConfig config = base_config();
  config.outage_fraction = 0.7;
  double previous = 101.0;
  for (std::size_t limit : {1u, 16u, 256u}) {
    const Comparison comparison =
        compare_policies(config, PolicyConfig::buffer(limit), /*seed=*/25);
    EXPECT_LE(comparison.loss_percent, previous + 2.0)
        << "limit " << limit;  // small tolerance for noise
    previous = comparison.loss_percent;
  }
}

TEST(PrefetchLimitOrderTest, WasteGrowsWithLimit) {
  ScenarioConfig config = base_config();
  config.outage_fraction = 0.3;
  const Comparison small =
      compare_policies(config, PolicyConfig::buffer(16), /*seed=*/26);
  const Comparison large =
      compare_policies(config, PolicyConfig::buffer(1 << 16), /*seed=*/26);
  EXPECT_LE(small.waste_percent, large.waste_percent + 1.0);
  EXPECT_GT(large.waste_percent, 30.0);  // overflow regime: ~50% expected
}

// ---------------------------------------------------------------------------
// Expiration-threshold behaviour (Figure 6's two regimes).
// ---------------------------------------------------------------------------

class ExpirationThresholdTest : public ::testing::TestWithParam<SimDuration> {};

TEST_P(ExpirationThresholdTest, PercentagesWellFormed) {
  ScenarioConfig config = base_config();
  config.horizon = 60 * kDay;
  config.outage_fraction = 0.9;
  config.mean_expiration = 5 * kDay;
  const Comparison comparison = compare_policies(
      config, PolicyConfig::buffer(64, GetParam()), /*seed=*/27);
  EXPECT_GE(comparison.waste_percent, 0.0);
  EXPECT_LE(comparison.waste_percent, 100.0);
  EXPECT_GE(comparison.loss_percent, 0.0);
  EXPECT_LE(comparison.loss_percent, 100.0);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ExpirationThresholdTest,
                         ::testing::Values(seconds(16.0), seconds(1024.0),
                                           hours(8.0), days(4.0), days(32.0)));

TEST(ExpirationThresholdRegimeTest, HugeThresholdForfeitsPrefetching) {
  // "too high of a threshold is as bad as no prefetching at all": with every
  // event held back, losses climb to a plateau far above the sweet spot.
  ScenarioConfig config = base_config();
  config.outage_fraction = 0.9;
  config.mean_expiration = 5 * kDay;
  const Comparison huge = compare_policies(
      config, PolicyConfig::buffer(64, 365 * kDay), /*seed=*/28);
  const Comparison sweet = compare_policies(
      config, PolicyConfig::buffer(64, hours(8.0)), /*seed=*/28);
  EXPECT_GT(huge.loss_percent, 15.0);
  EXPECT_GT(huge.loss_percent, 3.0 * sweet.loss_percent);
  // No event clears a year-long threshold: nothing is ever prefetched.
  EXPECT_EQ(huge.policy.topic.prefetch_forwards, 0u);
}

TEST(ExpirationThresholdRegimeTest, ReadIntervalThresholdIsInTheSweetSpot) {
  // With lifetimes an order of magnitude above the read interval, setting
  // the threshold to the read interval (8h at uf=2) keeps both metrics low.
  ScenarioConfig config = base_config();
  config.horizon = 120 * kDay;
  config.outage_fraction = 0.9;
  config.mean_expiration = 5 * kDay;  // ~15x the 8h read interval
  const Comparison comparison = compare_policies(
      config, PolicyConfig::buffer(16, hours(8.0)), /*seed=*/29);
  EXPECT_LT(comparison.waste_percent, 15.0);
  EXPECT_LT(comparison.loss_percent, 15.0);
}

// ---------------------------------------------------------------------------
// Determinism across the whole grid.
// ---------------------------------------------------------------------------

class DeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismTest, RepeatRunsIdentical) {
  ScenarioConfig config = base_config();
  config.horizon = 20 * kDay;
  config.outage_fraction = 0.4;
  config.mean_expiration = hours(8.0);
  config.rank_drop_fraction = 0.1;
  const Comparison a =
      compare_policies(config, PolicyConfig::adaptive(), GetParam());
  const Comparison b =
      compare_policies(config, PolicyConfig::adaptive(), GetParam());
  EXPECT_EQ(a.policy.read_ids, b.policy.read_ids);
  EXPECT_EQ(a.policy.link.downlink_messages, b.policy.link.downlink_messages);
  EXPECT_DOUBLE_EQ(a.waste_percent, b.waste_percent);
  EXPECT_DOUBLE_EQ(a.loss_percent, b.loss_percent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1, 2, 3, 99, 12345));

}  // namespace
}  // namespace waif::experiments
