#include "common/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/rng.h"

namespace waif {
namespace {

constexpr int kSamples = 200000;

template <typename Sampler>
std::pair<double, double> mean_and_variance(const Sampler& sampler, Rng& rng,
                                            int samples = kSamples) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double value = static_cast<double>(sampler(rng));
    sum += value;
    sum_sq += value * value;
  }
  const double mean = sum / samples;
  return {mean, sum_sq / samples - mean * mean};
}

TEST(UniformRealTest, StaysInRange) {
  Rng rng(1);
  const UniformReal uniform(2.0, 5.0);
  for (int i = 0; i < 10000; ++i) {
    const double value = uniform(rng);
    EXPECT_GE(value, 2.0);
    EXPECT_LT(value, 5.0);
  }
}

TEST(UniformRealTest, MeanAndVariance) {
  Rng rng(2);
  auto [mean, variance] = mean_and_variance(UniformReal(0.0, 10.0), rng);
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(variance, 100.0 / 12.0, 0.2);
}

TEST(UniformRealTest, DegenerateRange) {
  Rng rng(3);
  const UniformReal uniform(4.0, 4.0);
  EXPECT_DOUBLE_EQ(uniform(rng), 4.0);
}

TEST(UniformIntTest, InclusiveBounds) {
  Rng rng(4);
  const UniformInt uniform(-3, 3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t value = uniform(rng);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    saw_lo |= value == -3;
    saw_hi |= value == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(BernoulliTest, ExtremesAreDeterministic) {
  Rng rng(5);
  const Bernoulli never(0.0);
  const Bernoulli always(1.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(never(rng));
    EXPECT_TRUE(always(rng));
  }
}

TEST(BernoulliTest, FrequencyMatchesP) {
  Rng rng(6);
  const Bernoulli coin(0.3);
  int heads = 0;
  for (int i = 0; i < kSamples; ++i) heads += coin(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / kSamples, 0.3, 0.01);
}

TEST(ExponentialTest, MeanAndVariance) {
  Rng rng(7);
  auto [mean, variance] = mean_and_variance(Exponential(4.0), rng);
  EXPECT_NEAR(mean, 4.0, 0.1);
  EXPECT_NEAR(variance, 16.0, 0.8);  // var = mean^2
}

TEST(ExponentialTest, NonNegative) {
  Rng rng(8);
  const Exponential exponential(1.0);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(exponential(rng), 0.0);
}

TEST(ExponentialTest, ZeroMeanYieldsZero) {
  Rng rng(9);
  const Exponential exponential(0.0);
  EXPECT_DOUBLE_EQ(exponential(rng), 0.0);
}

TEST(NormalTest, MeanAndStddev) {
  Rng rng(10);
  auto [mean, variance] = mean_and_variance(Normal(12.0, 3.0), rng);
  EXPECT_NEAR(mean, 12.0, 0.05);
  EXPECT_NEAR(std::sqrt(variance), 3.0, 0.05);
}

TEST(NormalTest, ZeroStddevIsConstant) {
  Rng rng(11);
  const Normal normal(7.0, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(normal(rng), 7.0);
}

TEST(LogNormalTest, TargetsTheMean) {
  Rng rng(12);
  auto [mean, variance] = mean_and_variance(LogNormal(100.0, 1.0), rng);
  EXPECT_NEAR(mean, 100.0, 3.0);
  EXPECT_GT(variance, 100.0 * 100.0);  // heavy-tailed: CV > 1
}

TEST(LogNormalTest, AlwaysPositive) {
  Rng rng(13);
  const LogNormal lognormal(5.0, 2.0);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(lognormal(rng), 0.0);
}

TEST(PoissonTest, SmallMean) {
  Rng rng(14);
  auto [mean, variance] = mean_and_variance(Poisson(3.5), rng);
  EXPECT_NEAR(mean, 3.5, 0.05);
  EXPECT_NEAR(variance, 3.5, 0.15);
}

TEST(PoissonTest, LargeMeanUsesNormalApproximation) {
  Rng rng(15);
  auto [mean, variance] = mean_and_variance(Poisson(200.0), rng, 50000);
  EXPECT_NEAR(mean, 200.0, 1.0);
  EXPECT_NEAR(variance, 200.0, 10.0);
}

TEST(PoissonTest, ZeroMean) {
  Rng rng(16);
  const Poisson poisson(0.0);
  EXPECT_EQ(poisson(rng), 0);
}

TEST(DurationShapeTest, ParseRoundTrips) {
  for (auto shape :
       {DurationShape::kConstant, DurationShape::kExponential,
        DurationShape::kUniform, DurationShape::kNormal}) {
    EXPECT_EQ(parse_duration_shape(to_string(shape)), shape);
  }
}

TEST(DurationShapeTest, ParseRejectsUnknown) {
  EXPECT_THROW(parse_duration_shape("weibull"), std::invalid_argument);
}

struct DurationCase {
  DurationShape shape;
  double mean_tolerance;  // relative
};

class DurationDistributionTest : public ::testing::TestWithParam<DurationCase> {};

TEST_P(DurationDistributionTest, MeanMatchesAndNonNegative) {
  Rng rng(17);
  const SimDuration target = hours(4.0);
  const DurationDistribution dist(GetParam().shape, target);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const SimDuration value = dist(rng);
    ASSERT_GE(value, 0);
    sum += static_cast<double>(value);
  }
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean / static_cast<double>(target), 1.0,
              GetParam().mean_tolerance);
}

// gtest prints a DurationCase's raw bytes into the test name, padding after
// `shape` included. Static storage zero-fills that padding; cases built on
// the stack would name the tests after whatever the stack last held.
constexpr DurationCase kDurationCases[] = {
    {DurationShape::kConstant, 1e-9},
    {DurationShape::kExponential, 0.02},
    {DurationShape::kUniform, 0.02},
    {DurationShape::kNormal, 0.02}};

INSTANTIATE_TEST_SUITE_P(AllShapes, DurationDistributionTest,
                         ::testing::ValuesIn(kDurationCases));

TEST(DurationDistributionTest, ZeroMean) {
  Rng rng(18);
  const DurationDistribution dist(DurationShape::kExponential, 0);
  EXPECT_EQ(dist(rng), 0);
}

TEST(ZipfTest, StaysInRange) {
  Rng rng(20);
  const Zipf zipf(100, 1.1);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t value = zipf(rng);
    ASSERT_GE(value, 1u);
    ASSERT_LE(value, 100u);
  }
}

TEST(ZipfTest, SingleElementDomain) {
  Rng rng(21);
  const Zipf zipf(1, 1.1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf(rng), 1u);
}

TEST(ZipfTest, DeterministicAcrossInstances) {
  // Same (n, s, seed) => same stream; the population generator's
  // reproducibility rests on this.
  Rng rng_a(42);
  Rng rng_b(42);
  const Zipf zipf_a(1000, 1.1);
  const Zipf zipf_b(1000, 1.1);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(zipf_a(rng_a), zipf_b(rng_b));
}

TEST(ZipfTest, GoldenSequence) {
  // Pinned draws: a change here means every committed population digest and
  // fleet golden shifts too. Do not update casually.
  Rng rng(42);
  const Zipf zipf(1000, 1.1);
  const std::uint64_t expected[] = {2, 48, 1, 3, 2, 6, 270, 6, 124, 1};
  for (const std::uint64_t want : expected) EXPECT_EQ(zipf(rng), want);
}

TEST(ZipfTest, PmfSumsToOne) {
  const Zipf zipf(50, 1.2);
  double sum = 0.0;
  for (std::uint64_t k = 1; k <= 50; ++k) sum += zipf.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// Chi-square goodness of fit of the sampler against the exact pmf over the
// full n=50 support. 49 degrees of freedom: the 99.9th percentile is ~85.4,
// and the fixed seed makes the statistic reproducible (measured ~57).
class ZipfChiSquareTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfChiSquareTest, MatchesPmf) {
  const double s = GetParam();
  const Zipf zipf(50, s);
  Rng rng(7);
  constexpr int kDraws = 200000;
  std::vector<double> observed(50, 0.0);
  for (int i = 0; i < kDraws; ++i) observed[zipf(rng) - 1] += 1.0;
  double chi_square = 0.0;
  for (std::uint64_t k = 1; k <= 50; ++k) {
    const double expected = kDraws * zipf.pmf(k);
    const double diff = observed[k - 1] - expected;
    chi_square += diff * diff / expected;
  }
  EXPECT_LT(chi_square, 85.4);
}

// s == 1 exercises the harmonic special case of h_integral (log/exp instead
// of the powers-of-(1-s) branch).
INSTANTIATE_TEST_SUITE_P(Exponents, ZipfChiSquareTest,
                         ::testing::Values(1.2, 1.0, 0.8));

TEST(ZipfTest, HeadMassMatchesPmf) {
  // Heavy-tail shape at population scale: the top-10 topics of 1000 carry
  // ~48% of the mass at s = 1.1.
  const Zipf zipf(1000, 1.1);
  Rng rng(9);
  constexpr int kDraws = 100000;
  int head = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf(rng) <= 10) ++head;
  }
  double exact = 0.0;
  for (std::uint64_t k = 1; k <= 10; ++k) exact += zipf.pmf(k);
  EXPECT_NEAR(static_cast<double>(head) / kDraws, exact, 0.01);
}

TEST(ZipfTest, RejectsInvalidParameters) {
  EXPECT_THROW(Zipf(0, 1.1), std::invalid_argument);
  EXPECT_THROW(Zipf(10, 0.0), std::invalid_argument);
  EXPECT_THROW(Zipf(10, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace waif
