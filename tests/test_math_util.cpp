/// Unit tests for adc::common math helpers.
#include "common/math_util.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "oracles/linear_fit.hpp"

namespace ac = adc::common;

TEST(MathUtil, DbFromPowerRatio) {
  EXPECT_DOUBLE_EQ(ac::db_from_power_ratio(1.0), 0.0);
  EXPECT_DOUBLE_EQ(ac::db_from_power_ratio(10.0), 10.0);
  EXPECT_NEAR(ac::db_from_power_ratio(2.0), 3.0103, 1e-3);
}

TEST(MathUtil, DbFromAmplitudeRatio) {
  EXPECT_DOUBLE_EQ(ac::db_from_amplitude_ratio(10.0), 20.0);
  EXPECT_NEAR(ac::db_from_amplitude_ratio(2.0), 6.0206, 1e-3);
}

TEST(MathUtil, EnobConventions) {
  // The classic identity: a perfect 12-bit converter has SNDR 74.0 dB.
  EXPECT_NEAR(ac::enob_from_sndr_db(74.0), 12.0, 0.01);
  // Paper Table I: SNDR 64.2 dB <-> ENOB 10.4.
  EXPECT_NEAR(ac::enob_from_sndr_db(64.2), 10.37, 0.01);
}

TEST(MathUtil, IsPowerOfTwo) {
  EXPECT_TRUE(ac::is_power_of_two(1));
  EXPECT_TRUE(ac::is_power_of_two(2));
  EXPECT_TRUE(ac::is_power_of_two(4096));
  EXPECT_FALSE(ac::is_power_of_two(0));
  EXPECT_FALSE(ac::is_power_of_two(3));
  EXPECT_FALSE(ac::is_power_of_two(4095));
}

TEST(MathUtil, MeanVarianceRms) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ac::mean(x), 2.5);
  EXPECT_DOUBLE_EQ(ac::variance(x), 1.25);
  EXPECT_DOUBLE_EQ(ac::std_dev(x), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(ac::rms(x), std::sqrt(30.0 / 4.0));
}

TEST(MathUtil, EmptyStatsAreZero) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(ac::mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(ac::variance(empty), 0.0);
  EXPECT_DOUBLE_EQ(ac::rms(empty), 0.0);
}

TEST(MathUtil, MinMax) {
  const std::vector<double> x{3.0, -1.0, 2.0};
  const auto mm = ac::min_max(x);
  EXPECT_DOUBLE_EQ(mm.min, -1.0);
  EXPECT_DOUBLE_EQ(mm.max, 3.0);
  EXPECT_THROW((void)ac::min_max(std::vector<double>{}), ac::ConfigError);
}

TEST(MathUtil, LinearFitExact) {
  const std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  std::vector<double> y;
  for (double v : x) y.push_back(2.5 * v - 1.0);
  const auto fit = ac::linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(MathUtil, LinearFitNoisyR2BelowOne) {
  const std::vector<double> x{0.0, 1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{0.1, 0.9, 2.2, 2.8, 4.1};
  const auto fit = ac::linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 1.0, 0.1);
  EXPECT_LT(fit.r_squared, 1.0);
  EXPECT_GT(fit.r_squared, 0.98);
}

TEST(MathUtil, LinearFitErrors) {
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)ac::linear_fit(one, one), ac::ConfigError);
  const std::vector<double> x{1.0, 1.0};
  const std::vector<double> y{1.0, 2.0};
  EXPECT_THROW((void)ac::linear_fit(x, y), ac::ConfigError);
}

TEST(MathUtil, Clamp) {
  EXPECT_DOUBLE_EQ(ac::clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(ac::clamp(-2.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ac::clamp(9.0, 0.0, 1.0), 1.0);
}
