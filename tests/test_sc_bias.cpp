/// Unit tests for the SC bias current generator — the paper's eq. (1):
/// I_BIAS = C_B * f_CR * V_BIAS.
#include "bias/sc_bias.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"
#include "oracles/linear_fit.hpp"

namespace ab = adc::bias;

namespace {

ab::ScBiasSpec clean_spec() {
  ab::ScBiasSpec s;
  s.cb = {12e-12, 0.0, 0.0};
  s.v_bias = 0.6;
  s.ota_gain = 1e9;  // no loop error for the equation checks
  s.ripple_sigma = 0.0;
  return s;
}

}  // namespace

TEST(ScBias, EquationOne) {
  adc::common::Rng rng(1);
  const ab::ScBiasGenerator gen(clean_spec(), rng);
  EXPECT_NEAR(gen.master_current(110e6), 12e-12 * 110e6 * 0.6, 1e-12);
  EXPECT_NEAR(gen.master_current(20e6), 12e-12 * 20e6 * 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(gen.master_current(0.0), 0.0);
}

TEST(ScBias, LinearInConversionRate) {
  adc::common::Rng rng(2);
  const ab::ScBiasGenerator gen(clean_spec(), rng);
  std::vector<double> f;
  std::vector<double> i;
  for (double rate = 10e6; rate <= 200e6; rate += 10e6) {
    f.push_back(rate);
    i.push_back(gen.master_current(rate));
  }
  const auto fit = adc::common::linear_fit(f, i);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 0.0, 1e-15);
  EXPECT_NEAR(fit.slope, 12e-12 * 0.6, 1e-20);
}

TEST(ScBias, TracksAbsoluteCapacitance) {
  // The feature a fixed generator lacks: the current follows the realized
  // C_B across process corners, so the bias always matches the load the
  // stages actually present.
  for (double corner : {-0.2, 0.0, 0.2}) {
    auto spec = clean_spec();
    spec.cb.global_spread = corner;
    adc::common::Rng rng(3);
    const ab::ScBiasGenerator gen(spec, rng);
    EXPECT_NEAR(gen.realized_cb(), 12e-12 * (1.0 + corner), 1e-18);
    EXPECT_NEAR(gen.master_current(110e6), gen.realized_cb() * 110e6 * 0.6, 1e-12);
  }
}

TEST(ScBias, FiniteOtaGainLeavesSmallDeficit) {
  auto spec = clean_spec();
  spec.ota_gain = 1000.0;
  adc::common::Rng rng(4);
  const ab::ScBiasGenerator gen(spec, rng);
  const double ideal = 12e-12 * 110e6 * 0.6;
  const double actual = gen.master_current(110e6);
  EXPECT_LT(actual, ideal);
  EXPECT_NEAR(actual / ideal, 1000.0 / 1001.0, 1e-9);
}

TEST(ScBias, CapacitorMismatchIsReproducible) {
  auto spec = clean_spec();
  spec.cb.sigma_mismatch = 0.01;
  adc::common::Rng a(7);
  adc::common::Rng b(7);
  EXPECT_DOUBLE_EQ(ab::ScBiasGenerator(spec, a).realized_cb(),
                   ab::ScBiasGenerator(spec, b).realized_cb());
}

TEST(ScBias, InvalidSpecThrows) {
  auto spec = clean_spec();
  spec.v_bias = -0.1;
  adc::common::Rng rng(8);
  EXPECT_THROW(ab::ScBiasGenerator(spec, rng), adc::common::ConfigError);
}

class RateCornerSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RateCornerSweep, EquationHoldsEverywhere) {
  const auto [rate, corner] = GetParam();
  auto spec = clean_spec();
  spec.cb.global_spread = corner;
  adc::common::Rng rng(9);
  const ab::ScBiasGenerator gen(spec, rng);
  EXPECT_NEAR(gen.master_current(rate), 12e-12 * (1.0 + corner) * rate * 0.6,
              1e-9 * gen.master_current(rate) + 1e-18);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RateCornerSweep,
    ::testing::Combine(::testing::Values(1e6, 20e6, 110e6, 140e6, 220e6),
                       ::testing::Values(-0.2, -0.1, 0.0, 0.1, 0.2)));
