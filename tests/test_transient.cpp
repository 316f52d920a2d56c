/// Cross-validation of the closed-form settling model against a numerical
/// (RK4) transient solution of the same amplifier.
#include "oracles/transient.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "pipeline/design.hpp"

namespace aa = adc::analog;

namespace {

aa::OpampParams nominal() {
  auto cfg = adc::pipeline::nominal_design();
  auto p = cfg.stage.opamp;
  p.gm_compression = 0.0;  // the closed form's compression is heuristic
  return p;
}

constexpr double kBeta = 0.423;

}  // namespace

TEST(Rk4, SolvesExponentialDecayExactly) {
  // dy/dt = -y: y(1) = e^-1.
  const auto f = [](double, double y) { return -y; };
  EXPECT_NEAR(aa::integrate_rk4(f, 1.0, 0.0, 0.01, 100), std::exp(-1.0), 1e-9);
}

TEST(Rk4, SolvesDrivenLinearSystem) {
  // dy/dt = (1 - y)/tau: y(t) = 1 - e^(-t/tau).
  const double tau = 0.5;
  const auto f = [tau](double, double y) { return (1.0 - y) / tau; };
  EXPECT_NEAR(aa::integrate_rk4(f, 0.0, 0.0, 0.001, 1000), 1.0 - std::exp(-2.0), 1e-9);
}

TEST(Rk4, TrajectoryEndsAtIntegrate) {
  const auto f = [](double, double y) { return -2.0 * y; };
  const auto traj = aa::integrate_rk4_trajectory(f, 3.0, 0.0, 0.01, 50);
  ASSERT_EQ(traj.size(), 51u);
  EXPECT_DOUBLE_EQ(traj.front(), 3.0);
  EXPECT_NEAR(traj.back(), aa::integrate_rk4(f, 3.0, 0.0, 0.01, 50), 1e-12);
}

TEST(Rk4, RejectsBadArguments) {
  const auto f = [](double, double y) { return -y; };
  EXPECT_THROW((void)aa::integrate_rk4(f, 1.0, 0.0, -0.1, 10), adc::common::ConfigError);
  EXPECT_THROW((void)aa::integrate_rk4(f, 1.0, 0.0, 0.1, 0), adc::common::ConfigError);
}

TEST(MdacTransient, MatchesClosedFormInLinearRegion) {
  // Small steps never slew: both models are pure exponentials.
  const auto params = nominal();
  const aa::Opamp closed(params);
  const aa::MdacTransient numeric(params, kBeta, params.bias_nominal);
  const double half_lsb = 0.5 * 2.0 / 4096.0;
  for (double target : {0.05, 0.1, -0.2}) {
    for (double nt : {3.0, 6.0, 9.0}) {
      const double ts = nt * numeric.tau();
      const double a = closed.settle(target, ts, kBeta, params.bias_nominal).output;
      const double b = numeric.settle(target, ts);
      // tanh is never exactly linear (the ODE settles a touch slower early
      // on); agreement within half an LSB is the model-consistency bound.
      EXPECT_NEAR(a, b, half_lsb) << target << " " << nt;
    }
  }
}

TEST(MdacTransient, MatchesClosedFormThroughSlewRegion) {
  // Large steps slew first; the closed form's two-region split must track
  // the smooth tanh dynamics within fractions of an LSB at realistic
  // settling times.
  auto params = nominal();
  params.slew_rate = 6e8;  // force deep slewing on 1 V steps
  const aa::Opamp closed(params);
  const aa::MdacTransient numeric(params, kBeta, params.bias_nominal);
  const double lsb = 2.0 / 4096.0;
  for (double target : {0.8, 1.0, -1.0}) {
    // tanh rounds the slew-to-linear corner, the piecewise form does not:
    // right after the corner (nt ~ 6) they differ by a few LSB; by the
    // design point (nt >= 9, the converter's operating region) they agree
    // within an LSB.
    for (double nt : {9.0, 12.0}) {
      const double ts = nt * numeric.tau();
      const double a = closed.settle(target, ts, kBeta, params.bias_nominal).output;
      const double b = numeric.settle(target, ts);
      EXPECT_NEAR(a, b, lsb) << target << " " << nt;
    }
    const double near_corner = 6.0 * numeric.tau();
    EXPECT_NEAR(closed.settle(target, near_corner, kBeta, params.bias_nominal).output,
                numeric.settle(target, near_corner), 10.0 * lsb)
        << target;
  }
}

TEST(MdacTransient, FinalValueIncludesFiniteGain) {
  const auto params = nominal();
  const aa::MdacTransient numeric(params, kBeta, params.bias_nominal);
  const double expected = 1.0 / (1.0 + 1.0 / (params.dc_gain * kBeta));
  EXPECT_NEAR(numeric.final_value(1.0), expected, 1e-12);
  // Long integration converges to it.
  EXPECT_NEAR(numeric.settle(1.0, 40.0 * numeric.tau()), expected, 1e-6);
}

TEST(MdacTransient, MidSlewSamplingMatches) {
  // Sample while still slewing: output = SR * t in both models.
  auto params = nominal();
  params.slew_rate = 3e8;
  const aa::MdacTransient numeric(params, kBeta, params.bias_nominal);
  const double ts = 1e-9;
  const double expected = 3e8 * ts;
  EXPECT_NEAR(numeric.settle(1.2, ts), expected, 0.05 * expected);
}

TEST(MdacTransient, TrajectoryIsMonotoneForStep) {
  const auto params = nominal();
  const aa::MdacTransient numeric(params, kBeta, params.bias_nominal);
  const auto traj = numeric.trajectory(0.8, 10.0 * numeric.tau(), 200);
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_GE(traj[i], traj[i - 1] - 1e-12);
  }
  EXPECT_NEAR(traj.back(), numeric.final_value(0.8), 1e-4);
}

TEST(MdacTransient, ClipsAtSwing) {
  auto params = nominal();
  params.output_swing = 0.6;
  const aa::MdacTransient numeric(params, kBeta, params.bias_nominal);
  EXPECT_DOUBLE_EQ(numeric.settle(2.0, 50.0 * numeric.tau()), 0.6);
}

class BiasSweepAgreement : public ::testing::TestWithParam<double> {};

TEST_P(BiasSweepAgreement, ModelsAgreeAlongTheOperatingLine) {
  // The SC bias generator ties bias current to conversion rate, so the
  // converter's real operating line pairs a scaled bias with a 1/scaled
  // settling window (the Fig. 5 x-axis). Closed form and ODE must agree
  // everywhere on that line.
  const double rate_frac = GetParam();  // f_CR relative to 110 MS/s
  const auto params = nominal();
  const double ibias = params.bias_nominal * rate_frac;  // eq. (1)
  const double ts = 4.27e-9 / rate_frac;                 // half period - overhead
  const aa::Opamp closed(params);
  const aa::MdacTransient numeric(params, kBeta, ibias);
  const double lsb = 2.0 / 4096.0;
  for (double target : {0.3, 1.0}) {
    const double a = closed.settle(target, ts, kBeta, ibias).output;
    const double b = numeric.settle(target, ts);
    EXPECT_NEAR(a, b, lsb) << rate_frac << " " << target;
  }
}

INSTANTIATE_TEST_SUITE_P(RateRange, BiasSweepAgreement,
                         ::testing::Values(0.2, 0.5, 1.0, 1.3, 1.6));
