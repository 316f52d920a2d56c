/// Unit tests for the hold-node leakage (droop) model.
#include "analog/leakage.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"

namespace aa = adc::analog;

namespace {

aa::LeakageSpec matched_spec(double i0, double kv) {
  aa::LeakageSpec s;
  s.i0 = i0;
  s.k_v = kv;
  s.sigma_mismatch = 0.0;
  return s;
}

}  // namespace

TEST(HoldLeakage, NoneIsZero) {
  adc::common::Rng rng(3);
  const aa::HoldLeakage leak(matched_spec(0.0, 1.0), rng);
  EXPECT_DOUBLE_EQ(leak.differential_droop(0.7, 1e-7, 1e-12), 0.0);
}

TEST(HoldLeakage, MatchedSidesLeaveOnlySignalTerm) {
  adc::common::Rng rng(1);
  const aa::HoldLeakage leak(matched_spec(1e-9, 1.0), rng);
  // With matched sides, droop = i0*k_v*v * t/C (the constant parts cancel).
  const double droop = leak.differential_droop(0.5, 100e-9, 1e-12);
  EXPECT_NEAR(droop, 1e-9 * 1.0 * 0.5 * 100e-9 / 1e-12, 1e-9);
  EXPECT_DOUBLE_EQ(leak.differential_droop(0.0, 100e-9, 1e-12), 0.0);
}

TEST(HoldLeakage, ScalesWithHoldTimeAndCap) {
  adc::common::Rng rng(2);
  const aa::HoldLeakage leak(matched_spec(2e-9, 0.8), rng);
  const double d1 = leak.differential_droop(0.5, 50e-9, 1e-12);
  const double d2 = leak.differential_droop(0.5, 100e-9, 1e-12);
  const double d3 = leak.differential_droop(0.5, 50e-9, 2e-12);
  EXPECT_NEAR(d2, 2.0 * d1, 1e-15);
  EXPECT_NEAR(d3, 0.5 * d1, 1e-15);
}

TEST(HoldLeakage, InverseRateDependence) {
  // The Fig. 5 mechanism: at 5 MS/s the hold window is 22x longer than at
  // 110 MS/s, so the droop error is 22x larger.
  adc::common::Rng rng(3);
  const aa::HoldLeakage leak(matched_spec(1e-9, 0.9), rng);
  const double c = 0.55e-12;
  const double at_110 = leak.differential_droop(0.6, 0.5 / 110e6, c);
  const double at_5 = leak.differential_droop(0.6, 0.5 / 5e6, c);
  EXPECT_NEAR(at_5 / at_110, 22.0, 1e-6);
}

TEST(HoldLeakage, MismatchCreatesOffsetTerm) {
  aa::LeakageSpec s = matched_spec(1e-9, 0.9);
  s.sigma_mismatch = 0.2;
  adc::common::Rng rng(4);
  const aa::HoldLeakage leak(s, rng);
  // With mismatched sides, even a zero-signal hold droops differentially.
  EXPECT_NE(leak.differential_droop(0.0, 100e-9, 1e-12), 0.0);
}

TEST(HoldLeakage, ZeroHoldTimeIsZero) {
  adc::common::Rng rng(5);
  const aa::HoldLeakage leak(matched_spec(1e-9, 0.9), rng);
  EXPECT_DOUBLE_EQ(leak.differential_droop(0.5, 0.0, 1e-12), 0.0);
}

TEST(HoldLeakage, NegativeLeakageThrows) {
  aa::LeakageSpec s = matched_spec(-1e-9, 0.9);
  adc::common::Rng rng(6);
  EXPECT_THROW(aa::HoldLeakage(s, rng), adc::common::ConfigError);
}

TEST(HoldLeakage, DrawsTheNSideFirst) {
  // The exact profile's golden codes pin the draw order: the n side's
  // mismatch scale takes the first deviate, the p side's the second.
  aa::LeakageSpec s = matched_spec(1e-9, 0.9);
  s.sigma_mismatch = 0.1;
  adc::common::Rng rng(7);
  adc::common::Rng reference(7);
  const aa::HoldLeakage leak(s, rng);
  const double first = 1.0 + reference.gaussian(0.1);
  const double second = 1.0 + reference.gaussian(0.1);
  EXPECT_DOUBLE_EQ(leak.scale_n(), first);
  EXPECT_DOUBLE_EQ(leak.scale_p(), second);
  EXPECT_NE(leak.scale_n(), leak.scale_p());
}
