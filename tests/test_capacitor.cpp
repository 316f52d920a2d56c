/// Unit tests for capacitors with mismatch.
#include "analog/capacitor.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/random.hpp"

namespace aa = adc::analog;

TEST(Capacitor, GlobalSpreadShiftsValue) {
  adc::common::Rng rng(1);
  const aa::CapacitorSpec spec{1e-12, 0.0, 0.15};
  const aa::Capacitor c(spec, rng);
  EXPECT_NEAR(c.value(), 1.15e-12, 1e-18);
  EXPECT_NEAR(c.value() / c.nominal() - 1.0, 0.15, 1e-9);
}

TEST(Capacitor, MismatchStatistics) {
  adc::common::Rng rng(2);
  const aa::CapacitorSpec spec{1e-12, 0.01, 0.0};
  std::vector<double> errors;
  for (int i = 0; i < 20000; ++i) {
    const aa::Capacitor c(spec, rng);
    errors.push_back(c.value() / c.nominal() - 1.0);
  }
  EXPECT_NEAR(adc::common::mean(errors), 0.0, 5e-4);
  EXPECT_NEAR(adc::common::std_dev(errors), 0.01, 5e-4);
}

TEST(Capacitor, SeedReproducible) {
  adc::common::Rng a(7);
  adc::common::Rng b(7);
  const aa::CapacitorSpec spec{1e-12, 0.005, 0.0};
  EXPECT_DOUBLE_EQ(aa::Capacitor(spec, a).value(), aa::Capacitor(spec, b).value());
}

TEST(Capacitor, InvalidSpecsThrow) {
  adc::common::Rng rng(3);
  EXPECT_THROW(aa::Capacitor(aa::CapacitorSpec{-1e-12, 0.0, 0.0}, rng),
               adc::common::ConfigError);
  EXPECT_THROW(aa::Capacitor(aa::CapacitorSpec{1e-12, 0.9, 0.0}, rng),
               adc::common::ConfigError);
}
