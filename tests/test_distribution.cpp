/// Unit tests for the bias-mirror distribution bank.
#include "bias/distribution.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"

namespace ab = adc::bias;

TEST(MirrorBank, ExactRatiosWithoutMismatch) {
  ab::MirrorBankSpec spec;
  spec.ratios = {10.0, 20.0 / 3.0, 10.0 / 3.0};
  spec.sigma_mismatch = 0.0;
  adc::common::Rng rng(1);
  const ab::MirrorBank bank(spec, rng);
  ASSERT_EQ(bank.size(), 3u);
  EXPECT_DOUBLE_EQ(bank.leg_current(0, 1e-3), 10e-3);
  EXPECT_NEAR(bank.leg_current(1, 1e-3), 6.667e-3, 1e-6);
  EXPECT_NEAR(bank.total_current(1e-3), 20e-3, 1e-6);
}

TEST(MirrorBank, MismatchSmallAndReproducible) {
  ab::MirrorBankSpec spec;
  spec.ratios = {1.0};
  spec.sigma_mismatch = 0.01;
  adc::common::Rng a(3);
  adc::common::Rng b(3);
  const ab::MirrorBank bank_a(spec, a);
  const ab::MirrorBank bank_b(spec, b);
  EXPECT_DOUBLE_EQ(bank_a.realized_gain(0), bank_b.realized_gain(0));
  EXPECT_NEAR(bank_a.realized_gain(0), 1.0, 0.06);  // within 6 sigma
}

TEST(MirrorBank, InvalidSpecsThrow) {
  adc::common::Rng rng(4);
  ab::MirrorBankSpec empty;
  EXPECT_THROW(ab::MirrorBank(empty, rng), adc::common::ConfigError);
  ab::MirrorBankSpec bad;
  bad.ratios = {1.0, -1.0};
  EXPECT_THROW(ab::MirrorBank(bad, rng), adc::common::ConfigError);
}
