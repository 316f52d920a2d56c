/// Unit tests for continuous-time test signals and coherent-tone selection.
#include "dsp/signal.hpp"

#include <cmath>
#include <numbers>
#include <numeric>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace ad = adc::dsp;

TEST(SineSignal, ValueAndAmplitude) {
  const ad::SineSignal s(1.0, 1e6, 0.0, 0.1);
  EXPECT_NEAR(s.value(0.0), 0.1, 1e-12);                 // offset at phase 0
  EXPECT_NEAR(s.value(0.25e-6), 1.1, 1e-9);              // quarter period: peak
  EXPECT_DOUBLE_EQ(s.amplitude(), 1.0);
  EXPECT_DOUBLE_EQ(s.frequency(), 1e6);
}

TEST(SineSignal, SlopeMatchesNumericDerivative) {
  const ad::SineSignal s(0.8, 10e6, 0.7);
  const double h = 1e-12;
  for (double t : {0.0, 3.7e-9, 41e-9, 1e-7}) {
    const double numeric = (s.value(t + h) - s.value(t - h)) / (2.0 * h);
    EXPECT_NEAR(s.slope(t), numeric, 1e-3 * std::abs(numeric) + 1.0);
  }
}

TEST(SineSignal, PeakSlopeIsTwoPiFA) {
  const ad::SineSignal s(1.0, 10e6);
  EXPECT_NEAR(s.slope(0.0), 2.0 * std::numbers::pi * 10e6, 1.0);
}

TEST(MultiToneSignal, SumsTones) {
  const ad::MultiToneSignal s({{0.5, 1e6, 0.0}, {0.25, 3e6, 0.0}});
  const ad::SineSignal a(0.5, 1e6);
  const ad::SineSignal b(0.25, 3e6);
  for (double t : {0.0, 1e-7, 3.3e-7}) {
    EXPECT_NEAR(s.value(t), a.value(t) + b.value(t), 1e-12);
    EXPECT_NEAR(s.slope(t), a.slope(t) + b.slope(t), 1e-6);
  }
}

TEST(MultiToneSignal, EmptyThrows) {
  EXPECT_THROW(ad::MultiToneSignal({}), adc::common::ConfigError);
}

TEST(DcSignal, ConstantEverywhere) {
  const ad::DcSignal d(0.42);
  EXPECT_DOUBLE_EQ(d.value(0.0), 0.42);
  EXPECT_DOUBLE_EQ(d.value(1.0), 0.42);
  EXPECT_DOUBLE_EQ(d.slope(0.5), 0.0);
}

TEST(CoherentFrequency, PicksOddCycleCount) {
  const auto tone = ad::coherent_frequency(10e6, 110e6, 8192);
  EXPECT_EQ(tone.cycles % 2, 1u);
  // Exactly on the bin grid.
  const double bin = 110e6 / 8192.0;
  EXPECT_NEAR(tone.frequency_hz, static_cast<double>(tone.cycles) * bin, 1e-6);
  // Close to the request (within one bin).
  EXPECT_NEAR(tone.frequency_hz, 10e6, 2.0 * bin);
}

TEST(CoherentFrequency, OddCyclesAreCoprimeWithPowerOfTwo) {
  // Every code gets exercised: gcd(cycles, n) == 1.
  for (double target : {1e6, 10e6, 37e6, 54e6}) {
    const auto tone = ad::coherent_frequency(target, 110e6, 4096);
    EXPECT_EQ(std::gcd(tone.cycles, std::size_t{4096}), 1u) << target;
  }
}

TEST(CoherentFrequency, ClampsNearNyquist) {
  const auto tone = ad::coherent_frequency(54.9e6, 110e6, 256);
  EXPECT_LT(tone.cycles, 128u);
  EXPECT_EQ(tone.cycles % 2, 1u);
}

TEST(CoherentFrequency, MinimumOneCycle) {
  const auto tone = ad::coherent_frequency(1.0, 110e6, 4096);
  EXPECT_EQ(tone.cycles, 1u);
}

TEST(CoherentFrequency, RejectsOutOfRange) {
  EXPECT_THROW((void)ad::coherent_frequency(60e6, 110e6, 4096), adc::common::ConfigError);
  EXPECT_THROW((void)ad::coherent_frequency(-1.0, 110e6, 4096), adc::common::ConfigError);
  EXPECT_THROW((void)ad::coherent_frequency(1e6, 110e6, 2), adc::common::ConfigError);
}

class CoherentSweep : public ::testing::TestWithParam<double> {};

TEST_P(CoherentSweep, AlwaysOddAndInBand) {
  const double fs = 110e6;
  const std::size_t n = 8192;
  const auto tone = ad::coherent_frequency(GetParam(), fs, n);
  EXPECT_EQ(tone.cycles % 2, 1u);
  EXPECT_GT(tone.frequency_hz, 0.0);
  EXPECT_LT(tone.frequency_hz, fs / 2.0);
}

INSTANTIATE_TEST_SUITE_P(Targets, CoherentSweep,
                         ::testing::Values(0.1e6, 1e6, 5e6, 10e6, 20e6, 37.7e6, 50e6,
                                           54.99e6));
