/// Unit tests for window functions.
#include "dsp/window.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

using adc::dsp::WindowType;

TEST(Window, RectangularIsUnity) {
  const auto w = adc::dsp::make_window(WindowType::kRectangular, 64);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
  EXPECT_DOUBLE_EQ(adc::dsp::coherent_gain(w), 1.0);
  EXPECT_DOUBLE_EQ(adc::dsp::noise_gain(w), 1.0);
  EXPECT_DOUBLE_EQ(adc::dsp::enbw_bins(w), 1.0);
}

TEST(Window, HannGains) {
  const auto w = adc::dsp::make_window(WindowType::kHann, 4096);
  EXPECT_NEAR(adc::dsp::coherent_gain(w), 0.5, 1e-3);
  EXPECT_NEAR(adc::dsp::noise_gain(w), 0.375, 1e-3);
  EXPECT_NEAR(adc::dsp::enbw_bins(w), 1.5, 1e-2);
}

TEST(Window, BlackmanHarrisGains) {
  const auto w = adc::dsp::make_window(WindowType::kBlackmanHarris4, 4096);
  // Textbook values for the 4-term Blackman-Harris window.
  EXPECT_NEAR(adc::dsp::coherent_gain(w), 0.35875, 1e-3);
  EXPECT_NEAR(adc::dsp::enbw_bins(w), 2.0, 0.02);
}

TEST(Window, ValuesWithinUnitRange) {
  for (auto type : {WindowType::kHann, WindowType::kBlackmanHarris4}) {
    const auto w = adc::dsp::make_window(type, 257);
    for (double v : w) {
      EXPECT_GE(v, -1e-6);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
  }
}

TEST(Window, HannStartsAtZero) {
  const auto w = adc::dsp::make_window(WindowType::kHann, 128);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  // Periodic (DFT-even) convention: peak at n/2.
  EXPECT_NEAR(w[64], 1.0, 1e-12);
}

TEST(Window, ApplyWindowMultiplies) {
  std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> w{0.5, 0.5, 2.0, 1.0};
  adc::dsp::apply_window(x, w);
  EXPECT_DOUBLE_EQ(x[0], 0.5);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  EXPECT_DOUBLE_EQ(x[2], 6.0);
  EXPECT_DOUBLE_EQ(x[3], 4.0);
}

TEST(Window, ApplyWindowSizeMismatchThrows) {
  std::vector<double> x{1.0, 2.0};
  const std::vector<double> w{1.0};
  EXPECT_THROW(adc::dsp::apply_window(x, w), adc::common::ConfigError);
}

TEST(Window, LeakageSpans) {
  EXPECT_EQ(adc::dsp::leakage_span_bins(WindowType::kRectangular), 0u);
  EXPECT_EQ(adc::dsp::leakage_span_bins(WindowType::kHann), 2u);
  EXPECT_EQ(adc::dsp::leakage_span_bins(WindowType::kBlackmanHarris4), 4u);
}

TEST(Window, ZeroLengthThrows) {
  EXPECT_THROW((void)adc::dsp::make_window(WindowType::kHann, 0), adc::common::ConfigError);
}

class WindowGainOrdering : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowGainOrdering, EnbwGrowsWithSidelobeSuppression) {
  const std::size_t n = GetParam();
  const auto rect = adc::dsp::make_window(WindowType::kRectangular, n);
  const auto hann = adc::dsp::make_window(WindowType::kHann, n);
  const auto bh = adc::dsp::make_window(WindowType::kBlackmanHarris4, n);
  EXPECT_LT(adc::dsp::enbw_bins(rect), adc::dsp::enbw_bins(hann));
  EXPECT_LT(adc::dsp::enbw_bins(hann), adc::dsp::enbw_bins(bh));
}

INSTANTIATE_TEST_SUITE_P(Lengths, WindowGainOrdering,
                         ::testing::Values(64, 256, 1024, 8192));
