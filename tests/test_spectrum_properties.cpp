/// Cross-cutting property tests on the spectral analyzer: results must be
/// invariant to analysis choices (window, record length) within tolerance —
/// the guarantee that lets benches pick options freely.
#include <cmath>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "dsp/signal.hpp"
#include "dsp/spectrum.hpp"
#include "pipeline/design.hpp"
#include "testbench/dynamic_test.hpp"

namespace ad = adc::dsp;

namespace {

/// Noisy distorted tone with known composition: amplitude 1, HD3 -62 dBc,
/// white noise for SNR 60 dB.
std::vector<double> synthetic_record(std::size_t n, double cycles, std::uint64_t seed) {
  adc::common::Rng rng(seed);
  std::vector<double> x(n);
  const double hd3 = std::pow(10.0, -62.0 / 20.0);
  const double sigma = std::pow(10.0, -60.0 / 20.0) / std::sqrt(2.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double th =
        2.0 * std::numbers::pi * cycles * static_cast<double>(i) / static_cast<double>(n);
    x[i] = std::sin(th) + hd3 * std::sin(3.0 * th) + rng.gaussian(sigma);
  }
  return x;
}

}  // namespace

class WindowInvariance : public ::testing::TestWithParam<ad::WindowType> {};

TEST_P(WindowInvariance, MetricsAgreeAcrossWindows) {
  // A coherent record analyzed through any window gives the same SNR/THD
  // within a fraction of a dB (normalization correctness).
  const std::size_t n = 1 << 13;
  const auto x = synthetic_record(n, 701.0, 42);
  ad::SpectrumOptions opt;
  opt.window = GetParam();
  const auto m = ad::analyze_tone(x, 100e6, opt);
  EXPECT_NEAR(m.snr_db, 60.0, 0.8);
  EXPECT_NEAR(m.thd_db, -62.0, 0.5);
  EXPECT_NEAR(m.signal_amplitude, 1.0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowInvariance,
                         ::testing::Values(ad::WindowType::kRectangular,
                                           ad::WindowType::kHann,
                                           ad::WindowType::kBlackmanHarris4));

class RecordLengthInvariance : public ::testing::TestWithParam<int> {};

TEST_P(RecordLengthInvariance, MetricsIndependentOfRecordLength) {
  // SNR/THD are power ratios: doubling the record must not move them
  // (only their variance). Distinct odd cycle counts per length.
  const auto log2n = static_cast<std::size_t>(GetParam());
  const std::size_t n = 1ull << log2n;
  const double cycles = static_cast<double>((n / 11) | 1u);
  const auto x = synthetic_record(n, cycles, 99);
  const auto m = ad::analyze_tone(x, 100e6);
  EXPECT_NEAR(m.snr_db, 60.0, 1.2) << n;
  EXPECT_NEAR(m.thd_db, -62.0, 0.8) << n;
}

INSTANTIATE_TEST_SUITE_P(Lengths, RecordLengthInvariance, ::testing::Values(11, 12, 13, 14));

TEST(ConverterAnalysisInvariance, RecordLengthDoesNotMoveTheNominalMetrics) {
  // The full converter measured with 4k and 16k records agrees within the
  // estimator's scatter — the property that justifies the benches' 8k
  // default.
  adc::pipeline::PipelineAdc a(adc::pipeline::nominal_design());
  adc::pipeline::PipelineAdc b(adc::pipeline::nominal_design());
  adc::testbench::DynamicTestOptions small;
  small.record_length = 1 << 12;
  adc::testbench::DynamicTestOptions big;
  big.record_length = 1 << 14;
  const auto ms = adc::testbench::run_dynamic_test(a, small).metrics;
  const auto mb = adc::testbench::run_dynamic_test(b, big).metrics;
  EXPECT_NEAR(ms.snr_db, mb.snr_db, 1.0);
  EXPECT_NEAR(ms.sndr_db, mb.sndr_db, 1.0);
}

TEST(ConverterAnalysisInvariance, AmplitudePhaseDoesNotMatter) {
  // Two captures of the same die with different tone phases (fresh noise
  // draws shift the effective phase) give the same metrics within scatter.
  adc::pipeline::PipelineAdc die(adc::pipeline::nominal_design());
  adc::testbench::DynamicTestOptions opt;
  opt.record_length = 1 << 12;
  const auto m1 = adc::testbench::run_dynamic_test(die, opt).metrics;
  const auto m2 = adc::testbench::run_dynamic_test(die, opt).metrics;
  EXPECT_NEAR(m1.sndr_db, m2.sndr_db, 1.0);
}
