/// Tests for static-to-dynamic harmonic prediction from the INL curve.
#include "oracles/inl_spectrum.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dsp/linearity.hpp"
#include "dsp/signal.hpp"
#include "dsp/spectrum.hpp"
#include "pipeline/design.hpp"
#include "testbench/static_test.hpp"

namespace ad = adc::dsp;
namespace ap = adc::pipeline;

namespace {

/// Synthetic INL of a pure cubic error: inl(v) = a3*v^3 in LSB of a
/// `bits`-bit converter, over the code axis.
std::vector<double> cubic_inl(int bits, double a3_lsb) {
  const auto n = static_cast<std::size_t>(1) << bits;
  std::vector<double> inl(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double v = 2.0 * (static_cast<double>(k) + 0.5) / static_cast<double>(n) - 1.0;
    inl[k] = a3_lsb * v * v * v;
  }
  return inl;
}

}  // namespace

TEST(InlSpectrum, PureCubicPredictsHd3Exactly) {
  // e(v) = a3 v^3 driven by v = sin(theta): the HD3 amplitude is a3/4.
  const int bits = 12;
  const double a3 = 8.0;  // LSB at full scale
  const auto inl = cubic_inl(bits, a3);
  const auto r = ad::predict_harmonics_from_inl(inl, bits, 1.0);
  const double expected_hd3 =
      20.0 * std::log10((a3 / 4.0) / std::pow(2.0, bits - 1));
  EXPECT_NEAR(r.harmonic_dbc[3], expected_hd3, 0.1);
  EXPECT_EQ(r.worst_order, 3);
  // A cubic produces no even harmonics.
  EXPECT_LT(r.harmonic_dbc[2], expected_hd3 - 40.0);
}

TEST(InlSpectrum, QuadraticPredictsHd2) {
  const int bits = 10;
  const auto n = static_cast<std::size_t>(1) << bits;
  std::vector<double> inl(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double v = 2.0 * (static_cast<double>(k) + 0.5) / static_cast<double>(n) - 1.0;
    inl[k] = 4.0 * v * v;
  }
  const auto r = ad::predict_harmonics_from_inl(inl, bits, 1.0);
  // e = a2 v^2 -> HD2 amplitude a2/2.
  const double expected = 20.0 * std::log10((4.0 / 2.0) / std::pow(2.0, bits - 1));
  EXPECT_NEAR(r.harmonic_dbc[2], expected, 0.1);
  EXPECT_EQ(r.worst_order, 2);
}

TEST(InlSpectrum, AmplitudeScalingForCubic) {
  // HD3 of a cubic scales 2 dB per dB of amplitude (relative to the tone).
  const auto inl = cubic_inl(12, 8.0);
  const auto full = ad::predict_harmonics_from_inl(inl, 12, 1.0);
  const auto half = ad::predict_harmonics_from_inl(inl, 12, 0.5);
  EXPECT_NEAR(full.harmonic_dbc[3] - half.harmonic_dbc[3], 12.0, 0.3);
}

TEST(InlSpectrum, ZeroInlPredictsSilence) {
  const std::vector<double> inl(4096, 0.0);
  const auto r = ad::predict_harmonics_from_inl(inl, 12);
  EXPECT_LT(r.thd_db, -250.0);
}

TEST(InlSpectrum, PredictsTheNominalDieStaticFloor) {
  // Measure the nominal die's INL (noiseless edge extraction), predict the
  // harmonics, and compare with the *measured* low-frequency dynamic test:
  // at 1 MHz the dynamic mechanisms are asleep, so the static prediction
  // must land within a couple of dB.
  auto cfg = ap::nominal_design();
  cfg.enable.thermal_noise = false;
  cfg.enable.aperture_jitter = false;
  cfg.enable.comparator_imperfections = false;
  cfg.enable.bias_ripple = false;
  ap::PipelineAdc adc(cfg);
  const auto edges = adc::testbench::extract_transfer_edges(adc, 30);
  const auto lin = ad::edges_linearity(edges, 12);
  const auto predicted = ad::predict_harmonics_from_inl(lin.inl, 12, 0.985);

  // Measured: slow coherent tone through the same noiseless converter.
  const double fs = adc.conversion_rate();
  const auto tone = ad::coherent_frequency(1e6, fs, 1 << 13);
  const ad::SineSignal sig(0.985, tone.frequency_hz);
  const auto codes = adc.convert(sig, 1 << 13);
  const auto volts = ad::codes_to_volts(codes, 12, 2.0);
  ad::SpectrumOptions opt;
  opt.fundamental_bin = tone.cycles;
  const auto measured = ad::analyze_tone(volts, fs, opt);

  EXPECT_NEAR(predicted.thd_db, measured.thd_db, 2.5);
  // The dominant predicted harmonic is the dominant measured one.
  EXPECT_EQ(predicted.worst_order, measured.spur_harmonic_order);
}

TEST(InlSpectrum, RejectsBadInput) {
  const std::vector<double> wrong(100, 0.0);
  EXPECT_THROW((void)ad::predict_harmonics_from_inl(wrong, 12), adc::common::ConfigError);
  const std::vector<double> ok(4096, 0.0);
  EXPECT_THROW((void)ad::predict_harmonics_from_inl(ok, 12, -0.1), adc::common::ConfigError);
  EXPECT_THROW((void)ad::predict_harmonics_from_inl(ok, 12, 0.9, 1), adc::common::ConfigError);
}
