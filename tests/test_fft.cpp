/// Unit tests for the radix-2 FFT.
#include "dsp/fft.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"

using adc::dsp::Complex;

namespace {

std::vector<double> sine(std::size_t n, std::size_t cycles, double amplitude,
                         double phase = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude * std::sin(2.0 * std::numbers::pi * static_cast<double>(cycles) *
                                    static_cast<double>(i) / static_cast<double>(n) +
                                phase);
  }
  return x;
}

}  // namespace

TEST(Fft, ImpulseIsFlat) {
  std::vector<Complex> data(16, Complex(0.0, 0.0));
  data[0] = Complex(1.0, 0.0);
  adc::dsp::FftPlan::shared(data.size())->forward(data);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, DcConcentratesInBinZero) {
  std::vector<Complex> data(32, Complex(2.0, 0.0));
  adc::dsp::FftPlan::shared(data.size())->forward(data);
  EXPECT_NEAR(data[0].real(), 64.0, 1e-9);
  for (std::size_t k = 1; k < data.size(); ++k) {
    EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-9);
  }
}

TEST(Fft, SingleToneLandsInItsBin) {
  const std::size_t n = 256;
  const std::size_t cycles = 19;
  const auto x = sine(n, cycles, 1.0);
  const auto spec = adc::dsp::fft_real(x);
  // |X_k| = A*n/2 at the tone bin, ~0 elsewhere.
  EXPECT_NEAR(std::abs(spec[cycles]), static_cast<double>(n) / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(spec[n - cycles]), static_cast<double>(n) / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(spec[cycles + 2]), 0.0, 1e-8);
}

TEST(Fft, RoundTripRestoresInput) {
  adc::common::Rng rng(3);
  std::vector<Complex> data(128);
  for (auto& v : data) v = Complex(rng.gaussian(1.0), rng.gaussian(1.0));
  const auto original = data;
  adc::dsp::FftPlan::shared(data.size())->forward(data);
  adc::dsp::FftPlan::shared(data.size())->inverse(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  adc::common::Rng rng(4);
  const std::size_t n = 512;
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian(1.0);
  double time_energy = 0.0;
  for (double v : x) time_energy += v * v;
  const auto spec = adc::dsp::fft_real(x);
  double freq_energy = 0.0;
  for (const auto& v : spec) freq_energy += std::norm(v);
  freq_energy /= static_cast<double>(n);
  EXPECT_NEAR(freq_energy, time_energy, 1e-6 * time_energy);
}

TEST(Fft, Linearity) {
  adc::common::Rng rng(5);
  const std::size_t n = 64;
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.gaussian(1.0);
    b[i] = rng.gaussian(1.0);
  }
  std::vector<double> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const auto sa = adc::dsp::fft_real(a);
  const auto sb = adc::dsp::fft_real(b);
  const auto ss = adc::dsp::fft_real(sum);
  for (std::size_t k = 0; k < n; ++k) {
    const Complex expected = 2.0 * sa[k] + 3.0 * sb[k];
    EXPECT_NEAR(std::abs(ss[k] - expected), 0.0, 1e-9);
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW((void)adc::dsp::FftPlan::shared(100), adc::common::ConfigError);
}

TEST(PowerSpectrum, ToneAmplitudeNormalization) {
  // A sine of amplitude A must show power A^2/2 in its bin for any n.
  for (std::size_t n : {64u, 1024u, 8192u}) {
    const double a = 0.7;
    const auto ps = adc::dsp::power_spectrum(sine(n, 7, a, 0.3));
    EXPECT_NEAR(ps[7], a * a / 2.0, 1e-9) << "n=" << n;
  }
}

TEST(PowerSpectrum, DcNormalization) {
  std::vector<double> x(128, 1.5);
  const auto ps = adc::dsp::power_spectrum(x);
  EXPECT_NEAR(ps[0], 1.5 * 1.5, 1e-12);  // DC power is not doubled
}

TEST(PowerSpectrum, NyquistBinNotDoubled) {
  // Alternating +A/-A is the Nyquist tone; its power is A^2 (not 2*A^2).
  std::vector<double> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = (i % 2 == 0) ? 1.0 : -1.0;
  const auto ps = adc::dsp::power_spectrum(x);
  EXPECT_NEAR(ps[32], 1.0, 1e-12);
}

TEST(PowerSpectrum, TotalPowerMatchesTimeDomain) {
  adc::common::Rng rng(6);
  const std::size_t n = 1024;
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian(0.5);
  double mean_square = 0.0;
  for (double v : x) mean_square += v * v;
  mean_square /= static_cast<double>(n);
  const auto ps = adc::dsp::power_spectrum(x);
  double total = 0.0;
  for (double p : ps) total += p;
  EXPECT_NEAR(total, mean_square, 1e-9);
}
