/// Unit tests for the sampling clock with aperture jitter.
#include "clocking/clock.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/random.hpp"
#include "dsp/signal.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "pipeline/design.hpp"

namespace ck = adc::clocking;

namespace {

/// `count` consecutive jittered instants starting at sample 0.
std::vector<double> instants(ck::SamplingClock& clk, std::size_t count) {
  std::vector<double> t(count);
  for (std::size_t n = 0; n < count; ++n) t[n] = clk.sample_instant(n);
  return t;
}

}  // namespace

TEST(SamplingClock, NoJitterIsExactGrid) {
  adc::common::Rng rng(1);
  ck::SamplingClock clk({110e6, 0.0}, rng);
  EXPECT_DOUBLE_EQ(clk.period(), 1.0 / 110e6);
  for (std::size_t n : {0u, 1u, 17u, 1000u}) {
    EXPECT_DOUBLE_EQ(clk.sample_instant(n), static_cast<double>(n) / 110e6);
  }
}

TEST(SamplingClock, JitterStatistics) {
  adc::common::Rng rng(2);
  const double sigma = 1e-12;
  ck::SamplingClock clk({110e6, sigma}, rng);
  const std::size_t n = 100000;
  std::vector<double> deltas;
  deltas.reserve(n);
  const double period = clk.period();
  for (std::size_t k = 0; k < n; ++k) {
    deltas.push_back(clk.sample_instant(k) - static_cast<double>(k) * period);
  }
  EXPECT_NEAR(adc::common::mean(deltas), 0.0, 3e-14);
  EXPECT_NEAR(adc::common::std_dev(deltas), sigma, 3e-14);
}

TEST(SamplingClock, JitterSmallComparedToPeriod) {
  adc::common::Rng rng(4);
  ck::SamplingClock clk({110e6, 0.5e-12}, rng);
  const auto t = instants(clk, 10000);
  for (std::size_t k = 1; k < t.size(); ++k) {
    EXPECT_GT(t[k], t[k - 1]);  // instants stay ordered at these sigmas
  }
}

TEST(SamplingClock, RandomWalkAccumulates) {
  adc::common::Rng rng(6);
  ck::ClockSpec spec{110e6, 0.0};
  spec.random_walk_rms_s = 1e-13;
  ck::SamplingClock clk(spec, rng);
  // Variance of the walk grows ~ linearly with sample count.
  const auto t = instants(clk, 20000);
  const double period = clk.period();
  std::vector<double> early;
  std::vector<double> late;
  for (std::size_t k = 0; k < 2000; ++k) {
    early.push_back(t[k] - static_cast<double>(k) * period);
  }
  for (std::size_t k = 18000; k < 20000; ++k) {
    late.push_back(t[k] - static_cast<double>(k) * period);
  }
  EXPECT_GT(adc::common::std_dev(late) + std::abs(adc::common::mean(late)),
            3.0 * (adc::common::std_dev(early) + std::abs(adc::common::mean(early))));
}

TEST(SamplingClock, ResetWalkRestoresOrigin) {
  adc::common::Rng rng(7);
  ck::ClockSpec spec{110e6, 0.0};
  spec.random_walk_rms_s = 1e-12;
  ck::SamplingClock clk(spec, rng);
  (void)instants(clk, 1000);
  clk.reset_walk();
  // Immediately after reset the next instant deviates by only one step.
  const double dev = clk.sample_instant(0);
  EXPECT_LT(std::abs(dev), 6e-12);
}

TEST(SamplingClock, WanderMakesCarrierSkirts) {
  // Random-walk jitter concentrates noise *around* the carrier; white
  // jitter spreads it flat. Compare close-in vs far-out noise density.
  adc::pipeline::AdcConfig cfg = adc::pipeline::ideal_design();
  cfg.enable.aperture_jitter = true;
  cfg.clock.jitter_rms_s = 0.0;
  cfg.clock.random_walk_rms_s = 0.25e-12;
  adc::pipeline::PipelineAdc adc(cfg);
  const double fs = adc.conversion_rate();
  const auto tone = adc::dsp::coherent_frequency(10e6, fs, 1 << 13);
  const adc::dsp::SineSignal sig(0.985, tone.frequency_hz);
  const auto codes = adc.convert(sig, 1 << 13);
  const auto volts = adc::dsp::codes_to_volts(codes, 12, 2.0);
  const auto ps = adc::dsp::power_spectrum(volts);
  double close = 0.0;
  double far = 0.0;
  for (std::size_t k = 2; k <= 40; ++k) {
    close += ps[tone.cycles + k] + ps[tone.cycles - k];
    const std::size_t fk = tone.cycles + 1500 + k;
    far += 2.0 * ps[fk];
  }
  EXPECT_GT(close, 20.0 * far);
}

TEST(SamplingClock, InvalidSpecThrows) {
  adc::common::Rng rng(5);
  EXPECT_THROW(ck::SamplingClock({0.0, 0.0}, rng), adc::common::ConfigError);
  EXPECT_THROW(ck::SamplingClock({1e6, -1.0}, rng), adc::common::ConfigError);
  ck::ClockSpec bad{1e6, 0.0};
  bad.random_walk_rms_s = -1.0;
  EXPECT_THROW(ck::SamplingClock(bad, rng), adc::common::ConfigError);
}
