/// Tests for the two-step (subranging) baseline converter.
#include "twostep/twostep.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dsp/linearity.hpp"
#include "dsp/signal.hpp"
#include "dsp/spectrum.hpp"

namespace ats = adc::twostep;

namespace {

ats::TwoStepConfig ideal_config() {
  auto cfg = ats::reference_design();
  cfg.enable.thermal_noise = false;
  cfg.enable.aperture_jitter = false;
  cfg.enable.ladder_mismatch = false;
  cfg.enable.comparator_imperfections = false;
  cfg.enable.incomplete_settling = false;
  cfg.enable.tracking_nonlinearity = false;
  return cfg;
}

adc::dsp::SpectrumMetrics dynamic_test(ats::TwoStepAdc& adc, double fin = 10e6,
                                       std::size_t n = 1 << 12) {
  const double fs = adc.conversion_rate();
  const auto tone = adc::dsp::coherent_frequency(fin, fs, n);
  const adc::dsp::SineSignal sig(0.985 * adc.full_scale_vpp() / 2.0, tone.frequency_hz);
  const auto codes = adc.convert(sig, n);
  const auto volts =
      adc::dsp::codes_to_volts(codes, adc.resolution_bits(), adc.full_scale_vpp());
  adc::dsp::SpectrumOptions opt;
  opt.fundamental_bin = tone.cycles;
  return adc::dsp::analyze_tone(volts, fs, opt);
}

}  // namespace

TEST(TwoStep, Geometry) {
  ats::TwoStepAdc adc(ideal_config());
  EXPECT_EQ(adc.resolution_bits(), 12);
  EXPECT_EQ(adc.latency_cycles(), 2);  // vs the pipeline's 6
  EXPECT_EQ(adc.comparator_count(), 63u + 127u);
  EXPECT_DOUBLE_EQ(adc.residue_gain(), 32.0);
}

TEST(TwoStep, IdealConverterReaches12Bits) {
  ats::TwoStepAdc adc(ideal_config());
  const auto m = dynamic_test(adc);
  EXPECT_GT(m.enob, 11.8);
}

TEST(TwoStep, IdealTransferEndpointsAndMidScale) {
  ats::TwoStepAdc adc(ideal_config());
  EXPECT_EQ(adc.convert_dc(-1.1), 0);
  EXPECT_EQ(adc.convert_dc(1.1), 4095);
  EXPECT_NEAR(adc.convert_dc(0.0), 2048, 1);
}

TEST(TwoStep, IdealTransferIsMonotone) {
  ats::TwoStepAdc adc(ideal_config());
  int prev = 0;
  std::vector<int> codes;
  for (double v = -1.05; v <= 1.05; v += 0.001) codes.push_back(adc.convert_dc(v));
  EXPECT_TRUE(adc::dsp::is_monotonic(codes));
  (void)prev;
}

TEST(TwoStep, FineOverRangeAbsorbsCoarseOffsets) {
  // Sloppy coarse comparators move segment boundaries; the fine flash's 2x
  // over-range digitizes the grown residue: ENOB holds.
  // The fine over-range covers boundary shifts up to half a coarse segment
  // (15.6 mV); 4 mV sigma keeps essentially every comparator inside it.
  auto cfg = ideal_config();
  cfg.enable.comparator_imperfections = true;
  cfg.coarse_comparator.sigma_offset = 4e-3;
  cfg.fine_comparator.sigma_offset = 0.0;
  ats::TwoStepAdc adc(cfg);
  EXPECT_GT(dynamic_test(adc).enob, 11.6);
}

TEST(TwoStep, CoarseOffsetsBeyondOverRangeBreakIt) {
  auto cfg = ideal_config();
  cfg.enable.comparator_imperfections = true;
  cfg.coarse_comparator.sigma_offset = 20e-3;  // tails exceed half a segment
  cfg.fine_comparator.sigma_offset = 0.0;
  ats::TwoStepAdc adc(cfg);
  EXPECT_LT(dynamic_test(adc).enob, 11.3);
}

TEST(TwoStep, LadderMismatchSetsLinearity) {
  // Segment mismatch largely averages out along the ladder (random-walk
  // INL), so visible spurs need a fairly coarse ladder.
  auto cfg = ideal_config();
  cfg.enable.ladder_mismatch = true;
  cfg.ladder_sigma = 0.02;
  ats::TwoStepAdc adc(cfg);
  const auto m = dynamic_test(adc);
  EXPECT_LT(m.sfdr_db, 80.0);
  EXPECT_GT(m.sfdr_db, 50.0);
}

TEST(TwoStep, SettlingCollapsesAboveTheDesignRate) {
  // The beta ~ 1/(sqrt(32)+1) residue amplifier is the bottleneck: at
  // 150 MS/s the same amplifier leaves visible settling error.
  auto cfg = ideal_config();
  cfg.enable.incomplete_settling = true;
  ats::TwoStepAdc at_80(cfg);
  const double at_design = dynamic_test(at_80).enob;
  cfg.conversion_rate = 150e6;
  ats::TwoStepAdc at_150(cfg);
  const double overclocked = dynamic_test(at_150).enob;
  EXPECT_GT(at_design, 11.5);
  EXPECT_LT(overclocked, at_design - 1.0);
}

TEST(TwoStep, ReferenceDesignLandsNearPublishedEnob) {
  // [5] reports ~10.2 ENOB at 80 MS/s; the reference design with every
  // mechanism enabled should sit in that neighbourhood.
  ats::TwoStepAdc adc(ats::reference_design());
  const auto m = dynamic_test(adc, 10e6, 1 << 13);
  EXPECT_GT(m.enob, 9.6);
  EXPECT_LT(m.enob, 11.2);
}

TEST(TwoStep, PowerEstimateNearPublishedClass) {
  ats::TwoStepAdc adc(ats::reference_design());
  const double watts = ats::estimate_power(adc);
  EXPECT_GT(watts, 0.08);
  EXPECT_LT(watts, 0.25);
}

TEST(TwoStep, SeedReproducible) {
  ats::TwoStepAdc a(ats::reference_design(7));
  ats::TwoStepAdc b(ats::reference_design(7));
  const adc::dsp::SineSignal tone(0.9, 9.77e6);
  EXPECT_EQ(a.convert(tone, 256), b.convert(tone, 256));
}

TEST(TwoStep, RejectsBadConfig) {
  auto cfg = ats::reference_design();
  cfg.coarse_bits = 2;
  EXPECT_THROW(ats::TwoStepAdc{cfg}, adc::common::ConfigError);
  cfg = ats::reference_design();
  cfg.settle_fraction = 0.0;
  EXPECT_THROW(ats::TwoStepAdc{cfg}, adc::common::ConfigError);
}
