/// Tests for foreground digital calibration — the post-paper extension that
/// measures realized stage weights and reconstructs with them.
#include "calibration/foreground.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dsp/linearity.hpp"
#include "dsp/signal.hpp"
#include "dsp/spectrum.hpp"
#include "pipeline/design.hpp"
#include "testbench/dynamic_test.hpp"

namespace ac = adc::calibration;
namespace ap = adc::pipeline;

namespace {

/// The reconstructed code rounded and clamped to the core's 12-bit word.
int rounded_code(const ac::CalibratedReconstructor& recon,
                 const adc::digital::RawConversion& raw) {
  const double max_code = std::ldexp(1.0, recon.table().resolution_bits()) - 1.0;
  return static_cast<int>(std::clamp(std::round(recon.reconstruct(raw)), 0.0, max_code));
}

/// A converter with exaggerated static errors and no noise: the worst case
/// for raw linearity, the best case for observing what calibration fixes.
ap::AdcConfig sloppy_design() {
  ap::AdcConfig cfg = ap::ideal_design();
  cfg.enable.capacitor_mismatch = true;
  cfg.enable.finite_opamp_gain = true;
  cfg.stage.c1.sigma_mismatch = 0.004;  // 8x the paper's matching
  cfg.stage.c2.sigma_mismatch = 0.004;
  cfg.stage1_dac_skew = 0.004;
  cfg.stage.opamp.dc_gain = 2000.0;  // 66 dB: a cheap, low-power opamp
  return cfg;
}

adc::dsp::SpectrumMetrics metrics_with(ap::PipelineAdc& adc,
                                        const ac::CalibrationTable& table,
                                        bool fractional = false) {
  const double fs = adc.conversion_rate();
  const auto tone = adc::dsp::coherent_frequency(10e6, fs, 1 << 13);
  const adc::dsp::SineSignal sig(0.985 * adc.full_scale_vpp() / 2.0, tone.frequency_hz);
  const auto raws = adc.convert_raw(sig, 1 << 13);
  const ac::CalibratedReconstructor recon(table);
  std::vector<double> volts;
  if (fractional) {
    const double lsb = adc.full_scale_vpp() / 4096.0;
    volts.reserve(raws.size());
    for (const auto& raw : raws) volts.push_back((recon.reconstruct(raw) - 2047.5) * lsb);
  } else {
    std::vector<int> codes;
    codes.reserve(raws.size());
    for (const auto& raw : raws) codes.push_back(rounded_code(recon, raw));
    volts = adc::dsp::codes_to_volts(codes, adc.resolution_bits(), adc.full_scale_vpp());
  }
  adc::dsp::SpectrumOptions opt;
  opt.fundamental_bin = tone.cycles;
  return adc::dsp::analyze_tone(volts, fs, opt);
}

double sfdr_with(ap::PipelineAdc& adc, const ac::CalibrationTable& table) {
  return metrics_with(adc, table).sfdr_db;
}

}  // namespace

TEST(CalibrationTable, NominalWeightsArePowersOfTwo) {
  const auto t = ac::CalibrationTable::nominal(10, 2);
  EXPECT_EQ(t.resolution_bits(), 12);
  EXPECT_DOUBLE_EQ(t.stage_weights[0], 1024.0);
  EXPECT_DOUBLE_EQ(t.stage_weights[9], 2.0);
  EXPECT_DOUBLE_EQ(t.offset, 2046.0);
}

TEST(ForegroundCalibration, IdealConverterMeasuresIdealWeights) {
  ap::PipelineAdc adc(ap::ideal_design());
  const ac::ForegroundCalibrator cal({/*averaging=*/32});
  const auto table = cal.calibrate(adc);
  const auto nominal = ac::CalibrationTable::nominal(10, 2);
  for (std::size_t i = 0; i < table.stage_weights.size(); ++i) {
    EXPECT_NEAR(table.stage_weights[i], nominal.stage_weights[i],
                1e-3 * nominal.stage_weights[i])
        << "stage " << i;
  }
}

TEST(ForegroundCalibration, RestoresNormalOperation) {
  ap::PipelineAdc adc(ap::ideal_design());
  const ac::ForegroundCalibrator cal({32});
  (void)cal.calibrate(adc);
  // No stage left forced: conversion works normally afterwards.
  for (std::size_t i = 0; i < adc.stage_count(); ++i) {
    EXPECT_FALSE(adc.stage(i).forced_code().has_value()) << i;
  }
  EXPECT_NEAR(adc.convert_dc(0.0), 2048, 1);
}

TEST(ForegroundCalibration, MeasuresRealizedWeightsOnSloppyDie) {
  ap::PipelineAdc adc(sloppy_design());
  const ac::ForegroundCalibrator cal({32});
  const auto table = cal.calibrate(adc);
  // Stage-1 weight deviates from 1024 by the DAC/gain error (~0.5 %), far
  // beyond measurement noise (the design is noiseless here).
  EXPECT_NE(table.stage_weights[0], 1024.0);
  EXPECT_NEAR(table.stage_weights[0], 1024.0, 0.03 * 1024.0);
}

TEST(ForegroundCalibration, FixesStaticLinearityOfSloppyDie) {
  ap::PipelineAdc adc(sloppy_design());
  const ac::ForegroundCalibrator cal({32});
  const auto measured = cal.calibrate(adc);

  const double sfdr_raw = sfdr_with(adc, ac::CalibrationTable::nominal(10, 2));
  const double sfdr_cal = sfdr_with(adc, measured);
  // The sloppy die is badly nonlinear raw; calibration buys >= 10 dB.
  EXPECT_LT(sfdr_raw, 62.0);
  EXPECT_GT(sfdr_cal, sfdr_raw + 10.0);
}

TEST(ForegroundCalibration, NominalDieTradeoffs) {
  // On the already-well-matched nominal die the picture is subtler than
  // "calibration helps": removing the mismatch errors (a) lowers the noise
  // floor (they are noise-like across codes) and (b) exposes the front-end
  // charge-injection HD3 that the raw transfer partially cancels on this
  // particular die. Both effects are physical; assert them directly.
  ap::PipelineAdc adc(ap::nominal_design());
  const ac::ForegroundCalibrator cal({512});
  const auto measured = cal.calibrate(adc);
  const auto raw = metrics_with(adc, ac::CalibrationTable::nominal(10, 2));
  const auto cal_frac = metrics_with(adc, measured, /*fractional=*/true);
  // (a) mismatch pseudo-noise removed: SNR improves.
  EXPECT_GT(cal_frac.snr_db, raw.snr_db + 0.8);
  // (b) the calibrated transfer is front-end-limited: THD lands at the
  // injection level, within ~2.5 dB of the tracking-only configuration.
  EXPECT_GT(cal_frac.sfdr_db, 64.0);
  EXPECT_LT(cal_frac.sfdr_db, raw.sfdr_db + 6.0);
}

TEST(ForegroundCalibration, FractionalOutputAvoidsRequantizationLoss) {
  ap::PipelineAdc adc(ap::nominal_design());
  const ac::ForegroundCalibrator cal({512});
  const auto measured = cal.calibrate(adc);
  const auto rounded = metrics_with(adc, measured, /*fractional=*/false);
  const auto frac = metrics_with(adc, measured, /*fractional=*/true);
  // Rounding calibrated (non-integer) levels back to 12 bits costs SFDR.
  EXPECT_GE(frac.sfdr_db, rounded.sfdr_db);
}

TEST(CalibratedReconstructor, MatchesBuiltInCorrectionWithNominalTable) {
  ap::PipelineAdc adc(ap::ideal_design());
  const ac::CalibratedReconstructor recon(ac::CalibrationTable::nominal(10, 2));
  for (double v : {-0.9, -0.31, 0.0, 0.123, 0.77}) {
    const auto raw = adc.convert_dc_raw(v);
    EXPECT_EQ(rounded_code(recon, raw), adc.convert_dc(v)) << v;
  }
}

TEST(CalibratedReconstructor, ClampsOutOfRange) {
  auto table = ac::CalibrationTable::nominal(10, 2);
  ac::CalibratedReconstructor recon(table);
  adc::digital::RawConversion raw;
  raw.stage_codes.assign(10, adc::digital::StageCode::kPlus);
  raw.flash_code = 3;
  EXPECT_EQ(rounded_code(recon, raw), 4095);
  raw.stage_codes.assign(10, adc::digital::StageCode::kMinus);
  raw.flash_code = 0;
  EXPECT_EQ(rounded_code(recon, raw), 0);
}

TEST(CalibratedReconstructor, RejectsGeometryMismatch) {
  const ac::CalibratedReconstructor recon(ac::CalibrationTable::nominal(10, 2));
  adc::digital::RawConversion raw;
  raw.stage_codes.assign(8, adc::digital::StageCode::kZero);
  EXPECT_THROW((void)recon.reconstruct(raw), adc::common::ConfigError);
}
