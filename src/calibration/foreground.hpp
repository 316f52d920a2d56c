/// \file foreground.hpp
/// Foreground digital calibration of the pipeline's stage weights.
///
/// The paper's converter relies on raw capacitor matching for its static
/// linearity (Table I: DNL +/-1.2 LSB from ~0.05 % metal-cap matching). The
/// natural extension — which dominated pipeline-ADC literature in the years
/// after the paper — is to *measure* each stage's realized DAC step through
/// the remaining chain and reconstruct with the measured weights instead of
/// the ideal powers of two. That converts capacitor mismatch and finite
/// opamp gain from hard linearity errors into digital constants.
///
/// Implemented here is the classic foreground (production-test-time) scheme:
///  * for stage i (calibrated back to front), stages 0..i-1 are forced to
///    code 0 and a small DC test level puts stage i's input at V_REF/4 —
///    the decision boundary, where both code 0 and code +1 are legal;
///  * stage i's DSB is driven with 0 and +1 alternately; the already-
///    calibrated backend digitizes both residues;
///  * the averaged difference *is* the stage's weight in final-code LSB.
///
/// Reconstruction then evaluates D = offset + sum_i d_i * w_i + flash with
/// the measured w_i (fractional arithmetic, rounded at the end).
#pragma once

#include <cstddef>
#include <vector>

#include "digital/codes.hpp"
#include "pipeline/adc.hpp"

namespace adc::calibration {

/// Knobs of the foreground calibration run.
struct CalibrationOptions {
  /// Conversions averaged per forced measurement (suppresses kT/C noise;
  /// the weight estimate's sigma is sigma_noise/sqrt(averaging)).
  int averaging = 512;
  /// How many front (MSB) stages to calibrate; the rest keep their nominal
  /// powers-of-two weights. Deep-stage weight errors are sub-LSB by design,
  /// while *measuring* them against the bare flash hands its threshold
  /// offsets to every MSB weight as a systematic unit error — so the
  /// accurate move is to calibrate the MSB stages against the (sub-LSB
  /// accurate) raw backend. 0 or negative calibrates every stage.
  int stages_to_calibrate = 6;
};

/// Measured stage weights, in units of final-code LSB.
struct CalibrationTable {
  int num_stages = 0;
  int flash_bits = 0;
  /// w_i: the measured digital weight of stage i's decision.
  std::vector<double> stage_weights;
  /// Reconstruction offset placing the all-zero path at mid-scale.
  double offset = 0.0;

  /// The ideal table (weights = powers of two) for a given geometry.
  [[nodiscard]] static CalibrationTable nominal(int num_stages, int flash_bits);

  [[nodiscard]] int resolution_bits() const { return num_stages + flash_bits; }
};

/// Runs the foreground calibration sequence on a converter.
class ForegroundCalibrator {
 public:
  explicit ForegroundCalibrator(const CalibrationOptions& options = {});

  /// Measure all stage weights. Drives the converter's DSBs via
  /// force_stage_code(); the converter is restored to normal operation
  /// before returning.
  [[nodiscard]] CalibrationTable calibrate(adc::pipeline::PipelineAdc& adc) const;

  [[nodiscard]] const CalibrationOptions& options() const { return options_; }

 private:
  CalibrationOptions options_;
};

/// Reconstructs output codes from raw conversions with a calibration table.
class CalibratedReconstructor {
 public:
  explicit CalibratedReconstructor(CalibrationTable table);

  /// Fractional reconstructed code (offset + sum d_i w_i + flash).
  /// Calibrated levels are non-integer: rounding them back to the core's
  /// 12 bits re-quantizes with signal-correlated error (~2 dB of SFDR on a
  /// good die). Use this fractional value — or a wider output word — where
  /// the downstream DSP can take it, as production calibrated ADCs do.
  [[nodiscard]] double reconstruct(const adc::digital::RawConversion& raw) const;

  [[nodiscard]] const CalibrationTable& table() const { return table_; }

 private:
  CalibrationTable table_;
};

}  // namespace adc::calibration
