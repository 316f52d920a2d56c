/// \file twostep.hpp
/// Behavioral two-step (subranging) ADC — the architecture of the paper's
/// closest competitor ([5] Zjajo et al., ESSCIRC 2003: a 1.8 V 12-bit
/// 80 MS/s two-step ADC in 0.18 um).
///
/// The paper's Fig. 8 places [5] nearest to its own design in FM and area;
/// this module implements that baseline on the same device substrate so the
/// architectural comparison (pipeline vs two-step) can be made inside one
/// model world:
///
///   S/H -> 6-bit coarse flash -> DAC -> subtract -> x32 residue amplifier
///       -> 7-bit fine flash -> digital combine (1 bit of overlap)
///
/// The decisive architectural differences the models expose:
///  * the residue amplifier runs at feedback factor ~1/32 (vs ~0.42 for a
///    1.5-bit pipeline stage), so the same settling accuracy needs ~13x the
///    closed-loop bandwidth — the power reason pipelines won at speed;
///  * 190 clocked comparators versus the pipeline's 23;
///  * conversion latency of 2 cycles versus the pipeline's 6 — the two-step
///    advantage that kept it alive in control loops.
#pragma once

#include <cstdint>
#include <vector>

#include "analog/comparator.hpp"
#include "analog/opamp.hpp"
#include "analog/switches.hpp"
#include "clocking/clock.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "dsp/signal.hpp"

namespace adc::twostep {

using namespace adc::common::literals;

/// Error-mechanism switches (a subset of the pipeline's, same semantics).
struct TwoStepNonIdealities {
  bool thermal_noise = true;
  bool aperture_jitter = true;
  bool ladder_mismatch = true;
  bool comparator_imperfections = true;
  bool incomplete_settling = true;
  bool tracking_nonlinearity = true;
};

/// Full configuration of the two-step converter.
struct TwoStepConfig {
  int coarse_bits = 6;
  int fine_bits = 7;  ///< one bit of overlap: resolution = coarse + fine - 1
  double full_scale_vpp = 2.0;
  double vdd = 1.8;
  double conversion_rate = 80.0_MHz;

  /// Per-side sampling capacitance of the S/H [F].
  double sh_cap = 1.0_pF;
  /// Excess factor on the S/H kT/C noise.
  double noise_excess = 1.5;

  /// Reference-ladder segment mismatch (one sigma, relative). Sets the
  /// coarse DAC / fine threshold INL.
  double ladder_sigma = 0.0008;

  adc::analog::ComparatorSpec coarse_comparator;
  adc::analog::ComparatorSpec fine_comparator;
  adc::analog::SwitchConfig input_switch;
  adc::clocking::ClockSpec clock;

  /// Residue amplifier (gain 2^(fine_bits-2), feedback factor ~ 1/gain).
  adc::analog::OpampParams residue_amp;
  /// Fraction of the half period available for residue settling.
  double settle_fraction = 0.85;

  TwoStepNonIdealities enable;
  std::uint64_t seed = 1;
};

/// One realized two-step converter.
class TwoStepAdc {
 public:
  explicit TwoStepAdc(const TwoStepConfig& config);

  /// Convert n samples of a continuous-time signal.
  [[nodiscard]] std::vector<int> convert(const adc::dsp::Signal& signal, std::size_t n);

  /// One DC conversion.
  [[nodiscard]] int convert_dc(double v_diff);

  [[nodiscard]] int resolution_bits() const {
    return config_.coarse_bits + config_.fine_bits - 1;
  }
  [[nodiscard]] double full_scale_vpp() const { return config_.full_scale_vpp; }
  [[nodiscard]] double conversion_rate() const { return config_.conversion_rate; }
  /// Sample-to-output latency: coarse phase + fine phase.
  [[nodiscard]] int latency_cycles() const { return 2; }

  /// Total clocked comparators (the two-step's power signature).
  [[nodiscard]] std::size_t comparator_count() const {
    return coarse_.size() + fine_.size();
  }
  /// Interstage (residue) gain.
  [[nodiscard]] double residue_gain() const { return residue_gain_; }
  /// Residue-amplifier feedback factor (the settling-bandwidth handicap).
  [[nodiscard]] double beta() const { return 1.0 / (residue_gain_ + 1.0); }

  [[nodiscard]] const TwoStepConfig& config() const { return config_; }

 private:
  static TwoStepConfig normalize(TwoStepConfig config);
  [[nodiscard]] int quantize_sample(double sampled);

  TwoStepConfig config_;
  adc::common::Rng rng_;
  adc::common::Rng noise_rng_;
  adc::analog::DifferentialSampler sampler_;
  adc::clocking::SamplingClock clock_;
  adc::analog::Opamp residue_amp_;

  double residue_gain_;
  double sigma_sample_;
  /// Realized ladder tap voltages for the coarse flash/DAC (2^coarse - 1
  /// thresholds) and the fine flash (2^fine - 1 thresholds).
  std::vector<double> coarse_thresholds_;
  std::vector<double> fine_thresholds_;
  std::vector<adc::analog::Comparator> coarse_;
  std::vector<adc::analog::Comparator> fine_;
};

/// A reference design loosely matched to [5]'s headline numbers (12 bits,
/// 80 MS/s, 1.8 V): used by the architecture-comparison bench.
[[nodiscard]] TwoStepConfig reference_design(std::uint64_t seed = 0x25A10);

/// Crude supply-power estimate of the two-step converter [W]: clocked
/// comparators + S/H + residue amplifier + ladder/reference drivers.
[[nodiscard]] double estimate_power(const TwoStepAdc& adc);

}  // namespace adc::twostep
