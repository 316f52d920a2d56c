/// \file adc.hpp
/// The complete 12-bit pipeline ADC: every block on the paper's die photo.
///
/// Composition (paper Figs. 1, 3, 7):
///   * sampling front end: the first stage samples the external input
///     directly (no dedicated S/H) through un-bootstrapped, bulk-switched
///     transmission gates — jitter and tracking nonlinearity enter here;
///   * ten 1.5-bit stages with the paper's 1 : 2/3 : 1/3 scaling;
///   * 2-bit back-end flash;
///   * delay-alignment registers and redundancy error correction;
///   * bandgap, reference buffer and CM generator;
///   * SC bias-current generator (eq. 1) mirrored to the stages.
///
/// A `NonIdealities` flag set lets every physical error mechanism be enabled
/// in isolation — the integration tests verify that each one moves the right
/// metric in the right direction, and the ideal configuration quantizes like
/// a perfect 12-bit converter.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analog/bandgap.hpp"
#include "analog/refbuffer.hpp"
#include "analog/switches.hpp"
#include "bias/bias_source.hpp"
#include "bias/distribution.hpp"
#include "bias/fixed_bias.hpp"
#include "bias/sc_bias.hpp"
#include "clocking/clock.hpp"
#include "clocking/two_phase.hpp"
#include "common/fidelity.hpp"
#include "common/noise_plane.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "digital/alignment.hpp"
#include "digital/correction.hpp"
#include "dsp/signal.hpp"
#include "pipeline/fast_chain.hpp"
#include "pipeline/fast_front.hpp"
#include "pipeline/flash.hpp"
#include "pipeline/scaling.hpp"
#include "pipeline/stage.hpp"

namespace adc::pipeline {

using namespace adc::common::literals;

/// Which bias generator feeds the pipeline.
enum class BiasScheme {
  kSwitchedCapacitor,  ///< the paper's eq. (1) generator
  kFixed,              ///< conventional margin-sized reference (ablation A4)
};

/// Master switches for each physical error mechanism.
struct NonIdealities {
  bool thermal_noise = true;
  bool aperture_jitter = true;
  bool capacitor_mismatch = true;
  bool comparator_imperfections = true;
  bool finite_opamp_gain = true;
  bool incomplete_settling = true;
  bool tracking_nonlinearity = true;
  bool hold_leakage = true;
  bool reference_imperfections = true;
  bool bias_ripple = true;

  /// Everything disabled: the ideal 12-bit quantizer.
  static NonIdealities all_off();
  /// Everything enabled (the default).
  static NonIdealities all_on() { return NonIdealities{}; }

  bool operator==(const NonIdealities&) const = default;
};

/// Full converter configuration (stage-1-sized; scaling derives the rest).
struct AdcConfig {
  int num_stages = 10;
  int flash_bits = 2;
  double full_scale_vpp = 2.0;  ///< differential peak-to-peak [V]
  double vdd = 1.8;
  /// Junction temperature [K]. Raising it scales the kT/C noise, doubles the
  /// junction leakage every ~10 K, degrades mobility (opamp GBW ~ T^-1.5)
  /// and moves the bandgap along its curvature — the PVT corner knob.
  double temperature_k = 300.0;
  double conversion_rate = 110.0_MHz;

  ScalingPolicy scaling = ScalingPolicy::paper();
  StageSpec stage;
  /// Systematic C1/C2 ratio skew of the first stage (metal-density gradient
  /// across the largest capacitor array). Unlike the random per-unit
  /// mismatch, this deterministic error concentrates into low-order INL
  /// spurs — the static SFDR floor of Table I. Gated by
  /// `enable.capacitor_mismatch`.
  double stage1_dac_skew = 0.0;
  adc::analog::ComparatorSpec flash_comparator;
  adc::analog::SwitchConfig input_switch;
  adc::clocking::ClockSpec clock;
  adc::clocking::PhaseTimingSpec phases;

  BiasScheme bias_scheme = BiasScheme::kSwitchedCapacitor;
  adc::bias::ScBiasSpec sc_bias;
  adc::bias::FixedBiasSpec fixed_bias;
  /// Mirror-up ratio from the generator's M0 to the stage-1 bias leg.
  double mirror_master_gain = 10.0;
  double mirror_sigma = 0.01;

  adc::analog::BandgapSpec bandgap;
  adc::analog::RefBufferSpec refs;

  NonIdealities enable;
  std::uint64_t seed = 1;

  /// Which determinism contract the per-sample kernel honors (see
  /// common/fidelity.hpp). Construction-time Monte-Carlo draws always use
  /// the exact Rng, so the same (config, seed) fabricates the same die under
  /// either profile; only the per-sample noise stream and math rounding
  /// differ. `kExact` keeps the golden-code bit-identity contract.
  adc::common::FidelityProfile fidelity = adc::common::FidelityProfile::kExact;

  /// Field by field. A batch block's dies must compare equal once their
  /// seed and conversion rate are aligned (batch/converter.hpp).
  bool operator==(const AdcConfig&) const = default;
};

/// Latency-annotated result of a streaming conversion.
struct StreamResult {
  std::vector<int> codes;  ///< one per input sample, in sample order
  int latency_cycles = 0;  ///< cycles between sampling and DOUT validity
};

/// One realized converter instance (all Monte-Carlo draws fixed by the seed).
class PipelineAdc {
 public:
  explicit PipelineAdc(const AdcConfig& config);

  // --- conversion ---

  /// Convert `n` samples of a continuous-time signal at the configured
  /// conversion rate. Returns latency-compensated codes: codes[k] is the
  /// conversion of the sample taken at (jittered) instant k/f_CR.
  [[nodiscard]] std::vector<int> convert(const adc::dsp::Signal& signal, std::size_t n);

  /// Same, but exposes the pipeline latency explicitly.
  [[nodiscard]] StreamResult convert_stream(const adc::dsp::Signal& signal, std::size_t n);

  /// Convert already-sampled voltages (no front-end tracking or jitter);
  /// used by unit tests that want to isolate the quantizer core.
  [[nodiscard]] std::vector<int> convert_samples(std::span<const double> voltages);

  /// One DC conversion (includes noise if enabled).
  [[nodiscard]] int convert_dc(double v_diff);

  /// One DC conversion returning the *raw* (uncorrected) stage codes —
  /// the input of the digital correction/calibration logic.
  [[nodiscard]] adc::digital::RawConversion convert_dc_raw(double v_diff);

  /// Raw conversions of a continuous-time signal (calibrated reconstruction
  /// consumes these instead of the built-in shift-and-add correction).
  [[nodiscard]] std::vector<adc::digital::RawConversion> convert_raw(
      const adc::dsp::Signal& signal, std::size_t n);

  /// Force stage `i`'s ADSC decision (foreground calibration); nullopt
  /// restores normal operation.
  void force_stage_code(std::size_t i, std::optional<adc::digital::StageCode> code);

  // --- introspection ---

  [[nodiscard]] int resolution_bits() const { return correction_.resolution_bits(); }
  [[nodiscard]] double vref() const { return refs_.vref(); }
  [[nodiscard]] double lsb() const;
  [[nodiscard]] double full_scale_vpp() const { return config_.full_scale_vpp; }
  [[nodiscard]] double conversion_rate() const { return config_.conversion_rate; }
  [[nodiscard]] int latency_cycles() const;

  [[nodiscard]] std::size_t stage_count() const { return stages_.size(); }
  [[nodiscard]] const PipelineStage& stage(std::size_t i) const { return stages_.at(i); }
  /// Stage `i` for failure injection. The fast profile's stage-chain view
  /// is rebuilt from the stages at the next conversion after this call, so
  /// make the edits before converting again.
  PipelineStage& stage_mutable(std::size_t i) {
    fast_plan_stale_ = true;
    return stages_.at(i);
  }
  [[nodiscard]] const FlashConverter& flash() const { return flash_; }

  /// Noise-free residue at the output of stage `stage_index` for DC input
  /// `vin` (residue-plot support; uses nominal reference and full settling).
  [[nodiscard]] double residue_after_stage(std::size_t stage_index, double vin) const;

  /// Bias current delivered to stage `i` at the configured rate [A].
  [[nodiscard]] double stage_bias_current(std::size_t i) const;
  /// Master generator current at the configured rate [A].
  [[nodiscard]] double master_bias_current() const;
  /// Total analog supply current of the pipeline + bias + references [A].
  [[nodiscard]] double total_analog_current() const;
  /// Total stage bias current at an arbitrary conversion rate [A]
  /// (realized mirror gains applied to the generator's output at `f_cr`).
  [[nodiscard]] double pipeline_bias_current(double f_cr) const;

  /// Phase windows at the configured rate.
  [[nodiscard]] adc::clocking::PhaseWindows phase_windows() const;

  [[nodiscard]] const AdcConfig& config() const { return config_; }
  [[nodiscard]] const adc::bias::BiasSource& bias_source() const { return *bias_; }
  [[nodiscard]] const adc::digital::DelayAlignment& alignment() const { return alignment_; }

  // --- fast profile (batch engine, src/batch) ---

  /// This die's fast-profile stage chain at one lane: the view
  /// PipelineAdc's own fast conversions run, and the rows a BatchConverter
  /// scatters into one lane of a die block. Rebuilt from the stages after
  /// stage_mutable(); valid until the next stage edit.
  [[nodiscard]] fast_chain::ChainView fast_chain_view();
  /// This die's fast-profile front end (clock and input sampler), the view
  /// its own fast conversions run at one lane and a BatchConverter runs for
  /// a whole block. Points into this converter; valid while it lives.
  [[nodiscard]] fast_front::FrontView fast_front_view() const;
  /// The noise-plane Philox key and row width of the fast profile.
  [[nodiscard]] std::uint64_t noise_plane_key() const { return noise_plane_.key(); }
  [[nodiscard]] std::size_t noise_slots_per_sample() const {
    return noise_plane_.slots_per_sample();
  }
  /// The eager blocks of a noise plane (pipeline/fast_layout.hpp), one
  /// period of two rows: offsets in [0, slots), valid for planes that start
  /// at an even sample. Points into this converter; valid while it lives.
  [[nodiscard]] adc::common::tile::BlockList eager_blocks() const {
    return {eager_blocks_.data(), eager_blocks_.size(), noise_plane_.slots_per_sample()};
  }
  /// The redundancy correction every conversion's codes go through.
  [[nodiscard]] const adc::digital::ErrorCorrection& correction() const { return correction_; }

  /// Reset dynamic state (reference droop, alignment registers) for a fresh
  /// capture; Monte-Carlo draws (mismatch, offsets) are preserved.
  void reset_state();

 private:
  /// Apply the NonIdealities flags by zeroing the corresponding parameters.
  static AdcConfig normalize(AdcConfig config);

  /// Core quantization of one sampled-and-held voltage.
  [[nodiscard]] adc::digital::RawConversion quantize_sample(double sampled);

  /// One capture of `n` samples of `signal` under either profile, each
  /// sample's raw conversion handed to `sink` in order.
  template <class Sink>
  void capture(const adc::dsp::Signal& signal, std::size_t n, Sink&& sink);
  /// The same for already-held voltages: no clock, no tracking term.
  template <class Sink>
  void capture_held(std::span<const double> voltages, Sink&& sink);

  // --- fast-profile machinery (positional determinism; see
  // common/fidelity.hpp). Each capture bumps `fast_epoch_` and reads its
  // noise from a freshly generated plane (slot layout in
  // pipeline/fast_layout.hpp); the front end and the quantizer are
  // pipeline/fast_front.hpp and pipeline/fast_chain.hpp at one lane. ---

  /// Rebuild the one-lane chain plan from the stages, flash and reference.
  void refresh_fast_plan();
  /// One fast capture of `n` samples: `input(front, k, draws)` yields
  /// sample k's tracked voltage, `sink(raw)` takes its raw conversion.
  template <class Input, class Sink>
  void run_fast(std::size_t n, Input&& input, Sink&& sink);

  AdcConfig config_;
  adc::common::Rng rng_;
  adc::common::Rng noise_rng_;

  adc::analog::Bandgap bandgap_;
  adc::analog::ReferenceBuffer refs_;
  adc::analog::DifferentialSampler sampler_;
  adc::clocking::SamplingClock clock_;
  adc::clocking::PhaseGenerator phases_;

  std::unique_ptr<adc::bias::BiasSource> bias_;
  adc::bias::MirrorBank mirrors_;

  std::vector<PipelineStage> stages_;
  FlashConverter flash_;
  adc::digital::ErrorCorrection correction_;
  adc::digital::DelayAlignment alignment_;

  // --- conversion-loop invariants, hoisted out of quantize_sample() ---
  // All derive from config_ and the realized components, none change after
  // construction, and each is computed with exactly the operations the
  // per-sample code used (the kernel stays bit-identical).
  adc::clocking::PhaseWindows windows_{};  ///< phases_.windows(f_CR)
  double settle_s_ = 1.0;                  ///< effective settling window [s]
  double inv_rate_ = 0.0;                  ///< 1 / f_CR [s]
  double fast_period_ = 0.0;               ///< clock_.period(), the front end's T [s]
  double master_base_ = 0.0;               ///< ripple-free master bias [A]
  double ripple_sigma_ = 0.0;              ///< 0 disables per-sample ripple
  std::vector<double> leg_currents_;       ///< per-stage bias at master_base_

  // --- fast-profile state ---
  /// Per-capture noise draws, `(sample, slot)`-indexed; keyed by the
  /// conversion-noise sub-stream seed so dies stay independent.
  adc::common::NoisePlane noise_plane_;
  std::vector<std::uint32_t> eager_blocks_;  ///< see eager_blocks()
  /// Capture counter = plane stream id. Advances once per capture/DC call
  /// and is deliberately NOT reset by reset_state(): repeated captures see
  /// fresh noise, mirroring how the exact profile's sequential stream
  /// advances across calls.
  std::uint64_t fast_epoch_ = 0;
  /// Reference droop of the fast profile (the chain's per-lane state at one
  /// lane); reset_state() clears it like the exact profile's refs_ droop.
  double fast_droop_ = 0.0;
  /// One-lane chain plan: the view's scalars (its pointers are bound per
  /// call by fast_chain_view()) and the [field][stage] / [field][comparator]
  /// rows behind it. Built lazily; stage_mutable() marks it stale.
  fast_chain::ChainView fast_view_{};
  std::vector<double> fast_stage_;
  std::vector<double> fast_flash_;
  std::vector<int> fast_forced_;  ///< [stage] forced code or kNotForced
  double fast_level_error_ = 0.0;
  double fast_recharge_factor_ = 0.0;  ///< exp(-T/(Rout·C)); 0 when recharge is off
  bool fast_plan_stale_ = true;
};

}  // namespace adc::pipeline
