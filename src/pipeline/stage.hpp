/// \file stage.hpp
/// One 1.5-bit pipeline stage: sampling network, ADSC, DSB and flip-around
/// MDAC around the two-stage Miller opamp (paper Fig. 2).
///
/// Behavioral contract per conversion:
///  1. sample the (already settled) differential input with kT/C + excess
///     thermal noise on C1 + C2;
///  2. the ADSC's two comparators at +/- V_REF/4 resolve the sample to
///     d in {-1, 0, +1};
///  3. the held charge droops through the off-switch leakage during the
///     amplification phase;
///  4. the DSB connects V_REFP/V_REFN/V_CM to C1's top plate and the opamp
///     settles towards the residue
///         V_res = (1 + C1/C2) * V_held - d * (C1/C2) * V_REF
///     with finite-gain, incomplete-settling/slew errors and swing clipping.
///
/// Capacitor mismatch makes both the interstage gain and the DAC step
/// deviate from 2 and V_REF — the dominant static-linearity error of the
/// converter (Table I DNL/INL).
#pragma once

#include <cstddef>

#include "analog/capacitor.hpp"
#include "analog/comparator.hpp"
#include "analog/leakage.hpp"
#include "analog/opamp.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "digital/codes.hpp"

namespace adc::pipeline {

using namespace adc::common::literals;

/// Stage-1-sized electrical specification; later stages scale it.
struct StageSpec {
  /// Per-side sampling capacitors (C1 and C2 of the paper's Fig. 2; the
  /// sampling capacitance per side is C1 + C2).
  adc::analog::CapacitorSpec c1{275.0_fF, 0.0004, 0.0};
  adc::analog::CapacitorSpec c2{275.0_fF, 0.0004, 0.0};
  /// Opamp input parasitic [F] at stage-1 size (lowers the feedback factor).
  double parasitic_input_cap = 100.0_fF;
  /// Opamp parameters, specified at the stage-1 nominal bias current.
  adc::analog::OpampParams opamp;
  /// ADSC comparator statistics (thresholds are set to +/- V_REF/4).
  adc::analog::ComparatorSpec adsc_comparator;
  /// Hold-node leakage (droop) parameters.
  adc::analog::LeakageSpec leakage;
  /// Multiplies the sampled-noise power 2kT/(C1+C2): switch and opamp excess
  /// noise folded in. 1.0 = bare kT/C; 0 disables thermal noise.
  double noise_excess = 3.0;

  bool operator==(const StageSpec&) const = default;
};

/// Result of one stage conversion.
struct StageResult {
  adc::digital::StageCode code = adc::digital::StageCode::kZero;
  double residue = 0.0;   ///< settled differential output [V]
  bool slew_limited = false;
  bool clipped = false;
};

/// One realized stage (capacitors and comparator offsets drawn).
class PipelineStage {
 public:
  /// Build stage `index` (0-based) from the stage-1 spec with scaling factor
  /// `scale` in (0, 1]. Capacitors scale by `scale`; their relative mismatch
  /// grows as 1/sqrt(scale) (matching follows area). `vref_nominal` fixes the
  /// ADSC thresholds.
  PipelineStage(const StageSpec& spec, double scale, double vref_nominal,
                adc::common::Rng stage_rng);

  /// Process one sample. `v_in` is the settled differential input [V];
  /// `vref` the effective reference this conversion [V]; `ibias` the stage's
  /// bias current [A]; `settle_s`/`hold_s` from the phase generator;
  /// `noise_rng` supplies the thermal draws.
  [[nodiscard]] StageResult process(double v_in, double vref, double ibias, double settle_s,
                                    double hold_s, adc::common::Rng& noise_rng);

  /// Precompute the fast-profile per-sample constants: the settle
  /// coefficients at this stage's ripple-free bias current, and the hold
  /// droop as an affine map of the sampled voltage. The droop model is
  /// affine in the node voltages, so for a fixed hold window the
  /// differential droop collapses to d0 + d1*v — two flops instead of the
  /// two divides of the general expression. PipelineAdc calls this once at
  /// construction with its phase-generator hold window.
  void prepare_fast(double ibias_base, double hold_s) {
    fast_settle_ = opamp_.settle_coeffs(beta_, ibias_base);
    droop_d0_ = 0.0;
    droop_d1_ = 0.0;
    const auto& spec = leakage_.spec();
    if (spec.i0 > 0.0 && hold_s > 0.0) {
      const double base = spec.i0 * hold_s / sampling_cap();
      const double sp = leakage_.scale_p();
      const double sn = leakage_.scale_n();
      droop_d0_ = base * (sp - sn);
      droop_d1_ = base * (0.5 * spec.k_v) * (sp + sn);
    }
  }

  /// Write the invariants the fast stage chain reads per sample
  /// (pipeline/fast_chain.hpp StageField order) into a [field][stage] view:
  /// field f lands at `out[f * stride]`. Valid after prepare_fast().
  void write_fast_fields(double* out, std::size_t stride) const;

  /// Noise-free ADSC decision at nominal thresholds (for residue plots and
  /// the ideal transfer).
  [[nodiscard]] adc::digital::StageCode ideal_decision(double v_in) const;

  /// Residue target (before settling dynamics) for a given decision.
  [[nodiscard]] double residue_target(double v_held, adc::digital::StageCode d,
                                      double vref) const;

  // --- realized electrical values (introspection for tests/benches) ---
  [[nodiscard]] double c1() const { return c1_.value(); }
  [[nodiscard]] double c2() const { return c2_.value(); }
  [[nodiscard]] double sampling_cap() const { return c1_.value() + c2_.value(); }
  [[nodiscard]] double beta() const { return beta_; }
  [[nodiscard]] double interstage_gain() const { return 1.0 + c1_.value() / c2_.value(); }
  [[nodiscard]] double sample_noise_rms() const { return sigma_sample_; }
  [[nodiscard]] double scale() const { return scale_; }
  [[nodiscard]] const adc::analog::Opamp& opamp() const { return opamp_; }

  /// Force ADSC comparator offsets (failure injection in tests). Index 0 is
  /// the lower (-V_REF/4) comparator, 1 the upper (+V_REF/4).
  void inject_comparator_offset(int comparator_index, double offset);

  /// Realized ADSC comparator offset [V] drawn at build; index 0 is the
  /// lower (-V_REF/4) comparator, 1 the upper (+V_REF/4). Introspection for
  /// the RNG sub-stream independence tests.
  [[nodiscard]] double comparator_offset(int comparator_index) const {
    return comparator_index == 0 ? cmp_low_.offset() : cmp_high_.offset();
  }

 private:
  double scale_;
  adc::analog::Capacitor c1_;
  adc::analog::Capacitor c2_;
  double beta_;
  double gdac_ = 0.0;  ///< realized C1/C2 (DAC step gain), fixed at build
  double gain_ = 0.0;  ///< realized interstage gain 1 + C1/C2
  double sigma_sample_;
  double vref_nominal_;
  adc::analog::Opamp opamp_;
  adc::analog::Comparator cmp_low_;   ///< threshold -V_REF/4
  adc::analog::Comparator cmp_high_;  ///< threshold +V_REF/4
  adc::analog::HoldLeakage leakage_;
  /// Fast-profile settle constants at the ripple-free bias (prepare_fast).
  adc::analog::Opamp::SettleCoeffs fast_settle_;
  /// Fast-profile hold droop, affine in the sampled voltage: d0 + d1*v at
  /// the hold window bound by prepare_fast().
  double droop_d0_ = 0.0;
  double droop_d1_ = 0.0;
};

}  // namespace adc::pipeline
