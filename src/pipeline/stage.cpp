#include "pipeline/stage.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "pipeline/fast_chain.hpp"

namespace adc::pipeline {

using adc::digital::StageCode;

namespace {

/// Scale a capacitor spec: value shrinks with `scale`, relative mismatch
/// grows as 1/sqrt(scale) (Pelgrom: matching follows device area).
adc::analog::CapacitorSpec scaled_cap(const adc::analog::CapacitorSpec& spec, double scale) {
  adc::analog::CapacitorSpec s = spec;
  s.nominal_farad = spec.nominal_farad * scale;
  s.sigma_mismatch = spec.sigma_mismatch / std::sqrt(scale);
  return s;
}

/// Opamp parameters for a scaled stage: device widths and bias scale with
/// the capacitors, so the current density, GBW-into-its-load and slew rate
/// are preserved; only the nominal bias current shrinks.
adc::analog::OpampParams scaled_opamp(const adc::analog::OpampParams& params, double scale) {
  adc::analog::OpampParams p = params;
  p.bias_nominal = params.bias_nominal * scale;
  return p;
}

}  // namespace

PipelineStage::PipelineStage(const StageSpec& spec, double scale, double vref_nominal,
                             adc::common::Rng stage_rng)
    : scale_(scale),
      c1_(scaled_cap(spec.c1, scale), stage_rng),
      c2_(scaled_cap(spec.c2, scale), stage_rng),
      beta_(0.0),
      sigma_sample_(0.0),
      vref_nominal_(vref_nominal),
      opamp_(scaled_opamp(spec.opamp, scale)),
      cmp_low_([&] {
        adc::analog::ComparatorSpec c = spec.adsc_comparator;
        c.threshold = -vref_nominal / 4.0;
        return c;
      }(), stage_rng),
      cmp_high_([&] {
        adc::analog::ComparatorSpec c = spec.adsc_comparator;
        c.threshold = vref_nominal / 4.0;
        return c;
      }(), stage_rng),
      leakage_(spec.leakage, stage_rng) {
  adc::common::require(scale > 0.0 && scale <= 1.0, "PipelineStage: scale outside (0, 1]");
  adc::common::require(vref_nominal > 0.0, "PipelineStage: non-positive V_REF");

  const double cpar = spec.parasitic_input_cap * scale;
  beta_ = c2_.value() / (c1_.value() + c2_.value() + cpar);

  // Realized capacitors never change after construction, so the MDAC's DAC
  // gain and interstage gain are computed once instead of per residue.
  gdac_ = c1_.value() / c2_.value();
  gain_ = 1.0 + gdac_;

  // Differential sampled thermal noise: each side samples kT/(C1+C2); the
  // differential variance is twice that, times the excess factor.
  if (spec.noise_excess > 0.0) {
    sigma_sample_ =
        std::sqrt(spec.noise_excess * 2.0 * adc::common::kt_nominal / sampling_cap());
  }
}

StageCode PipelineStage::ideal_decision(double v_in) const {
  if (v_in > vref_nominal_ / 4.0) return StageCode::kPlus;
  if (v_in < -vref_nominal_ / 4.0) return StageCode::kMinus;
  return StageCode::kZero;
}

double PipelineStage::residue_target(double v_held, StageCode d, double vref) const {
  return gain_ * v_held - static_cast<double>(adc::digital::value(d)) * gdac_ * vref;
}

StageResult PipelineStage::process(double v_in, double vref, double ibias, double settle_s,
                                   double hold_s, adc::common::Rng& noise_rng) {
  ADC_EXPECT(std::isfinite(v_in), "PipelineStage::process: non-finite input voltage");
  ADC_EXPECT(std::isfinite(vref) && vref > 0.0, "PipelineStage::process: bad V_REF");
  ADC_EXPECT(settle_s >= 0.0 && hold_s >= 0.0, "PipelineStage::process: negative phase time");
  // 1. Sample with thermal noise.
  double sampled = v_in;
  if (sigma_sample_ > 0.0) sampled += noise_rng.gaussian(sigma_sample_);

  // 2. ADSC decision on the same sample. The +/- V_REF/4 thresholds derive
  //    from the same reference as the DAC, so they track its drift; the
  //    comparator models add their own offset/noise (absorbed by the
  //    redundancy).
  StageCode d = StageCode::kZero;
  if (cmp_high_.decide_with_threshold(sampled, vref / 4.0)) {
    d = StageCode::kPlus;
  } else if (!cmp_low_.decide_with_threshold(sampled, -vref / 4.0)) {
    d = StageCode::kMinus;
  }

  // 3. Hold-phase droop on the sampled charge.
  const double held =
      sampled - leakage_.differential_droop(sampled, hold_s, sampling_cap());

  // 4.-5. MDAC amplification with realized capacitors and opamp dynamics.
  const double target = residue_target(held, d, vref);
  const auto settled = opamp_.settle(target, settle_s, beta_, ibias);

  StageResult r;
  r.code = d;
  r.residue = settled.output;
  r.slew_limited = settled.slew_limited;
  r.clipped = settled.clipped;
  ADC_ENSURE(std::isfinite(r.residue), "PipelineStage::process: non-finite residue");
  return r;
}

void PipelineStage::write_fast_fields(double* out, std::size_t stride) const {
  using namespace fast_chain;
  const auto put = [&](StageField field, double value) { out[field * stride] = value; };
  put(kSigmaSample, sigma_sample_);
  put(kOffHi, cmp_high_.offset());
  put(kOffLo, cmp_low_.offset());
  put(kNoiseHi, cmp_high_.noise_rms());
  put(kNoiseLo, cmp_low_.noise_rms());
  put(kMetaHi, cmp_high_.metastable_window());
  put(kMetaLo, cmp_low_.metastable_window());
  put(kDroopD0, droop_d0_);
  put(kDroopD1, droop_d1_);
  put(kGain, gain_);
  put(kGdac, gdac_);
  put(kInvGainDenom, fast_settle_.inv_gain_denom);
  put(kNegInvTau0, fast_settle_.neg_inv_tau0);
  put(kSr, fast_settle_.sr);
  put(kSrTau0, fast_settle_.sr_tau0);
  put(kInvSwing, fast_settle_.inv_swing);
  put(kGmCompression, opamp_.params().gm_compression);
  put(kOutputSwing, opamp_.params().output_swing);
}

void PipelineStage::inject_comparator_offset(int comparator_index, double offset) {
  adc::common::require(comparator_index == 0 || comparator_index == 1,
                       "PipelineStage: comparator index must be 0 or 1");
  if (comparator_index == 0) {
    cmp_low_.set_offset(offset);
  } else {
    cmp_high_.set_offset(offset);
  }
}

}  // namespace adc::pipeline
