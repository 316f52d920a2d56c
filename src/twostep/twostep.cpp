#include "twostep/twostep.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"

namespace adc::twostep {

using adc::common::require;

TwoStepConfig TwoStepAdc::normalize(TwoStepConfig c) {
  require(c.coarse_bits >= 3 && c.coarse_bits <= 8, "TwoStepConfig: coarse bits 3..8");
  require(c.fine_bits >= 3 && c.fine_bits <= 9, "TwoStepConfig: fine bits 3..9");
  require(c.full_scale_vpp > 0.0, "TwoStepConfig: non-positive full scale");
  require(c.conversion_rate > 0.0, "TwoStepConfig: non-positive rate");
  require(c.sh_cap > 0.0, "TwoStepConfig: non-positive S/H capacitance");
  require(c.settle_fraction > 0.0 && c.settle_fraction <= 1.0,
          "TwoStepConfig: settle fraction outside (0, 1]");

  c.clock.frequency_hz = c.conversion_rate;
  const TwoStepNonIdealities& e = c.enable;
  if (!e.thermal_noise) c.noise_excess = 0.0;
  if (!e.aperture_jitter) c.clock.jitter_rms_s = 0.0;
  if (!e.ladder_mismatch) c.ladder_sigma = 0.0;
  if (!e.comparator_imperfections) {
    for (auto* spec : {&c.coarse_comparator, &c.fine_comparator}) {
      spec->sigma_offset = 0.0;
      spec->noise_rms = 0.0;
      spec->metastable_window = 0.0;
    }
  }
  if (!e.tracking_nonlinearity) c.input_switch.injection_fraction = 0.0;
  return c;
}

namespace {

/// Realized resistor-ladder thresholds over [-vref, +vref]: 2^bits segments
/// with relative width mismatch sigma, ends pinned to the references.
std::vector<double> realize_ladder(int bits, double vref, double sigma,
                                   adc::common::Rng& rng) {
  const auto segments = static_cast<std::size_t>(1) << bits;
  std::vector<double> widths(segments);
  double total = 0.0;
  for (auto& w : widths) {
    w = 1.0 + (sigma > 0.0 ? rng.gaussian(sigma) : 0.0);
    require(w > 0.0, "realize_ladder: segment width collapsed");
    total += w;
  }
  std::vector<double> thresholds(segments - 1);
  double acc = 0.0;
  for (std::size_t k = 0; k + 1 < segments; ++k) {
    acc += widths[k];
    thresholds[k] = -vref + 2.0 * vref * acc / total;
  }
  return thresholds;
}

/// Comparator bank at the realized thresholds.
std::vector<adc::analog::Comparator> make_bank(const std::vector<double>& thresholds,
                                               const adc::analog::ComparatorSpec& spec,
                                               adc::common::Rng& rng, const char* tag) {
  std::vector<adc::analog::Comparator> bank;
  bank.reserve(thresholds.size());
  for (std::size_t k = 0; k < thresholds.size(); ++k) {
    adc::analog::ComparatorSpec s = spec;
    s.threshold = thresholds[k];
    auto cmp_rng = rng.child(tag, k);
    bank.emplace_back(s, cmp_rng);
  }
  return bank;
}

/// Thermometer decode.
int decode(std::vector<adc::analog::Comparator>& bank, double v) {
  int count = 0;
  for (auto& cmp : bank) {
    if (cmp.decide(v)) ++count;
  }
  return count;
}

/// Segment midpoint of a realized ladder for code `c`.
double segment_mid(const std::vector<double>& thresholds, int c, double vref) {
  const double lo = c == 0 ? -vref : thresholds[static_cast<std::size_t>(c - 1)];
  const double hi = c == static_cast<int>(thresholds.size())
                        ? vref
                        : thresholds[static_cast<std::size_t>(c)];
  return 0.5 * (lo + hi);
}

}  // namespace

TwoStepAdc::TwoStepAdc(const TwoStepConfig& config)
    : config_(normalize(config)),
      rng_(config_.seed),
      noise_rng_(rng_.child("noise")),
      sampler_(config_.input_switch, 0.9, config_.sh_cap),
      clock_([this] {
        auto clk_rng = rng_.child("clock");
        return adc::clocking::SamplingClock(config_.clock, clk_rng);
      }()),
      residue_amp_(config_.residue_amp),
      residue_gain_(std::ldexp(1.0, config_.fine_bits - 2)),
      sigma_sample_(0.0) {
  const double vref = config_.full_scale_vpp / 2.0;
  if (config_.noise_excess > 0.0) {
    sigma_sample_ =
        std::sqrt(config_.noise_excess * 2.0 * adc::common::kt_nominal / config_.sh_cap);
  }
  auto ladder_rng = rng_.child("coarse-ladder");
  coarse_thresholds_ =
      realize_ladder(config_.coarse_bits, vref, config_.ladder_sigma, ladder_rng);
  auto fine_rng = rng_.child("fine-ladder");
  fine_thresholds_ =
      realize_ladder(config_.fine_bits, vref, config_.ladder_sigma, fine_rng);
  auto coarse_cmp_rng = rng_.child("coarse-cmp");
  coarse_ = make_bank(coarse_thresholds_, config_.coarse_comparator, coarse_cmp_rng, "c");
  auto fine_cmp_rng = rng_.child("fine-cmp");
  fine_ = make_bank(fine_thresholds_, config_.fine_comparator, fine_cmp_rng, "f");
}

int TwoStepAdc::quantize_sample(double sampled) {
  const double vref = config_.full_scale_vpp / 2.0;
  if (sigma_sample_ > 0.0) sampled += noise_rng_.gaussian(sigma_sample_);

  // Phase 1: coarse flash and DAC (the DAC taps the same realized ladder, so
  // coarse comparator offsets become residue growth that the fine range
  // absorbs, not missing codes).
  const int c = decode(coarse_, sampled);
  const double dac = segment_mid(coarse_thresholds_, c, vref);
  const double residue = sampled - dac;

  // Phase 2: residue amplification by two cascaded sqrt(G) stages (a single
  // closed-loop x32 amplifier would need ~9 GHz of GBW; real two-steps
  // cascade or subrange). Each stage gets half the settling window.
  const double g_stage = std::sqrt(residue_gain_);
  const double beta_stage = 1.0 / (g_stage + 1.0);
  const double window = config_.enable.incomplete_settling
                            ? config_.settle_fraction * 0.5 / config_.conversion_rate / 2.0
                            : 1.0;
  double amplified = residue;
  for (int stage = 0; stage < 2; ++stage) {
    const auto settled = residue_amp_.settle(g_stage * amplified, window, beta_stage,
                                             config_.residue_amp.bias_nominal);
    amplified = settled.output;
  }

  // Fine flash over +/- vref (2x over-range relative to the nominal
  // +/- vref/2 residue swing: the redundancy that absorbs coarse errors).
  const int f = decode(fine_, amplified);

  // Digital combine: the adder knows only the *nominal* level spacing
  // (D = c*2^(fine-1)/2 + f - overlap in hardware); the realized-ladder
  // deviations in the analog path above are exactly the converter's INL.
  const double coarse_step = 2.0 * vref / std::ldexp(1.0, config_.coarse_bits);
  const double fine_step = 2.0 * vref / std::ldexp(1.0, config_.fine_bits);
  const double dac_nominal = -vref + (static_cast<double>(c) + 0.5) * coarse_step;
  const double fine_nominal = -vref + (static_cast<double>(f) + 0.5) * fine_step;
  const double v_hat = dac_nominal + fine_nominal / residue_gain_;
  const double levels = std::ldexp(1.0, resolution_bits());
  auto code = static_cast<int>(std::llround((v_hat + vref) / (2.0 * vref) * levels - 0.5));
  const auto max_code = static_cast<int>(levels) - 1;
  return std::clamp(code, 0, max_code);
}

std::vector<int> TwoStepAdc::convert(const adc::dsp::Signal& signal, std::size_t n) {
  std::vector<int> codes;
  codes.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double t = clock_.sample_instant(k);
    const double v = signal.value(t);
    double tracked = v;
    if (config_.enable.tracking_nonlinearity) {
      tracked += sampler_.tracking_error(v, signal.slope(t));
      tracked += sampler_.charge_injection_error(v);
    }
    codes.push_back(quantize_sample(tracked));
  }
  return codes;
}

int TwoStepAdc::convert_dc(double v_diff) {
  double tracked = v_diff;
  if (config_.enable.tracking_nonlinearity) {
    tracked += sampler_.charge_injection_error(v_diff);
  }
  return quantize_sample(tracked);
}

TwoStepConfig reference_design(std::uint64_t seed) {
  TwoStepConfig c;
  c.seed = seed;
  c.coarse_bits = 6;
  c.fine_bits = 7;
  c.full_scale_vpp = 2.0;
  c.vdd = 1.8;
  c.conversion_rate = 80e6;  // [5]'s headline rate

  c.sh_cap = 1.0e-12;
  c.noise_excess = 1.5;
  c.ladder_sigma = 0.0008;

  // Coarse comparators can be sloppy (fine over-range covers them); fine
  // comparators carry the resolution and are auto-zeroed (small offsets).
  c.coarse_comparator.sigma_offset = 6e-3;
  c.coarse_comparator.noise_rms = 0.5e-3;
  c.fine_comparator.sigma_offset = 2.5e-3;
  c.fine_comparator.noise_rms = 0.5e-3;

  c.input_switch.type = adc::analog::SwitchType::kBulkSwitchedTg;
  c.input_switch.w_over_l_nmos = 60.0;
  c.input_switch.w_over_l_pmos = 120.0;
  c.input_switch.injection_fraction = 0.10;
  c.input_switch.injection_softening = 0.08;
  c.clock.jitter_rms_s = 0.3e-12;

  // Residue amplifier: high bandwidth at heavy bias -- the two-step's cost.
  c.residue_amp.dc_gain = 20000.0;
  c.residue_amp.gbw_hz = 2.4e9;
  c.residue_amp.slew_rate = 4e9;
  c.residue_amp.bias_nominal = 12e-3;
  c.residue_amp.output_swing = 1.45;
  c.residue_amp.gm_compression = 0.08;
  c.settle_fraction = 0.85;
  return c;
}

double estimate_power(const TwoStepAdc& adc) {
  const auto& c = adc.config();
  // Clocked comparators: 1 pJ per coarse, 1.6 pJ per fine (auto-zeroing).
  const auto coarse_n = static_cast<double>((1 << c.coarse_bits) - 1);
  const auto fine_n = static_cast<double>((1 << c.fine_bits) - 1);
  const double p_cmp = (coarse_n * 1.0e-12 + fine_n * 1.6e-12) * c.conversion_rate;
  // Two residue-amplifier stages at full bias.
  const double p_amp = 2.0 * c.residue_amp.bias_nominal * c.vdd;
  // S/H buffer and ladder/reference drivers (rate-independent).
  const double p_sh = 10e-3 * c.vdd;
  const double p_ladder = 12e-3 * c.vdd;
  // Digital combine + clocking.
  const double p_dig = 12e-12 * c.vdd * c.vdd * c.conversion_rate;
  return p_cmp + p_amp + p_sh + p_ladder + p_dig;
}

}  // namespace adc::twostep
