#include "pipeline/adc.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "pipeline/fast_layout.hpp"

namespace adc::pipeline {

using adc::common::require;

namespace {

static_assert(fast_chain::kMaxStages == adc::digital::StageCodeVec::kCapacity,
              "the chain's code buffer holds every stage a RawConversion can");

/// Samples per plane generation: bounds the buffer (~1.2 MB at the nominal
/// 36 slots/sample) while keeping the fill loop long enough to vectorize.
/// Chunking cannot change any value — draws are positional. Even, so every
/// chunk starts at an even sample, where eager_blocks() is valid.
constexpr std::size_t kPlaneChunkSamples = 4096;

}  // namespace

NonIdealities NonIdealities::all_off() {
  NonIdealities f;
  f.thermal_noise = false;
  f.aperture_jitter = false;
  f.capacitor_mismatch = false;
  f.comparator_imperfections = false;
  f.finite_opamp_gain = false;
  f.incomplete_settling = false;
  f.tracking_nonlinearity = false;
  f.hold_leakage = false;
  f.reference_imperfections = false;
  f.bias_ripple = false;
  return f;
}

AdcConfig PipelineAdc::normalize(AdcConfig c) {
  require(c.num_stages >= 1, "AdcConfig: need at least one stage");
  require(c.flash_bits >= 1 && c.flash_bits <= 4, "AdcConfig: flash must be 1..4 bits");
  require(c.full_scale_vpp > 0.0, "AdcConfig: non-positive full scale");
  require(c.conversion_rate > 0.0, "AdcConfig: non-positive conversion rate");
  require(c.mirror_master_gain > 0.0, "AdcConfig: non-positive mirror gain");

  // The sampling clock always runs at the conversion rate.
  c.clock.frequency_hz = c.conversion_rate;

  // --- environment (PVT) physics ---
  require(c.temperature_k > 100.0 && c.temperature_k < 500.0,
          "AdcConfig: junction temperature outside the model's validity");
  const double t_ratio = c.temperature_k / 300.0;
  // Sampled-noise power is kT/C: fold the temperature into the excess factor.
  c.stage.noise_excess *= t_ratio;
  // Junction leakage doubles every ~12 K.
  c.stage.leakage.i0 *= std::pow(2.0, (c.temperature_k - 300.0) / 12.0);  // lint-ok: construction-time derate
  // Carrier mobility falls ~T^-1.5: gm, hence GBW and slew, degrade.
  const double mobility = std::pow(t_ratio, -1.5);  // lint-ok: construction-time derate
  c.stage.opamp.gbw_hz *= mobility;
  c.stage.opamp.slew_rate *= mobility;

  const NonIdealities& e = c.enable;
  if (!e.thermal_noise) c.stage.noise_excess = 0.0;
  if (!e.aperture_jitter) c.clock.jitter_rms_s = 0.0;
  if (!e.capacitor_mismatch) {
    c.stage.c1.sigma_mismatch = 0.0;
    c.stage.c2.sigma_mismatch = 0.0;
    c.sc_bias.cb.sigma_mismatch = 0.0;
    c.mirror_sigma = 0.0;
    c.stage1_dac_skew = 0.0;
  }
  if (!e.comparator_imperfections) {
    for (auto* spec : {&c.stage.adsc_comparator, &c.flash_comparator}) {
      spec->sigma_offset = 0.0;
      spec->noise_rms = 0.0;
      spec->metastable_window = 0.0;
    }
  }
  if (!e.finite_opamp_gain) c.stage.opamp.dc_gain = 1e12;
  if (!e.incomplete_settling) c.stage.opamp.gm_compression = 0.0;
  if (!e.hold_leakage) c.stage.leakage.i0 = 0.0;
  if (!e.reference_imperfections) {
    c.refs.sigma_level = 0.0;
    c.refs.charge_per_event = 0.0;
    c.bandgap.sigma_process = 0.0;
    c.bandgap.curvature = 0.0;
    c.bandgap.supply_sensitivity = 0.0;
  }
  if (!e.bias_ripple) c.sc_bias.ripple_sigma = 0.0;
  return c;
}

namespace {

adc::analog::RefBufferSpec couple_refs_to_bandgap(adc::analog::RefBufferSpec refs,
                                                  const adc::analog::Bandgap& bandgap,
                                                  double t_kelvin, double vdd) {
  // The reference divider runs off the bandgap: its process spread and its
  // (small) temperature/supply movement scale VREF proportionally (a pure
  // gain error at the converter level).
  refs.nominal_vref *= bandgap.output(t_kelvin, vdd) / bandgap.spec().nominal_output;
  return refs;
}

std::unique_ptr<adc::bias::BiasSource> make_bias(const AdcConfig& c,
                                                 const adc::analog::Bandgap& bandgap,
                                                 adc::common::Rng& rng) {
  if (c.bias_scheme == BiasScheme::kSwitchedCapacitor) {
    adc::bias::ScBiasSpec spec = c.sc_bias;
    // V_BIAS is derived from the bandgap; its spread tracks the bandgap's.
    spec.v_bias *=
        bandgap.output(c.temperature_k, c.vdd) / bandgap.spec().nominal_output;
    auto bias_rng = rng.child("sc-bias");
    return std::make_unique<adc::bias::ScBiasGenerator>(  // lint-ok: construction-time wiring
        spec, bias_rng);
  }
  auto bias_rng = rng.child("fixed-bias");
  return std::make_unique<adc::bias::FixedBiasGenerator>(  // lint-ok: construction-time wiring
      c.fixed_bias, bias_rng);
}

std::vector<PipelineStage> make_stages(const AdcConfig& c, adc::common::Rng& rng) {
  const double vref_nominal = c.full_scale_vpp / 2.0;
  std::vector<PipelineStage> stages;
  stages.reserve(static_cast<std::size_t>(c.num_stages));
  for (int i = 0; i < c.num_stages; ++i) {
    const double scale = c.scaling.factor(static_cast<std::size_t>(i));
    StageSpec spec = c.stage;
    if (i == 0) spec.c1.nominal_farad *= 1.0 + c.stage1_dac_skew;
    stages.emplace_back(spec, scale, vref_nominal,
                        rng.child("stage", static_cast<std::uint64_t>(i)));
  }
  return stages;
}

adc::bias::MirrorBankSpec mirror_spec(const AdcConfig& c) {
  adc::bias::MirrorBankSpec spec;
  spec.sigma_mismatch = c.mirror_sigma;
  spec.ratios.reserve(static_cast<std::size_t>(c.num_stages));
  for (int i = 0; i < c.num_stages; ++i) {
    spec.ratios.push_back(c.mirror_master_gain * c.scaling.factor(static_cast<std::size_t>(i)));
  }
  return spec;
}

}  // namespace

PipelineAdc::PipelineAdc(const AdcConfig& config)
    : config_(normalize(config)),
      rng_(config_.seed),
      noise_rng_(rng_.child("conversion-noise")),
      bandgap_([this] {
        auto bg_rng = rng_.child("bandgap");
        return adc::analog::Bandgap(config_.bandgap, bg_rng);
      }()),
      refs_([this] {
        auto ref_rng = rng_.child("refs");
        return adc::analog::ReferenceBuffer(
            couple_refs_to_bandgap(config_.refs, bandgap_, config_.temperature_k,
                                   config_.vdd),
            ref_rng);
      }()),
      sampler_(config_.input_switch, config_.refs.common_mode,
               config_.stage.c1.nominal_farad + config_.stage.c2.nominal_farad),
      clock_([this] {
        auto clk_rng = rng_.child("clock");
        return adc::clocking::SamplingClock(config_.clock, clk_rng);
      }()),
      phases_(config_.phases),
      bias_(make_bias(config_, bandgap_, rng_)),
      mirrors_([this] {
        auto mir_rng = rng_.child("mirrors");
        return adc::bias::MirrorBank(mirror_spec(config_), mir_rng);
      }()),
      stages_(make_stages(config_, rng_)),
      flash_(config_.flash_bits, config_.flash_comparator, config_.full_scale_vpp / 2.0,
             rng_.child("flash")),
      correction_(config_.num_stages, config_.flash_bits),
      alignment_(config_.num_stages) {
  // Hoist the per-sample invariants of quantize_sample(). The phase windows
  // and master bias depend only on the configured rate; the leg currents are
  // the per-sample mirror products at the ripple-free master, valid whenever
  // ripple is off. Note this moves the phase generator's rate validation
  // from the first conversion to construction.
  windows_ = phases_.windows(config_.conversion_rate);
  settle_s_ = config_.enable.incomplete_settling ? windows_.settle_s : 1.0;
  inv_rate_ = 1.0 / config_.conversion_rate;
  fast_period_ = clock_.period();
  master_base_ = bias_->master_current(config_.conversion_rate);
  ripple_sigma_ = config_.bias_scheme == BiasScheme::kSwitchedCapacitor
                      ? config_.sc_bias.ripple_sigma
                      : 0.0;
  leg_currents_.reserve(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    leg_currents_.push_back(mirrors_.leg_current(i, master_base_));
    stages_[i].prepare_fast(leg_currents_[i], windows_.hold_s);
  }

  // Fast-profile surrogates for the input-switch error terms, spanning the
  // full differential scale with 2x overdrive margin (beyond that the fast
  // getters fall back to the direct expressions).
  sampler_.prepare_fast(config_.full_scale_vpp);

  // Fast-profile noise plane: keyed by the conversion-noise sub-stream seed
  // (a hash of the die seed), so distinct dies get independent planes and
  // the key costs nothing the exact profile doesn't already pay.
  const auto noise_slots = static_cast<std::uint32_t>(
      fast_layout::slots_per_sample(stages_.size(), flash_.comparator_count()));
  noise_plane_ = adc::common::NoisePlane(noise_rng_.seed(), noise_slots);
  eager_blocks_.reserve(noise_slots);
  for (std::uint32_t b = 0; b < noise_slots; ++b) {
    if (!fast_layout::block_elided(b, stages_.size(), flash_.comparator_count())) {
      eager_blocks_.push_back(b);
    }
  }
}

double PipelineAdc::lsb() const {
  return config_.full_scale_vpp / std::ldexp(1.0, resolution_bits());
}

int PipelineAdc::latency_cycles() const { return alignment_.latency_cycles(); }

adc::clocking::PhaseWindows PipelineAdc::phase_windows() const { return windows_; }

void PipelineAdc::reset_state() {
  refs_.reset();
  alignment_.reset();
  fast_droop_ = 0.0;
}

void PipelineAdc::force_stage_code(std::size_t i, std::optional<adc::digital::StageCode> code) {
  stages_.at(i).force_code(code);
  if (!fast_plan_stale_) {
    fast_forced_[i] = code ? adc::digital::value(*code) : fast_chain::kNotForced;
  }
}

adc::digital::RawConversion PipelineAdc::quantize_sample(double sampled) {
  const double settle_s = settle_s_;
  const double hold_s = windows_.hold_s;

  // Master bias this conversion, including switching ripple when enabled.
  // Without ripple every per-stage bias is the precomputed leg current.
  const bool rippled = ripple_sigma_ > 0.0;
  double master = master_base_;
  if (rippled) master *= 1.0 + noise_rng_.gaussian(ripple_sigma_);

  const double vref = refs_.vref();

  adc::digital::RawConversion raw;
  double x = sampled;
  double activity = 0.0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const double ibias = rippled ? mirrors_.leg_current(i, master) : leg_currents_[i];
    const auto r = stages_[i].process(x, vref, ibias, settle_s, hold_s, noise_rng_);
    raw.stage_codes.push_back(r.code);  // lint-ok: StageCodeVec is fixed-capacity inline storage
    activity += std::abs(static_cast<double>(adc::digital::value(r.code)));
    x = r.residue;
  }
  raw.flash_code = flash_.quantize(x, vref);

  refs_.consume(activity, inv_rate_);
  return raw;
}

void PipelineAdc::refresh_fast_plan() {
  using namespace fast_chain;
  const std::size_t n = stages_.size();
  const std::size_t nf = flash_.comparator_count();
  fast_stage_.assign(kStageFields * n, 0.0);
  fast_forced_.assign(n, kNotForced);
  bool thermal = false;
  for (std::size_t i = 0; i < n; ++i) {
    stages_[i].write_fast_fields(fast_stage_.data() + i, n);
    thermal = thermal || fast_stage_[kSigmaSample * n + i] > 0.0;
    if (const auto code = stages_[i].forced_code()) fast_forced_[i] = adc::digital::value(*code);
  }
  fast_flash_.assign(kFlashFields * nf, 0.0);
  flash_.write_fast_fields(fast_flash_.data(), nf);

  const adc::analog::RefBufferSpec& rspec = refs_.spec();
  fast_level_error_ = refs_.level_error();

  ChainView& v = fast_view_;
  v.num_stages = n;
  v.flash_count = nf;
  v.thermal_on = thermal;
  v.ripple_on = ripple_sigma_ > 0.0;
  v.charge_per_event = rspec.charge_per_event;
  v.decap = rspec.decap_farad;
  v.consume_on = rspec.charge_per_event > 0.0;
  v.recharge_on = rspec.output_resistance > 0.0 && inv_rate_ > 0.0;
  if (v.recharge_on) {
    // ReferenceBuffer::consume's recharge factor, hoisted: the period never
    // changes within a converter.
    const double tau = rspec.output_resistance * rspec.decap_farad;
    fast_recharge_factor_ = std::exp(-inv_rate_ / tau);  // lint-ok: plan-build hoist
  }
  fast_plan_stale_ = false;
}

fast_chain::ChainView PipelineAdc::fast_chain_view() {
  if (fast_plan_stale_) refresh_fast_plan();
  fast_chain::ChainView v = fast_view_;
  v.flash_frac = flash_.threshold_fractions().data();
  v.settle_s = &settle_s_;
  v.recharge_factor = &fast_recharge_factor_;
  v.nominal_vref = &refs_.spec().nominal_vref;
  v.level_error = &fast_level_error_;
  v.ripple_sigma = &ripple_sigma_;
  v.stage = fast_stage_.data();
  v.flash = fast_flash_.data();
  const bool forced = std::any_of(fast_forced_.begin(), fast_forced_.end(),
                                  [](int c) { return c != fast_chain::kNotForced; });
  v.forced = forced ? fast_forced_.data() : nullptr;
  return v;
}

fast_front::FrontView PipelineAdc::fast_front_view() const {
  fast_front::FrontView v;
  v.period = &fast_period_;
  v.jitter_rms = clock_.jitter_rms();
  v.walk_rms = clock_.random_walk_rms();
  v.tracking_on = config_.enable.tracking_nonlinearity;
  sampler_.write_fast_fields(v.sampler);
  return v;
}

template <class Input, class Sink>
void PipelineAdc::run_fast(std::size_t n, Input&& input, Sink&& sink) {
  const fast_chain::ChainView chain = fast_chain_view();
  const fast_front::FrontView front = fast_front_view();
  const std::uint64_t epoch = ++fast_epoch_;
  const std::uint64_t key = noise_plane_.key();
  const std::size_t slots = noise_plane_.slots_per_sample();
  for (std::size_t base = 0; base < n; base += kPlaneChunkSamples) {
    const std::size_t count = std::min(kPlaneChunkSamples, n - base);
    noise_plane_.generate(epoch, base, count, eager_blocks());
    for (std::size_t k = base; k < base + count; ++k) {
      const fast_chain::Draws draws{noise_plane_.row(k), &key, epoch,
                                    static_cast<std::uint64_t>(k) * slots};
      double x = input(front, k, draws.row);
      int codes[fast_chain::kMaxStages][1];
      int flash = 0;
      fast_chain::quantize<1>(chain, draws, &x, &fast_droop_, codes, &flash);
      adc::digital::RawConversion raw;
      for (std::size_t i = 0; i < chain.num_stages; ++i) {
        raw.stage_codes.push_back(  // lint-ok: StageCodeVec is fixed-capacity inline storage
            static_cast<adc::digital::StageCode>(codes[i][0]));
      }
      raw.flash_code = static_cast<adc::digital::FlashCode>(flash);
      sink(raw);
    }
  }
}

template <class Sink>
void PipelineAdc::capture(const adc::dsp::Signal& signal, std::size_t n, Sink&& sink) {
  if (config_.fidelity == adc::common::FidelityProfile::kFast) {
    double walk_s = 0.0;
    run_fast(
        n,
        [&](const fast_front::FrontView& front, std::size_t k, const double* draws) {
          double t = 0.0;
          fast_front::instant<1>(front, k, draws, &walk_s, &t);
          double v = 0.0;
          double dvdt = 0.0;
          signal.sample_fast(t, v, dvdt);
          double tracked = 0.0;
          fast_front::track<1>(front, &v, &dvdt, &tracked);
          return tracked;
        },
        sink);
    return;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double t = clock_.sample_instant(k);
    const double v = signal.value(t);
    double tracked = v;
    if (config_.enable.tracking_nonlinearity) {
      tracked += sampler_.tracking_error(v, signal.slope(t));
      tracked += sampler_.charge_injection_error(v);
    }
    sink(quantize_sample(tracked));
  }
}

template <class Sink>
void PipelineAdc::capture_held(std::span<const double> voltages, Sink&& sink) {
  if (config_.fidelity == adc::common::FidelityProfile::kFast) {
    run_fast(
        voltages.size(),
        [&](const fast_front::FrontView& front, std::size_t k, const double*) {
          double held = 0.0;
          fast_front::track<1>(front, &voltages[k], nullptr, &held);
          return held;
        },
        sink);
    return;
  }
  // Charge injection is a static error, so it applies to held inputs; the
  // tracking term vanishes at zero slope.
  const bool inject = config_.enable.tracking_nonlinearity;
  for (const double v : voltages) {
    sink(quantize_sample(inject ? v + sampler_.charge_injection_error(v) : v));
  }
}

std::vector<int> PipelineAdc::convert(const adc::dsp::Signal& signal, std::size_t n) {
  reset_state();
  std::vector<int> codes;
  codes.reserve(n);
  capture(signal, n, [&](const adc::digital::RawConversion& raw) {
    codes.push_back(correction_.correct(raw));
  });
  return codes;
}

StreamResult PipelineAdc::convert_stream(const adc::dsp::Signal& signal, std::size_t n) {
  reset_state();
  StreamResult result;
  result.latency_cycles = alignment_.latency_cycles();
  result.codes.reserve(n);
  capture(signal, n, [&](const adc::digital::RawConversion& raw) {
    if (auto aligned = alignment_.push(raw)) {
      result.codes.push_back(correction_.correct(*aligned));
    }
  });
  while (auto aligned = alignment_.flush()) {
    result.codes.push_back(correction_.correct(*aligned));
    if (result.codes.size() >= n) break;
  }
  return result;
}

std::vector<int> PipelineAdc::convert_samples(std::span<const double> voltages) {
  reset_state();
  std::vector<int> codes;
  codes.reserve(voltages.size());
  capture_held(voltages, [&](const adc::digital::RawConversion& raw) {
    codes.push_back(correction_.correct(raw));
  });
  return codes;
}

int PipelineAdc::convert_dc(double v_diff) { return correction_.correct(convert_dc_raw(v_diff)); }

adc::digital::RawConversion PipelineAdc::convert_dc_raw(double v_diff) {
  // A DC conversion is its own one-sample capture (under the fast profile
  // an epoch bump, so repeated calls see fresh noise exactly like repeated
  // exact-profile calls do). No reset: the reference droop carries across
  // DC calls.
  adc::digital::RawConversion raw;
  capture_held(std::span<const double>(&v_diff, 1),
               [&](const adc::digital::RawConversion& r) { raw = r; });
  return raw;
}

std::vector<adc::digital::RawConversion> PipelineAdc::convert_raw(
    const adc::dsp::Signal& signal, std::size_t n) {
  reset_state();
  std::vector<adc::digital::RawConversion> raws;
  raws.reserve(n);
  capture(signal, n, [&](const adc::digital::RawConversion& raw) { raws.push_back(raw); });
  return raws;
}

double PipelineAdc::residue_after_stage(std::size_t stage_index, double vin) const {
  require(stage_index < stages_.size(), "residue_after_stage: index out of range");
  const double vref_nominal = config_.full_scale_vpp / 2.0;
  double x = vin;
  for (std::size_t i = 0; i <= stage_index; ++i) {
    const auto d = stages_[i].ideal_decision(x);
    x = stages_[i].residue_target(x, d, vref_nominal);
  }
  return x;
}

double PipelineAdc::stage_bias_current(std::size_t i) const {
  return mirrors_.leg_current(i, bias_->master_current(config_.conversion_rate));
}

double PipelineAdc::master_bias_current() const {
  return bias_->master_current(config_.conversion_rate);
}

double PipelineAdc::pipeline_bias_current(double f_cr) const {
  return mirrors_.total_current(bias_->master_current(f_cr));
}

double PipelineAdc::total_analog_current() const {
  const double master = bias_->master_current(config_.conversion_rate);
  return mirrors_.total_current(master) + bias_->overhead_current() +
         refs_.spec().quiescent_current;
}

}  // namespace adc::pipeline
