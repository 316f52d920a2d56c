/// \file converter.cpp
/// Plan extraction for the batch conversion engine.
///
/// Everything here runs once per converter (die fabrication, invariant
/// hoisting, uniformity verification); the per-sample work all lives in the
/// ISA-dispatched kernel. Each die's stage-chain invariants are its own
/// one-lane view (PipelineAdc::fast_chain_view), scattered into its lane of
/// a die block — never re-derived from the config, so the kernel consumes
/// the *same doubles* PipelineAdc's own conversions do.
#include "batch/converter.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <numbers>

#include "analog/switches.hpp"
#include "common/error.hpp"

namespace adc::batch {

namespace {

using adc::common::require;

/// Uniformity checks compare exact bit patterns (a tolerance would hide a
/// die that genuinely diverged), spelled via bit_cast because the codebase
/// builds with -Wfloat-equal.
[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

namespace fc = adc::pipeline::fast_chain;

double tau_fallback_thunk(const void* ctx, double v) {
  return static_cast<const adc::analog::DifferentialSampler*>(ctx)->average_time_constant_fast(
      v);
}

double inj_fallback_thunk(const void* ctx, double v) {
  return static_cast<const adc::analog::DifferentialSampler*>(ctx)->charge_injection_error_fast(
      v);
}

/// The narrowest kernel width that holds a block of `dies` (<= kLanes) dies.
std::size_t block_lanes(std::size_t dies) {
  for (const std::size_t w : kLaneWidths) {
    if (dies <= w) return w;
  }
  return kLanes;
}

}  // namespace

std::size_t unit_lanes(std::size_t dies, std::size_t threads) {
  const std::size_t workers = std::max<std::size_t>(threads, 1);
  for (auto w = std::rbegin(kLaneWidths); w != std::rend(kLaneWidths); ++w) {
    if ((dies + *w - 1) / *w >= workers) return *w;
  }
  return kLaneWidths[0];
}

BatchConverter::BatchConverter(const adc::pipeline::AdcConfig& base,
                               std::span<const std::uint64_t> seeds,
                               std::optional<adc::common::BatchIsa> forced_isa)
    : seeds_(seeds.begin(), seeds.end()) {
  require(!seeds_.empty(), "BatchConverter: need at least one die seed");
  require(supports_config(base),
          "BatchConverter: config outside the batch contract (fast profile, "
          "1..16 stages)");
  isa_ = forced_isa ? *forced_isa : adc::common::active_batch_isa();
  ops_ = &kernel_ops(isa_);

  adc::pipeline::AdcConfig cfg = base;
  cfg.seed = seeds_[0];
  ref_adc_ = std::make_unique<adc::pipeline::PipelineAdc>(cfg);  // lint-ok: construction-time
  const adc::pipeline::AdcConfig& rc = ref_adc_->config();

  // --- the chain's die-uniform scalars, read off the reference die ---
  const fc::ChainView ref_chain = ref_adc_->fast_chain_view();
  proto_ = PlanView{};
  proto_.chain = ref_chain;  // per-lane pointers are rebound per block

  // --- the front end's and the correction's block-uniform scalars ---
  proto_.slots = ref_adc_->noise_slots_per_sample();
  // Same bits as SamplingClock::period(): the normalized clock always runs
  // at the conversion rate.
  proto_.period = 1.0 / rc.clock.frequency_hz;
  proto_.jitter_rms = rc.clock.jitter_rms_s;
  proto_.walk_rms = rc.clock.random_walk_rms_s;

  const adc::analog::DifferentialSampler& smp = ref_adc_->sampler();
  proto_.tracking_nonlinearity = rc.enable.tracking_nonlinearity;
  proto_.injection_on = smp.switch_model().config().injection_fraction > 0.0;
  proto_.fit_vmax2 = smp.fit_vmax2();
  tau_coef_ = smp.tau_fit().coefficients();
  inj_coef_ = smp.inj_fit().coefficients();
  proto_.tau_mid = smp.tau_fit().mid();
  proto_.tau_inv_half = smp.tau_fit().inv_half();
  proto_.inj_mid = smp.inj_fit().mid();
  proto_.inj_inv_half = smp.inj_fit().inv_half();
  // An unprepared surrogate (fit_vmax2 < 0) routes every lane through the
  // fallback; give Clenshaw a harmless coefficient so it never reads an
  // empty table.
  if (tau_coef_.empty()) tau_coef_.assign(1, 0.0);
  if (inj_coef_.empty()) inj_coef_.assign(1, 0.0);
  proto_.sampler_ctx = &ref_adc_->sampler();
  proto_.tau_fallback = &tau_fallback_thunk;
  proto_.inj_fallback = &inj_fallback_thunk;

  // --- digital correction constants (ErrorCorrection::correct) ---
  const int bits = ref_adc_->resolution_bits();
  proto_.corr_offset = (1 << (bits - 1)) - (1 << (rc.flash_bits - 1));
  proto_.max_code = (1LL << bits) - 1;
  weights_.reserve(ref_chain.num_stages);
  for (std::size_t i = 0; i < ref_chain.num_stages; ++i) {
    weights_.push_back(1LL << (bits - 2 - static_cast<int>(i)));
  }

  proto_.tau_coef = tau_coef_.data();
  proto_.tau_count = tau_coef_.size();
  proto_.inj_coef = inj_coef_.data();
  proto_.inj_count = inj_coef_.size();
  proto_.weights = weights_.data();

  // --- per-die plan arrays, one block per kLanes dies, each at the
  // narrowest kernel width that holds it ---
  const std::size_t die_count = seeds_.size();
  blocks_.resize((die_count + kLanes - 1) / kLanes);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    DieBlock& blk = blocks_[b];
    blk.dies = std::min(kLanes, die_count - b * kLanes);
    blk.lanes = block_lanes(blk.dies);
    blk.stage_lane.assign(fc::kStageFields * ref_chain.num_stages * blk.lanes, 0.0);
    blk.flash_lane.assign(fc::kFlashFields * ref_chain.flash_count * blk.lanes, 0.0);
  }
  extract_die(*ref_adc_, blocks_[0], 0);
  for (std::size_t d = 1; d < die_count; ++d) {
    cfg.seed = seeds_[d];
    adc::pipeline::PipelineAdc die(cfg);
    check_uniform(die);
    extract_die(die, blocks_[d / kLanes], d % kLanes);
  }
  // Ragged blocks: replicate lane 0 into the padding lanes. Lanes are
  // independent, so the replicas cannot perturb the real dies; their codes
  // land in pad_ and are discarded.
  std::size_t widest = 0;
  for (DieBlock& blk : blocks_) {
    widest = std::max(widest, blk.lanes);
    for (std::size_t l = blk.dies; l < blk.lanes; ++l) {
      blk.noise_key[l] = blk.noise_key[0];
      blk.nominal_vref[l] = blk.nominal_vref[0];
      blk.level_error[l] = blk.level_error[0];
      blk.ripple_sigma[l] = blk.ripple_sigma[0];
      for (std::size_t row = 0; row * blk.lanes < blk.stage_lane.size(); ++row) {
        blk.stage_lane[row * blk.lanes + l] = blk.stage_lane[row * blk.lanes];
      }
      for (std::size_t row = 0; row * blk.lanes < blk.flash_lane.size(); ++row) {
        blk.flash_lane[row * blk.lanes + l] = blk.flash_lane[row * blk.lanes];
      }
    }
  }

  // One chunk workspace for the whole converter, the plane sized for its
  // widest block (reused by every block of every capture; the kernel never
  // allocates).
  scratch_.assign(kFillGroup * kChunkSamples * proto_.slots, 0.0);
  plane_.assign(widest * kChunkSamples * proto_.slots, 0.0);
}

bool BatchConverter::supports_config(const adc::pipeline::AdcConfig& config) {
  return config.fidelity == adc::common::FidelityProfile::kFast && config.num_stages >= 1 &&
         config.num_stages <= static_cast<int>(kMaxBatchStages);
}

bool BatchConverter::supports_signal(const adc::dsp::Signal& signal) {
  return dynamic_cast<const adc::dsp::SineSignal*>(&signal) != nullptr ||
         dynamic_cast<const adc::dsp::MultiToneSignal*>(&signal) != nullptr;
}

bool BatchConverter::supports(const adc::pipeline::AdcConfig& config,
                              const adc::dsp::Signal& signal) {
  return supports_config(config) && supports_signal(signal);
}

void BatchConverter::extract_die(adc::pipeline::PipelineAdc& adc, DieBlock& block,
                                 std::size_t lane) {
  // A die's one-lane view is one row per field; scatter each row into this
  // die's lane of the block's [field][stage|comparator][lanes] arrays.
  const fc::ChainView w1 = adc.fast_chain_view();
  block.noise_key[lane] = adc.noise_plane_key();
  block.nominal_vref[lane] = w1.nominal_vref[0];
  block.level_error[lane] = w1.level_error[0];
  block.ripple_sigma[lane] = w1.ripple_sigma[0];
  for (std::size_t row = 0; row * block.lanes < block.stage_lane.size(); ++row) {
    block.stage_lane[row * block.lanes + lane] = w1.stage[row];
  }
  for (std::size_t row = 0; row * block.lanes < block.flash_lane.size(); ++row) {
    block.flash_lane[row * block.lanes + lane] = w1.flash[row];
  }
}

void BatchConverter::check_uniform(adc::pipeline::PipelineAdc& adc) const {
  // Dies share one config, so everything config-derived must come out
  // identical. These checks are cheap insurance that a future seed-dependent
  // parameter cannot silently break the lane-uniform kernel assumptions.
  const fc::ChainView w1 = adc.fast_chain_view();
  const fc::ChainView& pc = proto_.chain;
  require(adc.noise_slots_per_sample() == proto_.slots,
          "BatchConverter: die disagrees on noise-plane layout");
  require(w1.num_stages == pc.num_stages && w1.flash_count == pc.flash_count &&
              adc.resolution_bits() == ref_adc_->resolution_bits(),
          "BatchConverter: die disagrees on the pipeline geometry");
  require(same_bits(w1.settle_s, pc.settle_s),
          "BatchConverter: die disagrees on the settle window");
  require(w1.ripple_on == pc.ripple_on && w1.thermal_on == pc.thermal_on,
          "BatchConverter: die disagrees on the ripple or thermal-noise gate");
  require(w1.consume_on == pc.consume_on && w1.recharge_on == pc.recharge_on &&
              same_bits(w1.charge_per_event, pc.charge_per_event) &&
              same_bits(w1.decap, pc.decap) &&
              same_bits(w1.recharge_factor, pc.recharge_factor),
          "BatchConverter: die disagrees on reference-buffer loading");
  for (std::size_t k = 0; k < pc.flash_count; ++k) {
    require(same_bits(w1.flash_frac[k], pc.flash_frac[k]),
            "BatchConverter: die disagrees on flash thresholds");
  }
  require(adc.config().enable.tracking_nonlinearity == proto_.tracking_nonlinearity,
          "BatchConverter: die disagrees on the tracking gate");
  require(same_bits(adc.config().clock.jitter_rms_s, proto_.jitter_rms) &&
              same_bits(adc.config().clock.random_walk_rms_s, proto_.walk_rms) &&
              same_bits(1.0 / adc.config().clock.frequency_hz, proto_.period),
          "BatchConverter: die disagrees on clocking");

  const adc::analog::DifferentialSampler& smp = adc.sampler();
  bool sampler_ok = same_bits(smp.fit_vmax2(), proto_.fit_vmax2) &&
                    (smp.switch_model().config().injection_fraction > 0.0) ==
                        proto_.injection_on &&
                    same_bits(smp.tau_fit().mid(), proto_.tau_mid) &&
                    same_bits(smp.tau_fit().inv_half(), proto_.tau_inv_half) &&
                    same_bits(smp.inj_fit().mid(), proto_.inj_mid) &&
                    same_bits(smp.inj_fit().inv_half(), proto_.inj_inv_half);
  const std::vector<double>& tc = smp.tau_fit().coefficients();
  const std::vector<double>& ic = smp.inj_fit().coefficients();
  sampler_ok = sampler_ok && (tc.empty() ? tau_coef_.size() == 1 : tc.size() == tau_coef_.size());
  sampler_ok = sampler_ok && (ic.empty() ? inj_coef_.size() == 1 : ic.size() == inj_coef_.size());
  for (std::size_t i = 0; sampler_ok && i < tc.size(); ++i) {
    sampler_ok = same_bits(tc[i], tau_coef_[i]);
  }
  for (std::size_t i = 0; sampler_ok && i < ic.size(); ++i) {
    sampler_ok = same_bits(ic[i], inj_coef_[i]);
  }
  require(sampler_ok, "BatchConverter: die disagrees on the sampler surrogates");
}

PlanView BatchConverter::block_view(const DieBlock& block) const {
  PlanView p = proto_;
  p.lanes = block.lanes;
  p.noise_key = block.noise_key.data();
  p.chain.nominal_vref = block.nominal_vref.data();
  p.chain.level_error = block.level_error.data();
  p.chain.ripple_sigma = block.ripple_sigma.data();
  p.chain.stage = block.stage_lane.data();
  p.chain.flash = block.flash_lane.data();
  p.chain.forced = nullptr;
  return p;
}

std::vector<std::vector<int>> BatchConverter::convert(const adc::dsp::Signal& signal,
                                                      std::size_t n) {
  // Captures share one epoch counter across every die, mirroring the per-die
  // sequence "fresh die, k-th convert() call" die by die.
  const std::uint64_t epoch = ++epoch_;

  // Hoist the stimulus into tone views with the per-die path's exact
  // association: argument (2π·f)·t + φ, slope ((A·2π)·f)·cos.
  constexpr double two_pi = 2.0 * std::numbers::pi;
  tones_.clear();
  if (const auto* sine = dynamic_cast<const adc::dsp::SineSignal*>(&signal)) {
    proto_.multi_tone = false;
    proto_.tone_offset = sine->offset();
    tones_.reserve(1);  // capture boundary, not per-sample
    tones_.push_back(ToneView{two_pi * sine->frequency(), sine->phase(), sine->amplitude(),
                              sine->amplitude() * two_pi * sine->frequency()});
  } else if (const auto* mt = dynamic_cast<const adc::dsp::MultiToneSignal*>(&signal)) {
    proto_.multi_tone = true;
    proto_.tone_offset = 0.0;
    tones_.reserve(mt->tones().size());  // capture boundary, not per-sample
    for (const adc::dsp::MultiToneSignal::Tone& t : mt->tones()) {
      tones_.push_back(ToneView{two_pi * t.frequency_hz, t.phase_rad, t.amplitude,
                                t.amplitude * two_pi * t.frequency_hz});
    }
  } else {
    throw adc::common::ConfigError(
        "BatchConverter::convert: unsupported stimulus (see supports_signal)");
  }
  proto_.tones = tones_.data();
  proto_.tone_count = tones_.size();

  std::vector<std::vector<int>> results(seeds_.size());
  const bool any_pad = blocks_.back().dies < blocks_.back().lanes;
  if (any_pad && pad_.size() < n) pad_.resize(n);

  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const DieBlock& blk = blocks_[b];
    const PlanView p = block_view(blk);
    std::array<int*, kLanes> out{};
    for (std::size_t l = 0; l < blk.dies; ++l) {
      std::vector<int>& codes = results[b * kLanes + l];
      codes.resize(n);
      out[l] = codes.data();
    }
    for (std::size_t l = blk.dies; l < blk.lanes; ++l) out[l] = pad_.data();
    const StateView st{scratch_.data(), plane_.data(), out.data()};
    ops_->convert_capture(p, st, epoch, n);
  }
  return results;
}

}  // namespace adc::batch
