/// \file converter.cpp
/// Plan extraction for the batch conversion engine.
///
/// Everything here runs once per converter (die fabrication, invariant
/// hoisting, uniformity verification) or once per capture and block (the
/// tone rows); the per-sample work all lives in the ISA-dispatched kernel.
/// Nothing is re-derived from the config, so the kernel consumes the *same
/// numbers* PipelineAdc's own conversions do: each die's stage-chain
/// invariants and clock period are its one-lane views
/// (PipelineAdc::fast_chain_view, fast_front_view), scattered into its lane
/// of a die block; the sampler and the correction are the reference die's
/// own views (fast_front_view, ErrorCorrection::view), which every other
/// die is checked to share; each die's stimulus is its signal's own tone
/// table, scattered the same way.
#include "batch/converter.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

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

[[nodiscard]] bool same_series(const adc::common::fastmath::ChebyshevView& a,
                               const adc::common::fastmath::ChebyshevView& b) {
  bool same = a.count == b.count && same_bits(a.mid, b.mid) && same_bits(a.inv_half, b.inv_half);
  for (std::size_t i = 0; same && i < a.count; ++i) same = same_bits(a.coef[i], b.coef[i]);
  return same;
}

/// Two dies' front ends compute the same bits apart from their per-lane
/// clock period. The sampler context differs too: each die owns its
/// sampler, but its fallbacks are config-derived.
[[nodiscard]] bool same_front(const adc::pipeline::fast_front::FrontView& a,
                              const adc::pipeline::fast_front::FrontView& b) {
  return same_bits(a.jitter_rms, b.jitter_rms) &&
         same_bits(a.walk_rms, b.walk_rms) && a.tracking_on == b.tracking_on &&
         a.sampler.injection_on == b.sampler.injection_on &&
         same_bits(a.sampler.span_z, b.sampler.span_z) &&
         same_series(a.sampler.tau, b.sampler.tau) && same_series(a.sampler.inj, b.sampler.inj);
}

/// One configuration per seed: `base` with its seed overridden.
std::vector<adc::pipeline::AdcConfig> per_seed(const adc::pipeline::AdcConfig& base,
                                               std::span<const std::uint64_t> seeds) {
  std::vector<adc::pipeline::AdcConfig> configs(seeds.size(), base);
  for (std::size_t d = 0; d < seeds.size(); ++d) configs[d].seed = seeds[d];
  return configs;
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
    : BatchConverter(per_seed(base, seeds), forced_isa) {}

BatchConverter::BatchConverter(std::span<const adc::pipeline::AdcConfig> configs,
                               std::optional<adc::common::BatchIsa> forced_isa) {
  require(!configs.empty(), "BatchConverter: need at least one die");
  require(supports_config(configs[0]),
          "BatchConverter: config outside the batch contract (fast profile, "
          "1..16 stages)");
  seeds_.reserve(configs.size());
  for (const adc::pipeline::AdcConfig& cfg : configs) {
    require(shares_block(cfg, configs[0]),
            "BatchConverter: dies of one block may differ only in seed and conversion rate "
            "(temperature, supply, full scale and every other field must match)");
    seeds_.push_back(cfg.seed);
  }
  isa_ = forced_isa ? *forced_isa : adc::common::active_batch_isa();
  ops_ = &kernel_ops(isa_);

  ref_adc_ =
      std::make_unique<adc::pipeline::PipelineAdc>(configs[0]);  // lint-ok: construction-time

  // --- the block-uniform views, read off the reference die ---
  const fc::ChainView ref_chain = ref_adc_->fast_chain_view();
  proto_ = PlanView{};
  proto_.slots = ref_adc_->noise_slots_per_sample();
  proto_.eager = ref_adc_->eager_blocks();
  proto_.chain = ref_chain;  // per-lane pointers are rebound per block
  proto_.front = ref_adc_->fast_front_view();
  proto_.correction = ref_adc_->correction().view();

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
  rates_.reserve(die_count);
  rates_.push_back(ref_adc_->conversion_rate());
  extract_die(*ref_adc_, blocks_[0], 0);
  for (std::size_t d = 1; d < die_count; ++d) {
    adc::pipeline::PipelineAdc die(configs[d]);
    check_uniform(die);
    extract_die(die, blocks_[d / kLanes], d % kLanes);
    rates_.push_back(die.conversion_rate());
  }
  // Ragged blocks: replicate lane 0 into the padding lanes. Lanes are
  // independent, so the replicas cannot perturb the real dies; their codes
  // land in pad_ and are discarded.
  std::size_t widest = 0;
  for (DieBlock& blk : blocks_) {
    widest = std::max(widest, blk.lanes);
    for (std::size_t l = blk.dies; l < blk.lanes; ++l) {
      blk.noise_key[l] = blk.noise_key[0];
      blk.period[l] = blk.period[0];
      blk.settle_s[l] = blk.settle_s[0];
      blk.recharge_factor[l] = blk.recharge_factor[0];
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
  plane_.assign(widest * kChunkSamples * proto_.slots, 0.0);
}

bool BatchConverter::supports_config(const adc::pipeline::AdcConfig& config) {
  return config.fidelity == adc::common::FidelityProfile::kFast && config.num_stages >= 1 &&
         config.num_stages <= static_cast<int>(kMaxBatchStages);
}

bool BatchConverter::shares_block(const adc::pipeline::AdcConfig& a,
                                  const adc::pipeline::AdcConfig& b) {
  if (!supports_config(a) || !supports_config(b)) return false;
  // The clock frequency is aligned with the rate: normalization slaves it.
  adc::pipeline::AdcConfig aligned = a;
  aligned.seed = b.seed;
  aligned.conversion_rate = b.conversion_rate;
  aligned.clock.frequency_hz = b.clock.frequency_hz;
  return aligned == b;
}

bool BatchConverter::supports_signal(const adc::dsp::Signal& signal) {
  return signal.tone_table().count > 0;
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
  block.period[lane] = adc.fast_front_view().period[0];
  block.settle_s[lane] = w1.settle_s[0];
  block.recharge_factor[lane] = w1.recharge_factor[0];
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
  // Dies share one config up to seed and rate, so everything config-derived
  // outside the per-lane arrays must come out identical. These checks are
  // cheap insurance that a future seed- or rate-dependent parameter cannot
  // silently break the lane-uniform kernel assumptions.
  const fc::ChainView w1 = adc.fast_chain_view();
  const fc::ChainView& pc = proto_.chain;
  require(adc.noise_slots_per_sample() == proto_.slots,
          "BatchConverter: die disagrees on noise-plane layout");
  require(w1.num_stages == pc.num_stages && w1.flash_count == pc.flash_count &&
              adc.resolution_bits() == ref_adc_->resolution_bits(),
          "BatchConverter: die disagrees on the pipeline geometry");
  require(w1.ripple_on == pc.ripple_on && w1.thermal_on == pc.thermal_on,
          "BatchConverter: die disagrees on the ripple or thermal-noise gate");
  require(w1.consume_on == pc.consume_on && w1.recharge_on == pc.recharge_on &&
              same_bits(w1.charge_per_event, pc.charge_per_event) &&
              same_bits(w1.decap, pc.decap),
          "BatchConverter: die disagrees on reference-buffer loading");
  for (std::size_t k = 0; k < pc.flash_count; ++k) {
    require(same_bits(w1.flash_frac[k], pc.flash_frac[k]),
            "BatchConverter: die disagrees on flash thresholds");
  }
  require(same_front(adc.fast_front_view(), proto_.front),
          "BatchConverter: die disagrees on jitter or the sampler surrogates");
}

PlanView BatchConverter::block_view(const DieBlock& block) const {
  PlanView p = proto_;
  p.lanes = block.lanes;
  p.noise_key = block.noise_key.data();
  p.front.period = block.period.data();
  p.chain.settle_s = block.settle_s.data();
  p.chain.recharge_factor = block.recharge_factor.data();
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
  const std::vector<const adc::dsp::Signal*> all(seeds_.size(), &signal);
  return run(all, n, false);
}

std::vector<std::vector<int>> BatchConverter::convert(
    std::span<const adc::dsp::Signal* const> signals, std::size_t n) {
  return run(signals, n, false);
}

std::vector<std::vector<int>> BatchConverter::convert_chain_only(const adc::dsp::Signal& signal,
                                                                 std::size_t n) {
  const std::vector<const adc::dsp::Signal*> all(seeds_.size(), &signal);
  return run(all, n, true);
}

std::vector<std::vector<int>> BatchConverter::run(std::span<const adc::dsp::Signal* const> signals,
                                                  std::size_t n, bool chain_only) {
  // Captures share one epoch counter across every die, mirroring the per-die
  // sequence "fresh die, k-th convert() call" die by die.
  const std::uint64_t epoch = ++epoch_;

  require(signals.size() == seeds_.size(), "BatchConverter::convert: need one signal per die");
  std::vector<adc::dsp::ToneTable> tables;
  tables.reserve(signals.size());
  for (const adc::dsp::Signal* signal : signals) tables.push_back(signal->tone_table());
  const adc::dsp::ToneTable& first = tables[0];
  require(first.count > 0, "BatchConverter::convert: unsupported stimulus (see supports_signal)");
  for (const adc::dsp::ToneTable& t : tables) {
    require(t.count == first.count && same_bits(t.offset, first.offset) &&
                same_bits(t.slope_start, first.slope_start),
            "BatchConverter::convert: stimuli differ in tone count, offset or kind");
  }
  const std::size_t tones = first.count;

  std::vector<std::vector<int>> results(seeds_.size());
  const bool any_pad = blocks_.back().dies < blocks_.back().lanes;
  if (any_pad && pad_.size() < n) pad_.resize(n);

  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const DieBlock& blk = blocks_[b];
    PlanView p = block_view(blk);
    // Scatter each die's one-lane tone rows into its lane of the block's
    // [field][tone][lanes] rows; padding lanes replicate lane 0.
    const std::size_t row = tones * blk.lanes;
    tone_rows_.assign(4 * row, 0.0);
    for (std::size_t l = 0; l < blk.lanes; ++l) {
      const adc::dsp::ToneTable& t = tables[b * kLanes + (l < blk.dies ? l : 0)];
      for (std::size_t i = 0; i < tones; ++i) {
        tone_rows_[i * blk.lanes + l] = t.w[i];
        tone_rows_[row + i * blk.lanes + l] = t.phase[i];
        tone_rows_[2 * row + i * blk.lanes + l] = t.amp[i];
        tone_rows_[3 * row + i * blk.lanes + l] = t.slope_coef[i];
      }
    }
    const double* rows = tone_rows_.data();
    p.tones = {rows, rows + row, rows + 2 * row, rows + 3 * row, tones, first.offset,
               first.slope_start};
    std::array<int*, kLanes> out{};
    for (std::size_t l = 0; l < blk.dies; ++l) {
      std::vector<int>& codes = results[b * kLanes + l];
      codes.resize(n);
      out[l] = codes.data();
    }
    for (std::size_t l = blk.dies; l < blk.lanes; ++l) out[l] = pad_.data();
    const StateView st{plane_.data(), out.data()};
    if (chain_only) {
      ops_->normal_rows(blk.lanes, p.noise_key, epoch, 0, std::min(n, kChunkSamples) * p.slots,
                        p.eager, st.plane);
      ops_->chain_capture(p, st, epoch, n);
    } else {
      ops_->convert_capture(p, st, epoch, n);
    }
  }
  return results;
}

}  // namespace adc::batch
