/// \file converter.cpp
/// Plan extraction for the batch conversion engine.
///
/// Everything here runs once per converter (die fabrication, invariant
/// hoisting, uniformity verification); the per-sample work all lives in the
/// ISA-dispatched kernel. Nothing is re-derived from the config, so the
/// kernel consumes the *same numbers* PipelineAdc's own conversions do:
/// each die's stage-chain invariants are its one-lane view
/// (PipelineAdc::fast_chain_view), scattered into its lane of a die block;
/// the front end and the correction are the reference die's own views
/// (fast_front_view, ErrorCorrection::view), which every other die is
/// checked to share; the stimulus is the signal's own tone table.
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

/// Two dies' front ends compute the same bits. Only the sampler context
/// differs: each die owns its sampler, but its fallbacks are config-derived.
[[nodiscard]] bool same_front(const adc::pipeline::fast_front::FrontView& a,
                              const adc::pipeline::fast_front::FrontView& b) {
  return same_bits(a.period, b.period) && same_bits(a.jitter_rms, b.jitter_rms) &&
         same_bits(a.walk_rms, b.walk_rms) && a.tracking_on == b.tracking_on &&
         a.sampler.injection_on == b.sampler.injection_on &&
         same_bits(a.sampler.span_z, b.sampler.span_z) &&
         same_series(a.sampler.tau, b.sampler.tau) && same_series(a.sampler.inj, b.sampler.inj);
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

  // --- the block-uniform views, read off the reference die ---
  const fc::ChainView ref_chain = ref_adc_->fast_chain_view();
  proto_ = PlanView{};
  proto_.slots = ref_adc_->noise_slots_per_sample();
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
  require(same_front(adc.fast_front_view(), proto_.front),
          "BatchConverter: die disagrees on clocking or the sampler surrogates");
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

  const adc::dsp::ToneTable tones = signal.tone_table();
  require(tones.count > 0, "BatchConverter::convert: unsupported stimulus (see supports_signal)");

  std::vector<std::vector<int>> results(seeds_.size());
  const bool any_pad = blocks_.back().dies < blocks_.back().lanes;
  if (any_pad && pad_.size() < n) pad_.resize(n);

  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const DieBlock& blk = blocks_[b];
    PlanView p = block_view(blk);
    p.tones = tones;
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
