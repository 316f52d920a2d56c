/// \file converter.hpp
/// BatchConverter: the owner side of the batch conversion engine.
///
/// A BatchConverter fabricates D dies from a list of configurations that
/// differ at most in seed and conversion rate, gathers every per-sample
/// invariant of the fast profile — each die's one-lane stage-chain view and
/// clock period scattered into structure-of-arrays die-blocks of at most
/// kLanes dies, the shared sampler and correction views of the first die —
/// and runs whole captures through the ISA-dispatched kernel
/// (batch_api.hpp), each block at the narrowest kernel width that holds
/// it. Each die gets its own stimulus, so a rate sweep gives every lane its
/// own coherent tone. Results are byte-identical to calling
/// `PipelineAdc::convert()` die by die under the same fast profile — the
/// engine is a throughput optimization, never a fidelity knob.
///
/// Intended caller: testbench::run_dynamic_test_block, the one place that
/// chooses between this engine and die-by-die conversion. It cuts its dies
/// into runs whose configurations pass shares_block() with the run's first
/// die; the scenario runner's execute units reach the engine through it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "batch/batch_api.hpp"
#include "common/isa_dispatch.hpp"
#include "dsp/signal.hpp"
#include "pipeline/adc.hpp"

namespace adc::batch {

/// Dies per execute unit when `dies` batchable dies are spread over a pool of
/// `threads` workers, one unit per pool job: the widest kernel width that
/// still cuts the dies into at least one unit per worker, so wide passes
/// never idle a worker (on 4 workers a 64-die run gets 4 units of 16, a
/// 2000-die run 62 units of 32 and a ragged one of 16). Falls back to the
/// narrowest width.
[[nodiscard]] std::size_t unit_lanes(std::size_t dies, std::size_t threads);

/// Converts captures for a set of dies whose configurations differ at most
/// in seed and conversion rate. Construction is the expensive part (it
/// fabricates every die once to extract the plan); convert() is
/// allocation-free per sample and reuses one chunk workspace across
/// captures and die-blocks.
class BatchConverter {
 public:
  /// Fabricate one die per configuration, in order. Every configuration
  /// must pass shares_block() with the first; anything else (temperature,
  /// supply, full scale, a configuration outside supports_config(), ...)
  /// throws adc::common::ConfigError. `forced_isa` pins the kernel tier —
  /// tests use it to pin cross-tier bit-identity; production callers leave
  /// it empty and get the ADC_BATCH_ISA-aware runtime selection.
  explicit BatchConverter(std::span<const adc::pipeline::AdcConfig> configs,
                          std::optional<adc::common::BatchIsa> forced_isa = std::nullopt);

  /// One configuration: `seeds.size()` dies fabricated from `base`, its
  /// `seed` field overridden per die.
  BatchConverter(const adc::pipeline::AdcConfig& base, std::span<const std::uint64_t> seeds,
                 std::optional<adc::common::BatchIsa> forced_isa = std::nullopt);

  /// True when the batch engine can take this configuration: fast fidelity
  /// profile and a stage count within the kernel's compile-time ceiling.
  [[nodiscard]] static bool supports_config(const adc::pipeline::AdcConfig& config);

  /// True when dies fabricated from `a` and `b` may share one die block:
  /// both pass supports_config() and they agree on every field but the
  /// seed and the conversion rate (with the clock frequency that
  /// normalization derives from it). Symmetric. The one block-sharing rule:
  /// the constructor checks it, and callers grouping dies for the engine use
  /// it instead of restating which fields may differ.
  [[nodiscard]] static bool shares_block(const adc::pipeline::AdcConfig& a,
                                         const adc::pipeline::AdcConfig& b);

  /// One capture of `n` samples for every die, die d driven by
  /// `*signals[d]`. result[d][k] is byte-identical to what
  /// `PipelineAdc::convert(*signals[d], n)[k]` returns on a fresh die
  /// fabricated from die d's configuration after the same number of prior
  /// captures. Captures advance the shared noise epoch exactly like repeated
  /// PipelineAdc::convert() calls do. The stimuli must be tone tables with
  /// one tone count, offset and slope start; their tones may differ.
  [[nodiscard]] std::vector<std::vector<int>> convert(
      std::span<const adc::dsp::Signal* const> signals, std::size_t n);

  /// The same capture with one stimulus for every die.
  [[nodiscard]] std::vector<std::vector<int>> convert(const adc::dsp::Signal& signal,
                                                      std::size_t n);

  /// Layer benchmark of the stage chain: convert()'s kernel pass with the
  /// noise fill left out. Each block's plane is filled once with its first
  /// chunk's rows, which every later chunk re-reads; elided draws are still
  /// fetched at each sample's own positions. Advances the epoch like
  /// convert(); the codes are not a conversion's.
  [[nodiscard]] std::vector<std::vector<int>> convert_chain_only(const adc::dsp::Signal& signal,
                                                                 std::size_t n);

  [[nodiscard]] std::size_t die_count() const { return seeds_.size(); }
  [[nodiscard]] std::span<const std::uint64_t> seeds() const { return seeds_; }
  [[nodiscard]] adc::common::BatchIsa isa() const { return isa_; }
  /// Die-blocks, in die order, and the kernel width each one runs at.
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] std::size_t block_width(std::size_t b) const { return blocks_[b].lanes; }
  [[nodiscard]] int resolution_bits() const { return ref_adc_->resolution_bits(); }
  /// The first die's normalized configuration.
  [[nodiscard]] const adc::pipeline::AdcConfig& config() const { return ref_adc_->config(); }
  /// Realized (normalized) conversion rate of the first die; the same
  /// value PipelineAdc::conversion_rate() reports on it, and on every die
  /// when they share one configuration.
  [[nodiscard]] double conversion_rate() const { return rates_[0]; }
  /// Realized conversion rate of die `d`.
  [[nodiscard]] double conversion_rate(std::size_t d) const { return rates_[d]; }
  /// Full-scale input range [V peak-to-peak], uniform across the dies.
  [[nodiscard]] double full_scale_vpp() const { return ref_adc_->full_scale_vpp(); }

 private:
  /// Per-lane and per-(stage|flash, lane) plan arrays of one die block.
  /// Lane-minor layout with a stride of `lanes`, ragged blocks padded by
  /// replicating lane 0.
  struct DieBlock {
    std::size_t dies = 0;   ///< real dies in this block (1..lanes)
    std::size_t lanes = 0;  ///< kernel width: block_lanes(dies)
    std::array<std::uint64_t, kLanes> noise_key{};
    std::array<double, kLanes> period{};
    std::array<double, kLanes> settle_s{};
    std::array<double, kLanes> recharge_factor{};
    std::array<double, kLanes> nominal_vref{};
    std::array<double, kLanes> level_error{};
    std::array<double, kLanes> ripple_sigma{};
    std::vector<double> stage_lane;  ///< [kStageFields][num_stages][lanes]
    std::vector<double> flash_lane;  ///< [kFlashFields][flash_count][lanes]
  };

  [[nodiscard]] std::vector<std::vector<int>> run(
      std::span<const adc::dsp::Signal* const> signals, std::size_t n, bool chain_only);
  void extract_die(adc::pipeline::PipelineAdc& adc, DieBlock& block, std::size_t lane);
  void check_uniform(adc::pipeline::PipelineAdc& adc) const;
  [[nodiscard]] PlanView block_view(const DieBlock& block) const;

  std::vector<std::uint64_t> seeds_;
  std::vector<double> rates_;  ///< [die] realized conversion rate
  adc::common::BatchIsa isa_;
  const KernelOps* ops_ = nullptr;

  /// First die, kept alive: the block-uniform views point into it (the
  /// flash ladder, the sampler surrogates and their fallback context, the
  /// correction weights), and it serves caller introspection.
  std::unique_ptr<adc::pipeline::PipelineAdc> ref_adc_;

  /// Block-uniform views (identical across dies; verified at build); each
  /// block and capture patches in its lane pointers and tone table.
  PlanView proto_;

  std::vector<DieBlock> blocks_;  ///< kLanes dies each, but the last

  // Chunk workspace, allocated once and reused across captures, chunks and
  // die-blocks (hot-path-alloc contract: never grown inside the kernel).
  std::vector<double> plane_;
  std::vector<double> tone_rows_;  ///< one block's ToneTable fields, [4][tone][lanes]
  std::vector<int> pad_;  ///< sink for padded lanes' codes (discarded)

  std::uint64_t epoch_ = 0;  ///< capture counter shared by every die
};

}  // namespace adc::batch
