/// \file batch_api.hpp
/// POD kernel interface of the batch conversion engine.
///
/// The batch engine marches S samples × W dies (W = 8, 16 or 32) through
/// the fast profile's front end, stage chain and correction in
/// structure-of-arrays form, one *die per SIMD lane*. A lane is a job, not
/// one die of a shared configuration: it carries its own seed, clock
/// period, settle window, recharge factor, per-stage invariants and tone,
/// so a block may mix conversion rates and input tones. The serial
/// cross-sample state of a die (reference droop, random-walk jitter) stays
/// inside its lane, so lanes are fully independent and every per-stage
/// invariant is hoisted once per die-block into the PlanView below.
///
/// The kernel is compiled three times — baseline SSE2, AVX2, AVX-512 — from
/// one implementation header (batch_kernel_impl.hpp). To keep wide-ISA code
/// from leaking into baseline callers (the COMDAT hazard documented in
/// common/always_inline.hpp), the interface is deliberately plain-old-data:
/// raw pointers and scalars only, no std:: templates, no classes with inline
/// members.
/// BatchConverter (converter.hpp) owns the arrays and builds the views.
///
/// Bit-identity contract: for any die, the codes produced through this
/// interface are byte-identical to `PipelineAdc::convert()` under the fast
/// profile, on every ISA tier, at any batch shape — pinned by
/// tests/test_batch.cpp. Every per-sample step is one template that
/// PipelineAdc instantiates at one lane and the kernel at `PlanView::lanes`:
/// the front end (pipeline/fast_front.hpp), the tone stimulus
/// (dsp/tone_lanes.hpp), the stage chain (pipeline/fast_chain.hpp) and the
/// correction (digital/correction.hpp) — and so is the noise fill, the
/// lane-minor `tile::philox_normal_rows` (common/counter_rng_tile.hpp) over
/// the eager blocks only (pipeline/fast_layout.hpp). The kernel adds only
/// the chunk loop and the scatter of each lane's codes to its die.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/counter_rng_tile.hpp"
#include "common/isa_dispatch.hpp"
#include "digital/correction.hpp"
#include "dsp/tone_lanes.hpp"
#include "pipeline/fast_chain.hpp"
#include "pipeline/fast_front.hpp"

namespace adc::batch {

/// Most dies per die-block: one kernel pass marches up to 32 dies, one per
/// lane. The lane count W of a pass is a kernel template parameter (see
/// kLaneWidths), so every lane temporary is a stack array with a constant trip
/// count — the shape the auto-vectorizer wants. At W = 32 the AVX-512 tier
/// holds each lane temporary in four independent 8-double vectors, whose
/// dependency chains through the stage chain the out-of-order core runs side
/// by side. Ragged blocks are padded by replicating a real die; pad results
/// are discarded (lanes are independent, so padding cannot perturb real
/// lanes).
inline constexpr std::size_t kLanes = 32;

/// The instantiated kernel widths, narrowest first. A block runs at the
/// narrowest width that holds its dies.
inline constexpr std::size_t kLaneWidths[] = {8, 16, 32};

/// Samples per noise-plane chunk. 8 samples × 36 slots × 32 lanes ≈ 74 KB for
/// the plane. Small on purpose: the allocator's per-thread arenas keep a
/// pool thread's peak for the rest of the process, so a larger workspace
/// shows up in peak RSS, at no speed benefit. Chunking is value-neutral:
/// draws are positional.
inline constexpr std::size_t kChunkSamples = 8;

/// Stage-count ceiling of the batch engine. The nominal pipeline has 10
/// stages; BatchConverter rejects configs above this.
inline constexpr std::size_t kMaxBatchStages = 16;

/// Minimum dies in a group before routing it through the batch engine pays.
/// A ragged block still runs a full kernel pass of the narrowest width that
/// holds it (pad lanes do real work whose codes are discarded), so a group
/// of g dies costs about one 8-lane capture — ~2-3x a *single* die through
/// PipelineAdc (the same chain at one lane). Measured on the dev box the
/// crossover sits between 3 and 4 dies; testbench::run_dynamic_test_block
/// converts shorter runs die by die through PipelineAdc.
inline constexpr std::size_t kMinBatchDies = 4;

/// Everything the kernel reads and never writes. Each per-sample step is a
/// width-W template PipelineAdc runs at one lane, over the same view:
/// the front end (`front`), the stimulus (`tones`), the stage chain
/// (`chain`) and the correction (`correction`). What only a W-die block
/// needs around them is the noise fill's keys, one per lane, and its block
/// list.
struct PlanView {
  std::size_t lanes = 0;  ///< kernel width W of this block, one of kLaneWidths
  std::size_t slots = 0;  ///< noise-plane slots per sample

  /// The stage chain at width `lanes` (pipeline/fast_chain.hpp): ripple,
  /// reference, per-(stage, lane) and per-(flash comparator, lane)
  /// invariants. `chain.num_stages` <= kMaxBatchStages; `chain.forced`
  /// stays null (no stage of a batch die is forced).
  adc::pipeline::fast_chain::ChainView chain;
  /// The front end (pipeline/fast_front.hpp): the block's per-lane clock
  /// periods, and the reference die's jitter and sampler, which every die
  /// of the block was verified to share.
  adc::pipeline::fast_front::FrontView front;
  /// The capture's stimulus (dsp/tone_lanes.hpp), one tone set per lane.
  adc::dsp::ToneTable tones;
  /// The reference die's redundancy correction (digital/correction.hpp).
  adc::digital::CorrectionView correction;

  const std::uint64_t* noise_key = nullptr;  ///< [lanes] noise-plane Philox keys
  /// The eager blocks of a plane (PipelineAdc::eager_blocks), valid for
  /// every chunk: kChunkSamples is even, so every chunk starts at an even
  /// sample.
  adc::common::tile::BlockList eager;
};

/// Mutable per-capture workspace, allocated once per BatchConverter and
/// reused across captures, chunks and die-blocks (hot-path-alloc contract:
/// nothing below is ever grown inside the sample loop).
/// The kernel fills `plane` straight from Philox, W lanes side by side; it
/// needs no other scratch.
struct StateView {
  double* plane = nullptr;    ///< [kChunkSamples * slots * lanes] lane-minor rows
  int* const* out = nullptr;  ///< [lanes] per-die code buffers, length >= n
};

/// Per-ISA entry points (one strong symbol per tier; see the kernel TUs).
/// `convert_capture` runs one full capture of `n` samples for the
/// `plan.lanes` dies of a block, through the kernel instantiated at that
/// width; `chain_capture` is the same pass with the noise fill left out,
/// every chunk re-reading the rows `state.plane` already holds (a layer
/// benchmark: its codes are not a conversion's). `normal_fill`,
/// `normal_rows`, `comparator_lanes` and `exp_span` are the SoA math ports, exported so tests can pin cross-tier bit-identity
/// directly: `normal_rows` is tile::philox_normal_rows at W = `lanes`
/// (1, 8, 16 or 32); `comparator_lanes` runs fast_chain::certain and
/// fast_chain::decide on `n` comparators (a multiple of `lanes`), `lanes`
/// at a time, into 0/1 flags.
#define ADC_BATCH_KERNEL_ENTRY_POINTS                                                          \
  void convert_capture(const PlanView& plan, const StateView& state, std::uint64_t epoch,      \
                       std::size_t n);                                                         \
  void chain_capture(const PlanView& plan, const StateView& state, std::uint64_t epoch,        \
                     std::size_t n);                                                           \
  void normal_fill(std::uint64_t key, std::uint64_t stream, std::uint64_t first, double* out, \
                   std::size_t n);                                                             \
  void normal_rows(std::size_t lanes, const std::uint64_t* keys, std::uint64_t stream,         \
                   std::uint64_t first, std::size_t n, const adc::common::tile::BlockList& list, \
                   double* rows);                                                              \
  void comparator_lanes(std::size_t lanes, const double* v, const double* threshold,           \
                        const double* offset, const double* noise, const double* meta,         \
                        const double* draw, int* certain, int* decision, std::size_t n);       \
  void exp_span(const double* x, double* out, std::size_t n);
namespace sse2 {
ADC_BATCH_KERNEL_ENTRY_POINTS
}  // namespace sse2
namespace avx2 {
ADC_BATCH_KERNEL_ENTRY_POINTS
}  // namespace avx2
namespace avx512 {
ADC_BATCH_KERNEL_ENTRY_POINTS
}  // namespace avx512
#undef ADC_BATCH_KERNEL_ENTRY_POINTS

/// The function-pointer table runtime dispatch selects from.
struct KernelOps {
  void (*convert_capture)(const PlanView&, const StateView&, std::uint64_t, std::size_t) =
      nullptr;
  void (*chain_capture)(const PlanView&, const StateView&, std::uint64_t, std::size_t) =
      nullptr;
  void (*normal_fill)(std::uint64_t, std::uint64_t, std::uint64_t, double*, std::size_t) =
      nullptr;
  void (*normal_rows)(std::size_t, const std::uint64_t*, std::uint64_t, std::uint64_t,
                      std::size_t, const adc::common::tile::BlockList&, double*) = nullptr;
  void (*comparator_lanes)(std::size_t, const double*, const double*, const double*,
                           const double*, const double*, const double*, int*, int*,
                           std::size_t) = nullptr;
  void (*exp_span)(const double*, double*, std::size_t) = nullptr;
};

/// Kernel table for `isa`. The caller is responsible for not requesting a
/// tier the CPU cannot execute (adc::common::active_batch_isa() and
/// resolve_batch_isa() already clamp).
[[nodiscard]] const KernelOps& kernel_ops(adc::common::BatchIsa isa);

}  // namespace adc::batch
