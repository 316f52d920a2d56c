/// \file batch_kernel_impl.hpp
/// The batch conversion kernel body, compiled once per ISA tier.
///
/// Include this from a translation unit that defines ADC_BATCH_ISA_NS to the
/// tier's namespace name (sse2 / avx2 / avx512) and is compiled with the
/// matching target flags. Everything except the four public entry points
/// lives in an anonymous namespace (internal linkage), and every shared
/// helper it pulls in (front end, tones, stage chain, correction, fastmath,
/// the Philox tile, span math) is ADC_ALWAYS_INLINE — no out-of-line body
/// compiled with wide instructions can escape to baseline callers.
///
/// ## What the kernel adds
///
/// Every per-sample step is the one implementation PipelineAdc runs at
/// W = 1: the sampling instant and switch surrogates
/// (pipeline/fast_front.hpp), the tone stimulus (dsp/tone_lanes.hpp), the
/// stage chain (pipeline/fast_chain.hpp) and the redundancy correction
/// (digital/correction.hpp). This file adds only what a W-die block needs
/// around them: the chunked per-die noise fill and its transpose into
/// lane-minor rows, and the scatter of each lane's codes to its die. The
/// per-ISA TUs are compiled with `-ffp-contract=off`, so no FMA contraction
/// can change a rounding step on tiers whose hardware has FMA;
/// tests/test_batch.cpp pins codes byte-identical to PipelineAdc::convert
/// across shapes and tiers.
///
/// ## Layout
///
/// Lanes are dies: the two serial per-die recurrences (reference droop,
/// random-walk jitter) live in lane-indexed registers, and all sample math
/// runs on `double[kL]` stack arrays with constant trip counts — the pattern
/// GCC's vectorizer converts wholesale. The lane count kL is a template
/// parameter instantiated at every width of kLaneWidths; `convert_capture`
/// switches on the block's `PlanView::lanes`. Wider passes do not change
/// what a lane computes, only how many independent lanes each vector
/// instruction sequence carries: the stage chain is a long serial
/// dependency per sample (decide, amplify, settle, next stage), so at 8
/// lanes on AVX-512 every step waits on one vector's latency, while at 32
/// lanes four vectors' chains overlap in the out-of-order core. Noise is
/// generated per die (contiguous positional fill) into `scratch`, a group of
/// dies at a time, then interleave-transposed into lane-minor rows in
/// `plane` so every draw load in the sample loop is contiguous.

#ifndef ADC_BATCH_ISA_NS
#error "batch_kernel_impl.hpp: define ADC_BATCH_ISA_NS before including"
#endif

#include <cstddef>
#include <cstdint>

#include "batch/batch_api.hpp"
#include "common/counter_rng_tile.hpp"
#include "common/span_math.hpp"

namespace adc::batch {
namespace ADC_BATCH_ISA_NS {
namespace {

namespace fc = adc::pipeline::fast_chain;
namespace ff = adc::pipeline::fast_front;

template <std::size_t kL>
void convert_capture_impl(const PlanView& p, const StateView& st, std::uint64_t epoch,
                          std::size_t n) {
  static_assert(kL % kFillGroup == 0, "a block's lanes split into whole fill groups");
  const std::size_t slots = p.slots;
  // Per-capture lane state, reset exactly like PipelineAdc::convert:
  // droop starts at zero (fresh capture), walk accumulates from zero.
  double droop[kL] = {};
  double walk[kL] = {};
  for (std::size_t base = 0; base < n; base += kChunkSamples) {
    const std::size_t count = (n - base < kChunkSamples) ? (n - base) : kChunkSamples;
    const std::size_t rows = count * slots;
    // Per-die positional noise fill (same (key, epoch, sample*slots + slot)
    // indexing as NoisePlane::generate), kFillGroup dies at a time, each
    // group then transposed into its lanes of the lane-minor plane (one
    // contiguous kFillGroup-double store per row).
    for (std::size_t g = 0; g < kL; g += kFillGroup) {
      for (std::size_t l = 0; l < kFillGroup; ++l) {
        adc::common::tile::philox_normal_fill_ptr(
            p.noise_key[g + l], epoch, static_cast<std::uint64_t>(base) * slots,
            st.scratch + l * rows, rows);
      }
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t l = 0; l < kFillGroup; ++l) {
          st.plane[r * kL + g + l] = st.scratch[l * rows + r];
        }
      }
    }
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t k = base + s;
      const double* row = st.plane + s * slots * kL;
      double t[kL];
      ff::instant<kL>(p.front, k, row, walk, t);
      double v[kL];
      double dv[kL];
      adc::dsp::tone_lanes<kL>(p.tones, t, v, dv);
      double tracked[kL];
      ff::track<kL>(p.front, v, dv, tracked);
      int codes[fc::kMaxStages][kL];
      int flash[kL];
      fc::quantize<kL>(p.chain, row, tracked, droop, codes, flash);
      int word[kL];
      adc::digital::correct_lanes<kL>(p.correction, codes, flash, word);
      for (std::size_t l = 0; l < kL; ++l) st.out[l][k] = word[l];
    }
  }
}

}  // namespace

void convert_capture(const PlanView& plan, const StateView& state, std::uint64_t epoch,
                     std::size_t n) {
  static_assert(kLaneWidths[0] == 8 && kLaneWidths[1] == 16 && kLaneWidths[2] == 32,
                "convert_capture instantiates exactly the kLaneWidths");
  switch (plan.lanes) {
    case 32:
      convert_capture_impl<32>(plan, state, epoch, n);
      return;
    case 16:
      convert_capture_impl<16>(plan, state, epoch, n);
      return;
    default:  // 8: BatchConverter only builds kLaneWidths blocks
      convert_capture_impl<8>(plan, state, epoch, n);
      return;
  }
}

void normal_fill(std::uint64_t key, std::uint64_t stream, std::uint64_t first, double* out,
                 std::size_t n) {
  adc::common::tile::philox_normal_fill_ptr(key, stream, first, out, n);
}

void exp_span(const double* x, double* out, std::size_t n) {
  adc::common::spanmath::exp_span(x, out, n);
}

void sincos_span(const double* x, double* sin_out, double* cos_out, std::size_t n) {
  adc::common::spanmath::sincos_span(x, sin_out, cos_out, n);
}

}  // namespace ADC_BATCH_ISA_NS
}  // namespace adc::batch
