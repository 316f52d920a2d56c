/// \file batch_kernel_impl.hpp
/// The batch conversion kernel body, compiled once per ISA tier.
///
/// Include this from a translation unit that defines ADC_BATCH_ISA_NS to the
/// tier's namespace name (sse2 / avx2 / avx512) and is compiled with the
/// matching target flags. Everything except the public entry points
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
/// (digital/correction.hpp), and so is the noise fill
/// (tile::philox_normal_rows, the template NoisePlane runs at W = 1). This
/// file adds only what a W-die block needs around them: the chunk loop and
/// the scatter of each lane's codes to its die. The
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
/// generated lane-minor in one pass: Philox runs the W lane keys of each
/// counter side by side and writes `plane` rows directly, so every draw
/// load in the sample loop is contiguous. Only the eager blocks are
/// generated (`PlanView::eager`); the chain fetches an elided comparator
/// draw by position in the rare case it can change a decision
/// (pipeline/fast_chain.hpp).

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

/// One capture of a W-lane block. `kFill` false is chain_capture: every
/// chunk re-reads the rows the plane already holds.
template <std::size_t kL, bool kFill>
void convert_capture_impl(const PlanView& p, const StateView& st, std::uint64_t epoch,
                          std::size_t n) {
  const std::size_t slots = p.slots;
  // Per-capture lane state, reset exactly like PipelineAdc::convert:
  // droop starts at zero (fresh capture), walk accumulates from zero.
  double droop[kL] = {};
  double walk[kL] = {};
  for (std::size_t base = 0; base < n; base += kChunkSamples) {
    const std::size_t count = (n - base < kChunkSamples) ? (n - base) : kChunkSamples;
    if constexpr (kFill) {
      // The eager blocks of rows [base, base + count), at the positions
      // NoisePlane::generate uses: (key, epoch, sample·slots + slot).
      adc::common::tile::philox_normal_rows<kL>(p.noise_key, epoch,
                                                static_cast<std::uint64_t>(base) * slots,
                                                count * slots, p.eager, st.plane);
    }
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t k = base + s;
      const fc::Draws draws{st.plane + s * slots * kL, p.noise_key, epoch,
                            static_cast<std::uint64_t>(k) * slots};
      double t[kL];
      ff::instant<kL>(p.front, k, draws.row, walk, t);
      double v[kL];
      double dv[kL];
      adc::dsp::tone_lanes<kL>(p.tones, t, v, dv);
      double tracked[kL];
      ff::track<kL>(p.front, v, dv, tracked);
      int codes[fc::kMaxStages][kL];
      int flash[kL];
      fc::quantize<kL>(p.chain, draws, tracked, droop, codes, flash);
      int word[kL];
      adc::digital::correct_lanes<kL>(p.correction, codes, flash, word);
      for (std::size_t l = 0; l < kL; ++l) st.out[l][k] = word[l];
    }
  }
}

template <bool kFill>
void capture_at_width(const PlanView& plan, const StateView& state, std::uint64_t epoch,
                      std::size_t n) {
  static_assert(kLaneWidths[0] == 8 && kLaneWidths[1] == 16 && kLaneWidths[2] == 32,
                "the capture instantiates exactly the kLaneWidths");
  switch (plan.lanes) {
    case 32:
      convert_capture_impl<32, kFill>(plan, state, epoch, n);
      return;
    case 16:
      convert_capture_impl<16, kFill>(plan, state, epoch, n);
      return;
    default:  // 8: BatchConverter only builds kLaneWidths blocks
      convert_capture_impl<8, kFill>(plan, state, epoch, n);
      return;
  }
}

template <std::size_t kL>
void comparator_lanes_impl(const double* v, const double* threshold, const double* offset,
                           const double* noise, const double* meta, const double* draw,
                           int* certain, int* decision, std::size_t n) {
  for (std::size_t i = 0; i < n; i += kL) {
    for (std::size_t l = 0; l < kL; ++l) {
      const std::size_t j = i + l;
      certain[j] = static_cast<int>(fc::certain(v[j], threshold[j], offset[j], noise[j], meta[j]));
      decision[j] =
          static_cast<int>(fc::decide(v[j], threshold[j], offset[j], noise[j], meta[j], draw[j]));
    }
  }
}

}  // namespace

void convert_capture(const PlanView& plan, const StateView& state, std::uint64_t epoch,
                     std::size_t n) {
  capture_at_width<true>(plan, state, epoch, n);
}

void chain_capture(const PlanView& plan, const StateView& state, std::uint64_t epoch,
                   std::size_t n) {
  capture_at_width<false>(plan, state, epoch, n);
}

void normal_fill(std::uint64_t key, std::uint64_t stream, std::uint64_t first, double* out,
                 std::size_t n) {
  adc::common::tile::philox_normal_fill_ptr(key, stream, first, out, n);
}

void normal_rows(std::size_t lanes, const std::uint64_t* keys, std::uint64_t stream,
                 std::uint64_t first, std::size_t n, const adc::common::tile::BlockList& list,
                 double* rows) {
  switch (lanes) {
    case 32:
      adc::common::tile::philox_normal_rows<32>(keys, stream, first, n, list, rows);
      return;
    case 16:
      adc::common::tile::philox_normal_rows<16>(keys, stream, first, n, list, rows);
      return;
    case 8:
      adc::common::tile::philox_normal_rows<8>(keys, stream, first, n, list, rows);
      return;
    default:  // 1
      adc::common::tile::philox_normal_rows<1>(keys, stream, first, n, list, rows);
      return;
  }
}

void comparator_lanes(std::size_t lanes, const double* v, const double* threshold,
                      const double* offset, const double* noise, const double* meta,
                      const double* draw, int* certain, int* decision, std::size_t n) {
  switch (lanes) {
    case 32:
      comparator_lanes_impl<32>(v, threshold, offset, noise, meta, draw, certain, decision, n);
      return;
    case 16:
      comparator_lanes_impl<16>(v, threshold, offset, noise, meta, draw, certain, decision, n);
      return;
    case 8:
      comparator_lanes_impl<8>(v, threshold, offset, noise, meta, draw, certain, decision, n);
      return;
    default:  // 1
      comparator_lanes_impl<1>(v, threshold, offset, noise, meta, draw, certain, decision, n);
      return;
  }
}

void exp_span(const double* x, double* out, std::size_t n) {
  adc::common::spanmath::exp_span(x, out, n);
}

}  // namespace ADC_BATCH_ISA_NS
}  // namespace adc::batch
