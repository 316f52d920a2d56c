/// \file batch_kernel_impl.hpp
/// The batch conversion kernel body, compiled once per ISA tier.
///
/// Include this from a translation unit that defines ADC_BATCH_ISA_NS to the
/// tier's namespace name (sse2 / avx2 / avx512) and is compiled with the
/// matching target flags. Everything except the four public entry points
/// lives in an anonymous namespace (internal linkage), and every shared
/// helper it pulls in (the stage chain, fastmath, the Philox tile, span
/// math) is ADC_ALWAYS_INLINE — no out-of-line body compiled with wide
/// instructions can escape to baseline callers.
///
/// ## What the kernel adds to the chain
///
/// The stage chain itself — ripple factor, live reference, stages, flash,
/// reference droop — is pipeline/fast_chain.hpp, the same code PipelineAdc
/// runs at W = 1. Around it this file supplies what only a W-die block
/// needs: the chunked per-die noise fill and its transpose into lane-minor
/// rows, the sine/multi-tone stimulus and front-end surrogates in lane
/// form, and the integer redundancy correction. The per-ISA TUs are
/// compiled with `-ffp-contract=off`, so no FMA contraction can change a
/// rounding step on tiers whose hardware has FMA; tests/test_batch.cpp pins
/// codes byte-identical to PipelineAdc::convert across shapes and tiers.
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
#include "pipeline/fast_chain.hpp"
#include "pipeline/fast_layout.hpp"

namespace adc::batch {
namespace ADC_BATCH_ISA_NS {
namespace {

namespace fc = adc::pipeline::fast_chain;
namespace fl = adc::pipeline::fast_layout;
namespace fm = adc::common::fastmath;

/// Clenshaw recurrence over the lanes for one Chebyshev surrogate — the
/// exact operation sequence of adc::common::Chebyshev::operator(), with the
/// coefficient loop outermost so each step is a flat lane loop.
template <std::size_t kL>
ADC_ALWAYS_INLINE inline void clenshaw_lanes(const double* coef, std::size_t count, double mid,
                                             double inv_half, const double* z, double* out) {
  double y[kL];
  double two_y[kL];
  double b1[kL];
  double b2[kL];
  for (std::size_t l = 0; l < kL; ++l) {
    y[l] = (z[l] - mid) * inv_half;
    two_y[l] = 2.0 * y[l];
    b1[l] = 0.0;
    b2[l] = 0.0;
  }
  for (std::size_t k = count; k-- > 1;) {
    const double ck = coef[k];
    for (std::size_t l = 0; l < kL; ++l) {
      const double b0 = two_y[l] * b1[l] - b2[l] + ck;
      b2[l] = b1[l];
      b1[l] = b0;
    }
  }
  const double c0 = coef[0];
  for (std::size_t l = 0; l < kL; ++l) {
    out[l] = y[l] * b1[l] - b2[l] + c0;
  }
}

template <std::size_t kL>
void convert_capture_impl(const PlanView& p, const StateView& st, std::uint64_t epoch,
                          std::size_t n) {
  static_assert(kL % kFillGroup == 0, "a block's lanes split into whole fill groups");
  const std::size_t slots = p.slots;
  const std::size_t nstages = p.chain.num_stages;
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

      // --- sampling instant (tracked_sample_fast) ---
      double t[kL];
      const double t0 = static_cast<double>(k) * p.period;
      for (std::size_t l = 0; l < kL; ++l) t[l] = t0;
      if (p.jitter_rms > 0.0) {
        const double* d = row + fl::kSlotJitter * kL;
        for (std::size_t l = 0; l < kL; ++l) t[l] += p.jitter_rms * d[l];
      }
      if (p.walk_rms > 0.0) {
        const double* d = row + fl::kSlotWalk * kL;
        for (std::size_t l = 0; l < kL; ++l) {
          walk[l] += p.walk_rms * d[l];
          t[l] += walk[l];
        }
      }

      // --- stimulus (SineSignal/MultiToneSignal::sample_fast) ---
      double v[kL];
      double dv[kL];
      if (!p.multi_tone) {
        const ToneView tn = p.tones[0];
        for (std::size_t l = 0; l < kL; ++l) {
          double sv = 0.0;
          double cv = 0.0;
          fm::sincos_fast(tn.w * t[l] + tn.phase, sv, cv);
          v[l] = p.tone_offset + tn.amp * sv;
          dv[l] = tn.slope_coef * cv;
        }
      } else {
        for (std::size_t l = 0; l < kL; ++l) {
          v[l] = 0.0;
          dv[l] = 0.0;
        }
        for (std::size_t ti = 0; ti < p.tone_count; ++ti) {
          const ToneView tn = p.tones[ti];
          for (std::size_t l = 0; l < kL; ++l) {
            double sv = 0.0;
            double cv = 0.0;
            fm::sincos_fast(tn.w * t[l] + tn.phase, sv, cv);
            v[l] += tn.amp * sv;
            dv[l] += tn.slope_coef * cv;
          }
        }
      }

      // --- front-end tracking error (DifferentialSampler fast surrogates) ---
      double tracked[kL];
      if (p.tracking_nonlinearity) {
        double z[kL];
        double tau[kL];
        double inj[kL];
        for (std::size_t l = 0; l < kL; ++l) z[l] = v[l] * v[l];
        clenshaw_lanes<kL>(p.tau_coef, p.tau_count, p.tau_mid, p.tau_inv_half, z, tau);
        if (p.injection_on) {
          clenshaw_lanes<kL>(p.inj_coef, p.inj_count, p.inj_mid, p.inj_inv_half, z, inj);
        } else {
          for (std::size_t l = 0; l < kL; ++l) inj[l] = 0.0;
        }
        bool any_oos = false;
        bool oos[kL];
        for (std::size_t l = 0; l < kL; ++l) {
          oos[l] = z[l] > p.fit_vmax2;
          any_oos = any_oos || oos[l];
        }
        for (std::size_t l = 0; l < kL; ++l) {
          double tr = v[l];
          tr += -tau[l] * dv[l];
          tr += p.injection_on ? v[l] * inj[l] : 0.0;
          tracked[l] = tr;
        }
        if (any_oos) {
          // Rare: the stimulus left the fitted span. Recompute those lanes
          // through the baseline-compiled exact fallback (the same direct
          // evaluation PipelineAdc's front end uses out of span).
          for (std::size_t l = 0; l < kL; ++l) {
            if (!oos[l]) continue;
            double tr = v[l];
            tr += -p.tau_fallback(p.sampler_ctx, v[l]) * dv[l];
            tr += p.inj_fallback(p.sampler_ctx, v[l]);
            tracked[l] = tr;
          }
        }
      } else {
        for (std::size_t l = 0; l < kL; ++l) tracked[l] = v[l];
      }

      // --- the stage chain (pipeline/fast_chain.hpp) ---
      int codes[fc::kMaxStages][kL];
      int cnt[kL];
      fc::quantize<kL>(p.chain, row, tracked, droop, codes, cnt);

      // --- redundancy correction (ErrorCorrection::correct) ---
      // Stage-major accumulation with the lanes innermost; the saturation
      // clamps as integer selects. Exact-integer arithmetic either way.
      long long acc[kL];
      for (std::size_t l = 0; l < kL; ++l) acc[l] = p.corr_offset;
      for (std::size_t i = 0; i < nstages; ++i) {
        const long long w = p.weights[i];
        for (std::size_t l = 0; l < kL; ++l) {
          acc[l] += static_cast<long long>(codes[i][l]) * w;
        }
      }
      for (std::size_t l = 0; l < kL; ++l) {
        long long a = acc[l] + cnt[l];
        a = a < 0 ? 0 : a;
        a = a > p.max_code ? p.max_code : a;
        st.out[l][k] = static_cast<int>(a);
      }
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
