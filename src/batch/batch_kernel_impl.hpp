/// \file batch_kernel_impl.hpp
/// The batch conversion kernel body, compiled once per ISA tier.
///
/// Include this from a translation unit that defines ADC_BATCH_ISA_NS to the
/// tier's namespace name (sse2 / avx2 / avx512) and is compiled with the
/// matching target flags. Everything except the four public entry points
/// lives in an anonymous namespace (internal linkage), and every shared
/// helper it pulls in (fastmath, the Philox tile, span math) is
/// ADC_ALWAYS_INLINE — no out-of-line body compiled with wide instructions
/// can escape to baseline callers.
///
/// ## Bit-identity
///
/// Each lane replays PipelineAdc's fast path *operation for operation*:
/// same expression trees, same association, same branch semantics (branches
/// whose both arms are safe to evaluate become selects — value-identical).
/// The per-ISA TUs are compiled with `-ffp-contract=off`, so no FMA
/// contraction can change a rounding step on tiers whose hardware has FMA.
/// tests/test_batch.cpp pins codes byte-identical to the scalar path across
/// shapes and tiers.
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

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "batch/batch_api.hpp"
#include "common/counter_rng_tile.hpp"
#include "common/span_math.hpp"
#include "pipeline/fast_layout.hpp"

namespace adc::batch {
namespace ADC_BATCH_ISA_NS {
namespace {

namespace fl = adc::pipeline::fast_layout;
namespace fm = adc::common::fastmath;

/// The fast-profile comparator decision as a select. Scalar original
/// (Comparator::decide_with_threshold_draw): metastable inputs resolve from
/// the draw's sign, otherwise the sign of the margin decides. Both arms are
/// pure, so the select is value-identical to the branch.
ADC_ALWAYS_INLINE inline bool decide_draw(double v, double threshold, double offset,
                                          double noise_rms, double meta, double draw) {
  const double noisy = v + noise_rms * draw;
  const double margin = noisy - (threshold + offset);
  const bool metastable = std::fabs(margin) < meta;
  // !std::signbit(draw), spelled bitwise so the loop vectorizes.
  const bool draw_positive = (std::bit_cast<std::uint64_t>(draw) >> 63) == 0;
  // Bitwise (not short-circuit) combine: both sides are pure, and a branch
  // here would keep the whole decision loop scalar.
  return (metastable & draw_positive) | (!metastable & (margin > 0.0));
}

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
  const std::size_t nstages = p.num_stages;
  // Per-capture lane state, reset exactly like reset_state() + convert_fast:
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
          // evaluation the scalar fast path uses out of span).
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

      // --- bias-ripple gain modulation (quantize_sample_fast preamble) ---
      double f[kL];
      double sqf[kL];
      if (p.ripple_on) {
        const double* d = row + fl::kSlotRipple * kL;
        for (std::size_t l = 0; l < kL; ++l) {
          const double a = 1.0 + p.ripple_sigma[l] * d[l];
          const double m = a < 0x1p-20 ? 0x1p-20 : a;  // std::max(a, 0x1p-20)
          f[l] = m;
          sqf[l] = std::sqrt(m);
        }
      } else {
        for (std::size_t l = 0; l < kL; ++l) {
          f[l] = 1.0;
          sqf[l] = 1.0;
        }
      }

      // --- live reference (ReferenceBuffer::vref) ---
      double vref[kL];
      for (std::size_t l = 0; l < kL; ++l) {
        vref[l] = p.nominal_vref[l] + p.level_error[l] - droop[l];
      }

      // --- stage chain (PipelineStage::process_fast per stage) ---
      double x[kL];
      double activity[kL];
      for (std::size_t l = 0; l < kL; ++l) {
        x[l] = tracked[l];
        activity[l] = 0.0;
      }
      int codes[kMaxBatchStages][kL];
      for (std::size_t i = 0; i < nstages; ++i) {
        const double* sig = p.sigma_sample + i * kL;
        const double* ohi = p.off_hi + i * kL;
        const double* olo = p.off_lo + i * kL;
        const double* nhi = p.noise_hi + i * kL;
        const double* nlo = p.noise_lo + i * kL;
        const double* mhi = p.meta_hi + i * kL;
        const double* mlo = p.meta_lo + i * kL;
        const double* d0 = p.droop_d0 + i * kL;
        const double* d1 = p.droop_d1 + i * kL;
        const double* gn = p.gain + i * kL;
        const double* gd = p.gdac + i * kL;
        const double* igd = p.inv_gain_denom + i * kL;
        const double* nit = p.neg_inv_tau0 + i * kL;
        const double* srr = p.sr + i * kL;
        const double* srt = p.sr_tau0 + i * kL;
        const double* isw = p.inv_swing + i * kL;
        const double* gmc = p.gm_compression + i * kL;
        const double* osw = p.output_swing + i * kL;
        const double* rt = row + (fl::kSlotStageBase + fl::kSlotsPerStage * i) * kL;
        const double* rh = rt + kL;
        const double* rl = rt + 2 * kL;

        double sampled[kL];
        if (p.thermal_on) {
          for (std::size_t l = 0; l < kL; ++l) sampled[l] = x[l] + sig[l] * rt[l];
        } else {
          for (std::size_t l = 0; l < kL; ++l) sampled[l] = x[l];
        }

        // ADSC decision: d = high ? +1 : (low ? 0 : -1). Reading the low
        // comparator's draw when the high one already decided is harmless —
        // draws are positional and stateless, exactly why the slot layout
        // reserves one per comparator.
        int d[kL];
        for (std::size_t l = 0; l < kL; ++l) {
          const double thr = vref[l] / 4.0;
          const bool hi = decide_draw(sampled[l], thr, ohi[l], nhi[l], mhi[l], rh[l]);
          const bool lo = decide_draw(sampled[l], -thr, olo[l], nlo[l], mlo[l], rl[l]);
          // hi ? +1 : (lo ? 0 : -1), as branch-free integer arithmetic.
          d[l] = static_cast<int>(hi) + static_cast<int>(hi | lo) - 1;
        }

        // Hold droop + residue target (PipelineStage::residue_target).
        double target[kL];
        for (std::size_t l = 0; l < kL; ++l) {
          const double held = sampled[l] - (d0[l] + d1[l] * sampled[l]);
          target[l] = gn[l] * held - static_cast<double>(d[l]) * gd[l] * vref[l];
        }

        // Opamp::settle_prepared, restructured so the one data-dependent
        // exponential is hoisted into a single span call. Both branch arms
        // feed the same exp expression with a selected prefactor/time, so
        // the select form is value-identical; the pure-slewing case
        // overrides the product afterwards.
        double finalv[kL];
        double mag[kL];
        double tau_stretch[kL];
        double sr_tau[kL];
        for (std::size_t l = 0; l < kL; ++l) {
          const double fv = target[l] * igd[l];
          const double m = std::fabs(fv);
          const double sf0 = m * isw[l];
          const double swing_frac = 1.0 < sf0 ? 1.0 : sf0;  // std::min(sf0, 1.0)
          const double stretch = 1.0 + gmc[l] * swing_frac;
          finalv[l] = fv;
          mag[l] = m;
          tau_stretch[l] = stretch;
          sr_tau[l] = srt[l] * sqf[l] * stretch;
        }
        // Slew test, reduced across the lanes: a settled pipeline is linear
        // (mag <= sr_tau) on nearly every sample, and the all-linear path
        // drops the slew-time division and the selects around it from the
        // stage's dependency chain.
        double max_excess = mag[0] - sr_tau[0];
        for (std::size_t l = 1; l < kL; ++l) {
          const double ex = mag[l] - sr_tau[l];
          max_excess = ex > max_excess ? ex : max_excess;
        }
        double earg[kL];
        double pref[kL];
        double slew_dyn[kL];
        // Double-valued select mask (0.0 / 1.0): a bool array store inside
        // this loop leaves GCC without a vector type for the whole body.
        double still_slewing[kL];
        if (max_excess <= 0.0) {
          // All lanes linear: t_exp == settle_s, pref == mag, no override.
          // Same expression tree (and association) as the general arm below
          // with `linear` true, so the bits are identical.
          for (std::size_t l = 0; l < kL; ++l) {
            earg[l] = p.settle_s * nit[l] * sqf[l] / tau_stretch[l];
            pref[l] = mag[l];
            still_slewing[l] = 0.0;
            slew_dyn[l] = 0.0;
          }
        } else {
          for (std::size_t l = 0; l < kL; ++l) {
            const bool linear = mag[l] <= sr_tau[l];
            const double sr_eff = srr[l] * f[l];
            const double t_slew = (mag[l] - sr_tau[l]) / sr_eff;
            const double t_exp = linear ? p.settle_s : (p.settle_s - t_slew);
            earg[l] = t_exp * nit[l] * sqf[l] / tau_stretch[l];
            pref[l] = linear ? mag[l] : sr_tau[l];
            still_slewing[l] = (!linear & (p.settle_s <= t_slew)) ? 1.0 : 0.0;
            slew_dyn[l] = mag[l] - sr_eff * p.settle_s;
          }
        }
        double e[kL];
        adc::common::spanmath::exp_span(earg, e, kL);
        for (std::size_t l = 0; l < kL; ++l) {
          double dyn = pref[l] * e[l];
          dyn = still_slewing[l] > 0.5 ? slew_dyn[l] : dyn;
          const double sign = finalv[l] < 0.0 ? -1.0 : 1.0;
          double out_v = finalv[l] - sign * dyn;
          out_v = out_v > osw[l] ? osw[l] : out_v;    // clamp to output swing;
          out_v = out_v < -osw[l] ? -osw[l] : out_v;  // no-ops when inside
          x[l] = out_v;
          activity[l] += std::fabs(static_cast<double>(d[l]));
          codes[i][l] = d[l];
        }
      }

      // --- backend flash (FlashConverter::quantize_fast) ---
      int cnt[kL];
      for (std::size_t l = 0; l < kL; ++l) cnt[l] = 0;
      const double* rf = row + (fl::kSlotStageBase + fl::kSlotsPerStage * nstages) * kL;
      for (std::size_t kc = 0; kc < p.flash_count; ++kc) {
        const double* df = rf + kc * kL;
        const double* off = p.flash_off + kc * kL;
        const double* nse = p.flash_noise + kc * kL;
        const double* met = p.flash_meta + kc * kL;
        const double frac = p.flash_frac[kc];
        for (std::size_t l = 0; l < kL; ++l) {
          const bool b = decide_draw(x[l], frac * vref[l], off[l], nse[l], met[l], df[l]);
          cnt[l] += static_cast<int>(b);
        }
      }

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

      // --- reference droop (ReferenceBuffer::consume) ---
      if (p.consume_on) {
        for (std::size_t l = 0; l < kL; ++l) {
          droop[l] += activity[l] * p.charge_per_event / p.decap;
        }
        if (p.recharge_on) {
          for (std::size_t l = 0; l < kL; ++l) droop[l] *= p.recharge_factor;
        } else {
          for (std::size_t l = 0; l < kL; ++l) droop[l] = 0.0;
        }
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
