/// \file fast_chain.hpp
/// The fast-profile stage chain: bias-ripple factor, live reference, ten
/// 1.5-bit stages (decide, droop, amplify, settle), the backend flash and
/// the reference charge they draw — for W dies at once.
///
/// This is the only implementation of the fast profile's per-sample
/// quantizer. PipelineAdc runs it at W = 1, one die reading its noise-plane
/// row as-is; the batch kernel (src/batch) runs it at W ∈ {8, 16, 32}, one
/// die per lane, from lane-minor rows of the same positional draws. A lane
/// computes the same bits at every width: W only sets how many independent
/// dies each instruction sequence carries.
///
/// ## Layout
///
/// ChainView is plain old data. Per-lane arrays hold W values; per-stage
/// and per-flash-comparator invariants are laid out `[field][stage][lane]`
/// (`[field][comparator][lane]`), so at W = 1 a die's view is one row per
/// field and a W-lane block scatters each die's W = 1 rows into its lanes.
/// A noise row is lane-minor: slot s of lane l at `row[s * W + l]` — at
/// W = 1 exactly the NoisePlane row.
///
/// ## Arithmetic
///
/// Every lane temporary is a `double[W]` stack array walked by constant-
/// trip-count loops, the shape GCC's vectorizer converts wholesale, and
/// every branch whose two arms are pure is a select. The one
/// data-dependent exponential per stage goes through a single span call.
/// Translation units that include this header for the batch kernel are
/// compiled with -ffp-contract=off, so no tier fuses a rounding step.
///
/// ## Linkage
///
/// Every function here is ADC_ALWAYS_INLINE. The header is compiled into
/// baseline translation units and into the AVX2/AVX-512 kernel units, and
/// an ordinary inline body would be emitted as a weak COMDAT copy that the
/// linker may hand to baseline callers (see common/always_inline.hpp).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/contracts.hpp"
#include "common/fastmath.hpp"
#include "common/span_math.hpp"
#include "pipeline/fast_layout.hpp"

namespace adc::pipeline::fast_chain {

/// Stage ceiling: the correction logic caps num_stages + flash_bits at 20.
inline constexpr std::size_t kMaxStages = 20;

/// Per-stage invariants, the `field` index of ChainView::stage.
enum StageField : std::size_t {
  kSigmaSample,    ///< kT/C sampling noise sigma [V]
  kOffHi,          ///< +VREF/4 comparator offset [V]
  kOffLo,          ///< -VREF/4 comparator offset [V]
  kNoiseHi,        ///< comparator input noise sigma [V]
  kNoiseLo,
  kMetaHi,         ///< comparator metastability half-window [V]
  kMetaLo,
  kDroopD0,        ///< hold droop d0 + d1·v at the bound hold window
  kDroopD1,
  kGain,           ///< realized interstage gain 1 + C1/C2
  kGdac,           ///< realized DAC gain C1/C2
  kInvGainDenom,   ///< Opamp::SettleCoeffs at the ripple-free bias...
  kNegInvTau0,
  kSr,
  kSrTau0,
  kInvSwing,
  kGmCompression,  ///< opamp large-signal parameters
  kOutputSwing,
  kStageFields,
};

/// Per-flash-comparator invariants, the `field` index of ChainView::flash.
enum FlashField : std::size_t {
  kFlashOff,    ///< comparator offset [V]
  kFlashNoise,  ///< input noise sigma [V]
  kFlashMeta,   ///< metastability half-window [V]
  kFlashFields,
};

/// ChainView::forced entry of a stage that decides normally.
inline constexpr int kNotForced = 2;

/// Everything the chain reads and never writes, for W lanes.
struct ChainView {
  std::size_t num_stages = 0;   ///< 1.5b stages (<= kMaxStages)
  std::size_t flash_count = 0;  ///< backend flash comparators

  // --- lane-uniform scalars ---
  double charge_per_event = 0.0;  ///< reference charge per code event [C]
  double decap = 0.0;             ///< reference decoupling [F]
  bool thermal_on = false;        ///< per-stage kT/C sampling noise
  bool ripple_on = false;         ///< bias-ripple gain modulation
  bool consume_on = false;        ///< reference droop accumulation
  bool recharge_on = false;       ///< exponential recharge between samples
  const double* flash_frac = nullptr;  ///< [flash_count] thresholds / vref

  // --- per-lane die parameters [W] ---
  // settle_s and recharge_factor follow the conversion period, so dies
  // converting at different rates share a block.
  const double* settle_s = nullptr;         ///< effective settling window [s]
  const double* recharge_factor = nullptr;  ///< exp(-T/(Rout·C)) between samples
  const double* nominal_vref = nullptr;     ///< bandgap-coupled references
  const double* level_error = nullptr;      ///< static reference level error
  const double* ripple_sigma = nullptr;     ///< per-sample gain ripple sigma

  // --- per-(stage|comparator, lane) invariants ---
  const double* stage = nullptr;  ///< [kStageFields][num_stages][W]
  const double* flash = nullptr;  ///< [kFlashFields][flash_count][W]

  /// [num_stages] forced ADSC codes (-1/0/+1, or kNotForced), applied to
  /// every lane; null when no stage is forced (foreground calibration
  /// drives the DSB directly through this).
  const int* forced = nullptr;
};

/// A comparator decision from its positional noise deviate: metastable
/// inputs resolve from the draw's sign, otherwise the sign of the margin
/// decides. Both arms are pure, so the decision is a select.
ADC_ALWAYS_INLINE inline bool decide(double v, double threshold, double offset,
                                     double noise_rms, double meta, double draw) {
  const double noisy = v + noise_rms * draw;
  const double margin = noisy - (threshold + offset);
  const bool metastable = std::fabs(margin) < meta;
  // !std::signbit(draw), spelled bitwise so the loop vectorizes.
  const bool draw_positive = (__builtin_bit_cast(std::uint64_t, draw) >> 63) == 0;
  // Bitwise (not short-circuit) combine: both sides are pure, and a branch
  // here would keep the whole decision loop scalar.
  return (metastable & draw_positive) | (!metastable & (margin > 0.0));
}

/// Stage `i` on W lanes: sample with kT/C noise, decide, droop, amplify and
/// settle. `x` is the stage input and becomes its residue; the decisions
/// land in `code` and add |d| to `activity`. `f`/`sqf` carry the bias-ripple
/// factor and its root (tau scales by 1/sqrt(f), slew rate by f).
template <std::size_t W>
ADC_ALWAYS_INLINE inline void stage_step(const ChainView& v, std::size_t i, const double* row,
                                         const double* f, const double* sqf,
                                         const double* vref, double* x, int* code,
                                         double* activity) {
  const std::size_t stride = v.num_stages * W;
  const double* at = v.stage + i * W;
  const double* sig = at + kSigmaSample * stride;
  const double* ohi = at + kOffHi * stride;
  const double* olo = at + kOffLo * stride;
  const double* nhi = at + kNoiseHi * stride;
  const double* nlo = at + kNoiseLo * stride;
  const double* mhi = at + kMetaHi * stride;
  const double* mlo = at + kMetaLo * stride;
  const double* d0 = at + kDroopD0 * stride;
  const double* d1 = at + kDroopD1 * stride;
  const double* gn = at + kGain * stride;
  const double* gd = at + kGdac * stride;
  const double* igd = at + kInvGainDenom * stride;
  const double* nit = at + kNegInvTau0 * stride;
  const double* srr = at + kSr * stride;
  const double* srt = at + kSrTau0 * stride;
  const double* isw = at + kInvSwing * stride;
  const double* gmc = at + kGmCompression * stride;
  const double* osw = at + kOutputSwing * stride;
  // Slots: thermal, +VREF/4 comparator, -VREF/4 comparator.
  const double* rt = row + (fast_layout::kSlotStageBase + fast_layout::kSlotsPerStage * i) * W;
  const double* rh = rt + W;
  const double* rl = rt + 2 * W;

  for (std::size_t l = 0; l < W; ++l) {
    ADC_EXPECT(__builtin_isfinite(x[l]), "fast_chain::stage_step: non-finite input voltage");
  }
  double sampled[W];
  if (v.thermal_on) {
    for (std::size_t l = 0; l < W; ++l) sampled[l] = x[l] + sig[l] * rt[l];
  } else {
    for (std::size_t l = 0; l < W; ++l) sampled[l] = x[l];
  }

  // ADSC decision: d = high ? +1 : (low ? 0 : -1). Reading the low
  // comparator's draw when the high one already decided is harmless —
  // draws are positional and stateless, exactly why the slot layout
  // reserves one per comparator.
  int d[W];
  for (std::size_t l = 0; l < W; ++l) {
    const double thr = vref[l] / 4.0;
    const bool hi = decide(sampled[l], thr, ohi[l], nhi[l], mhi[l], rh[l]);
    const bool lo = decide(sampled[l], -thr, olo[l], nlo[l], mlo[l], rl[l]);
    // hi ? +1 : (lo ? 0 : -1), as branch-free integer arithmetic.
    d[l] = static_cast<int>(hi) + static_cast<int>(hi | lo) - 1;
  }
  if (v.forced != nullptr && v.forced[i] != kNotForced) {
    for (std::size_t l = 0; l < W; ++l) d[l] = v.forced[i];  // the DSB driven directly
  }

  // Hold droop (affine in the sampled voltage), then the residue target
  // (1 + C1/C2)·v_held - d·(C1/C2)·VREF with the realized capacitors.
  double target[W];
  for (std::size_t l = 0; l < W; ++l) {
    const double held = sampled[l] - (d0[l] + d1[l] * sampled[l]);
    target[l] = gn[l] * held - static_cast<double>(d[l]) * gd[l] * vref[l];
    ADC_EXPECT(__builtin_isfinite(target[l]), "fast_chain::stage_step: non-finite target voltage");
  }

  // Opamp settling on the precomputed loop constants: finite-gain final
  // value, gm compression stretching tau with the output amplitude, and a
  // slew-limited phase when the step exceeds SR·tau. Both branch arms feed
  // the same exp expression with a selected prefactor and time, so the
  // select form is value-identical; the pure-slewing case overrides the
  // product afterwards.
  double finalv[W];
  double mag[W];
  double tau_stretch[W];
  double sr_tau[W];
  for (std::size_t l = 0; l < W; ++l) {
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
  // (mag <= sr_tau) on nearly every sample, and the all-linear path drops
  // the slew-time division and the selects around it from the stage's
  // dependency chain.
  double max_excess = mag[0] - sr_tau[0];
  for (std::size_t l = 1; l < W; ++l) {
    const double ex = mag[l] - sr_tau[l];
    max_excess = ex > max_excess ? ex : max_excess;
  }
  double earg[W];
  double pref[W];
  double slew_dyn[W];
  // Double-valued select mask (0.0 / 1.0): a bool array store inside this
  // loop leaves GCC without a vector type for the whole body.
  double still_slewing[W];
  if (max_excess <= 0.0) {
    // All lanes linear: t_exp == settle_s[l], pref == mag, no override. Same
    // expression tree (and association) as the general arm below with
    // `linear` true, so the bits are identical.
    for (std::size_t l = 0; l < W; ++l) {
      earg[l] = v.settle_s[l] * nit[l] * sqf[l] / tau_stretch[l];
      pref[l] = mag[l];
      still_slewing[l] = 0.0;
      slew_dyn[l] = 0.0;
    }
  } else {
    for (std::size_t l = 0; l < W; ++l) {
      const bool linear = mag[l] <= sr_tau[l];
      const double sr_eff = srr[l] * f[l];
      const double t_slew = (mag[l] - sr_tau[l]) / sr_eff;
      const double t_exp = linear ? v.settle_s[l] : (v.settle_s[l] - t_slew);
      earg[l] = t_exp * nit[l] * sqf[l] / tau_stretch[l];
      pref[l] = linear ? mag[l] : sr_tau[l];
      still_slewing[l] = (!linear & (v.settle_s[l] <= t_slew)) ? 1.0 : 0.0;
      slew_dyn[l] = mag[l] - sr_eff * v.settle_s[l];
    }
  }
  double e[W];
  adc::common::spanmath::exp_span(earg, e, W);
  for (std::size_t l = 0; l < W; ++l) {
    double dyn = pref[l] * e[l];
    dyn = still_slewing[l] > 0.5 ? slew_dyn[l] : dyn;
    const double sign = finalv[l] < 0.0 ? -1.0 : 1.0;
    double out_v = finalv[l] - sign * dyn;
    out_v = out_v > osw[l] ? osw[l] : out_v;    // clamp to output swing;
    out_v = out_v < -osw[l] ? -osw[l] : out_v;  // no-ops when inside
    ADC_ENSURE(__builtin_isfinite(out_v), "fast_chain::stage_step: non-finite residue");
    ADC_ENSURE(adc::common::in_closed_range(out_v, -osw[l], osw[l]),
               "fast_chain::stage_step: residue escaped the swing limit");
    x[l] = out_v;
    activity[l] += std::fabs(static_cast<double>(d[l]));
    code[l] = d[l];
  }
}

/// One sample of W dies through the whole chain. `x` holds the tracked
/// inputs and ends as the last stage's residues; `row` is the sample's
/// lane-minor noise row; `droop` is each lane's reference droop, carried
/// across samples and updated with the charge this sample drew. Stage i's
/// decisions land in `codes[i]`, the flash's thermometer counts in `flash`.
template <std::size_t W>
ADC_ALWAYS_INLINE inline void quantize(const ChainView& v, const double* row, double* x,
                                       double* droop, int (*codes)[W], int* flash) {
  for (std::size_t l = 0; l < W; ++l) {
    ADC_EXPECT(v.settle_s[l] >= 0.0, "fast_chain::quantize: negative phase time");
  }

  // Bias ripple scales every leg current by one factor f; rescale the
  // precomputed settle constants analytically instead of re-deriving them:
  // GBW ~ sqrt(I) so tau /= sqrt(f), SR ~ I so sr *= f.
  double f[W];
  double sqf[W];
  if (v.ripple_on) {
    const double* d = row + fast_layout::kSlotRipple * W;
    for (std::size_t l = 0; l < W; ++l) {
      const double a = 1.0 + v.ripple_sigma[l] * d[l];
      const double m = a < 0x1p-20 ? 0x1p-20 : a;  // std::max(a, 0x1p-20)
      f[l] = m;
      sqf[l] = std::sqrt(m);
    }
  } else {
    for (std::size_t l = 0; l < W; ++l) {
      f[l] = 1.0;
      sqf[l] = 1.0;
    }
  }

  // Live reference: the ADSC thresholds, the DACs and the flash ladder all
  // share it, so every block sees this sample's droop.
  double vref[W];
  for (std::size_t l = 0; l < W; ++l) {
    vref[l] = v.nominal_vref[l] + v.level_error[l] - droop[l];
    ADC_EXPECT(__builtin_isfinite(vref[l]) && vref[l] > 0.0, "fast_chain::quantize: bad V_REF");
  }

  double activity[W];
  for (std::size_t l = 0; l < W; ++l) activity[l] = 0.0;
  for (std::size_t i = 0; i < v.num_stages; ++i) {
    stage_step<W>(v, i, row, f, sqf, vref, x, codes[i], activity);
  }

  // Backend flash: the count of ladder taps the final residue exceeds.
  const std::size_t fstride = v.flash_count * W;
  const double* rf =
      row + (fast_layout::kSlotStageBase + fast_layout::kSlotsPerStage * v.num_stages) * W;
  for (std::size_t l = 0; l < W; ++l) flash[l] = 0;
  for (std::size_t k = 0; k < v.flash_count; ++k) {
    const double* df = rf + k * W;
    const double* off = v.flash + kFlashOff * fstride + k * W;
    const double* nse = v.flash + kFlashNoise * fstride + k * W;
    const double* met = v.flash + kFlashMeta * fstride + k * W;
    const double frac = v.flash_frac[k];
    for (std::size_t l = 0; l < W; ++l) {
      flash[l] += static_cast<int>(decide(x[l], frac * vref[l], off[l], nse[l], met[l], df[l]));
    }
  }

  // Reference droop: the charge the DSBs drew this sample, then the
  // buffer's recharge towards zero before the next one.
  if (v.consume_on) {
    for (std::size_t l = 0; l < W; ++l) {
      droop[l] += activity[l] * v.charge_per_event / v.decap;
    }
    if (v.recharge_on) {
      for (std::size_t l = 0; l < W; ++l) droop[l] *= v.recharge_factor[l];
    } else {
      for (std::size_t l = 0; l < W; ++l) droop[l] = 0.0;
    }
  }
}

}  // namespace adc::pipeline::fast_chain
