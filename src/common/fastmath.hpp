/// \file fastmath.hpp
/// SIMD-friendly polynomial transcendental kernels and the fidelity-profile
/// math dispatch.
///
/// The per-sample conversion kernel is libm-bound under the `exact` profile:
/// settling `exp`, softplus `log1p(exp)`, junction `pow`, stimulus
/// `sin`/`cos` are called for every sample with genuinely changing
/// arguments. The `fast` profile routes those calls through the kernels
/// below — straight-line Horner polynomials with no tables, no errno, no
/// data-dependent branches on the value path — so the surrounding loops stay
/// vectorizable and the call overhead of libm disappears.
///
/// Accuracy contract (verified against libm by `tests/test_fast_rng.cpp`,
/// randomized over each kernel's stated domain):
///
///   | kernel         | domain                      | max observed error |
///   | -------------- | --------------------------- | ------------------ |
///   | `exp_fast`     | [-708, 709]                 | ~2 ulp             |
///   | `log_fast`     | normal positive doubles     | ~2 ulp             |
///   | `log1p_fast`   | x > -1 (normal 1+x)         | ~2 ulp             |
///   | `sqrt_fast`    | +0 and positive normals     | ~1 ulp             |
///   | `pow_fast`     | x > 0, |y·log x| ≤ 700      | ~1e-14 relative    |
///   | `sincos_fast`  | |x| ≤ ~1e6 rad              | ~2 ulp             |
///
/// "2 ulp-class" is the design target, not a proof: the polynomials are
/// truncated Taylor / near-minimax expansions whose truncation error is
/// below 1 ulp on the reduced range, plus rounding of the Horner
/// evaluation. This is legal *only* under the `fast` profile, which owns
/// its golden vectors; `exact` dispatch compiles to the libm calls the
/// bit-identity contract pins.
///
/// Fast contract v2 (see common/fidelity.hpp): every kernel on the
/// noise-draw path is division- and sqrt-instruction-free. `log_fast`
/// evaluates a minimax polynomial directly in t = m - 1 (no `(m-1)/(m+1)`
/// quotient), and `sqrt_fast` is an integer-seeded Newton–Raphson rsqrt
/// refinement — multiplies and FMA-less adds only, so the batch engine's
/// SoA loops never touch the divider port.
///
/// Domain edges: `exp_fast` flushes to 0 below -708 (no subnormal outputs)
/// and returns +inf above 709; `log_fast` expects a positive *normal*
/// argument (debug contracts trip otherwise). The simulator's physics never
/// leaves these domains.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/always_inline.hpp"
#include "common/contracts.hpp"
#include "common/fidelity.hpp"

namespace adc::common::fastmath {

inline constexpr double kTwoPi = 6.28318530717958647693;

/// Round-to-nearest-even for |x| < 2^51 without the libm `nearbyint` call
/// (plain -O3 targets baseline x86-64, where `std::nearbyint` is an opaque
/// PLT call that blocks inlining and vectorization of every caller). Adding
/// 1.5·2^52 forces the significand ulp to 1, so the FPU's default
/// ties-to-even rounding performs the job; subtracting recovers the integer.
inline constexpr double kRoundMagic = 0x1.8p52;

ADC_ALWAYS_INLINE inline double round_even_small(double x) { return (x + kRoundMagic) - kRoundMagic; }

/// e^x via Cody–Waite reduction (x = k·ln2 + r, |r| ≤ ln2/2) and a
/// degree-13 Taylor polynomial; 2^k applied with one exponent-field cast.
/// The polynomial is evaluated as even/odd halves in r² (Estrin): the two
/// degree-6 Horner chains have no data dependence on each other, halving
/// the latency of the serial chain for the scalar per-stage settle call.
ADC_ALWAYS_INLINE inline double exp_fast(double x) {
  if (x > 709.0) return __builtin_inf();
  if (x < -708.0) return 0.0;  // flush-to-zero below the normal range
  constexpr double kInvLn2 = 1.44269504088896340736;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  const double kd = round_even_small(x * kInvLn2);
  const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
  // Taylor coefficients 1/n!; truncation < 1e-17 at |r| = ln2/2.
  const double r2 = r * r;
  double pe = 1.0 / 479001600.0;
  double po = 1.0 / 6227020800.0;
  pe = pe * r2 + 1.0 / 3628800.0;
  po = po * r2 + 1.0 / 39916800.0;
  pe = pe * r2 + 1.0 / 40320.0;
  po = po * r2 + 1.0 / 362880.0;
  pe = pe * r2 + 1.0 / 720.0;
  po = po * r2 + 1.0 / 5040.0;
  pe = pe * r2 + 1.0 / 24.0;
  po = po * r2 + 1.0 / 120.0;
  pe = pe * r2 + 1.0 / 2.0;
  po = po * r2 + 1.0 / 6.0;
  pe = pe * r2 + 1.0;
  po = po * r2 + 1.0;
  const double p = pe + r * po;
  // k is in [-1021, 1023] after the early-outs, so 2^k is a normal double.
  const auto k = static_cast<int>(kd);
  const auto scale = __builtin_bit_cast(double, static_cast<std::uint64_t>(k + 1023) << 52);
  return p * scale;
}

/// ln(1+t) for t in [sqrt(1/2)-1, sqrt(2)-1], the residual left after
/// log_fast's mantissa normalization. Division-free: instead of the classic
/// artanh form (whose s = (m-1)/(m+1) quotient put one vdivpd per lane-block
/// into the noise fill), this evaluates ln(1+t) = t + t²·Q(t) with Q a
/// degree-21 near-minimax polynomial (Chebyshev fit of (ln(1+t) - t)/t²
/// over the exact reduction interval; fit residual 1.7e-18, well under the
/// ~3.3e-17 truncation budget of the old series). Q's low-order
/// coefficients converge to the Mercator series (-1/2, 1/3, -1/4, ...);
/// the high-order ones absorb the equioscillating remainder. Evaluated as
/// even/odd Horner halves in t² (Estrin) so the two chains overlap — the
/// serial latency matters in the scalar fast path, and the split costs
/// nothing in the vectorized tile loop.
ADC_ALWAYS_INLINE inline double log1p_core(double t) {
  const double z = t * t;
  double qe = -0x1.b84eb3675fb3dp-5;
  double qo = 0x1.71fa6946fffa6p-6;
  qe = qe * z - 0x1.a819e6c8ef461p-5;
  qo = qo * z + 0x1.eae53af3a72f8p-5;
  qe = qe * z - 0x1.c18b98ee208c6p-5;
  qo = qo * z + 0x1.9d7de44e09c67p-5;
  qe = qe * z - 0x1.005c6a487093cp-4;
  qo = qo * z + 0x1.e3563f3dbe6fcp-5;
  qe = qe * z - 0x1.248bcf9445c16p-4;
  qo = qo * z + 0x1.110a2d0520b86p-4;
  qe = qe * z - 0x1.55559a56f4d74p-4;
  qo = qo * z + 0x1.3b13b0170b913p-4;
  qe = qe * z - 0x1.999997e043d16p-4;
  qo = qo * z + 0x1.745d19c12a3e2p-4;
  qe = qe * z - 0x1.000000032a3bfp-3;
  qo = qo * z + 0x1.c71c71b0e4c8cp-4;
  qe = qe * z - 0x1.555555554f613p-3;
  qo = qo * z + 0x1.24924924bb7f3p-3;
  qe = qe * z - 0x1.0000000000023p-2;
  qo = qo * z + 0x1.99999999995b4p-3;
  qe = qe * z - 0x1.0000000000000p-1;
  qo = qo * z + 0x1.5555555555556p-2;
  const double q = qe + t * qo;
  return t + z * q;
}

/// ln(x) for positive normal x: exponent split via the bit pattern, mantissa
/// normalized into [sqrt(1/2), sqrt(2)), then the division-free ln(1+t)
/// polynomial on t = m - 1 (exact by Sterbenz: m is within [1/2, 2] of 1).
ADC_ALWAYS_INLINE inline double log_fast(double x) {
  ADC_EXPECT(x >= 0x1p-1022, "log_fast: argument must be a positive normal double");
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  const auto bits = __builtin_bit_cast(std::uint64_t, x);
  double m = __builtin_bit_cast(double, (bits & 0x000fffffffffffffull) | 0x3fe0000000000000ull);
  // Branchless normalization: when m < sqrt(1/2), double m (m + m is exact)
  // and debit the exponent term. The condition is materialized as 0.0/1.0 by
  // extracting the sign bit of m - sqrt(1/2) — plain arithmetic, because the
  // baseline-SSE2 vectorizer refuses compare-selects with variable arms, and
  // a branch or select here would keep every caller scalar. m == sqrt(1/2)
  // gives +0 (sign 0), matching the strict `<`; small-integer double
  // arithmetic is exact, so `ed` is bit-identical to the integer original.
  const double low_half = static_cast<double>(static_cast<std::int32_t>(
      __builtin_bit_cast(std::uint64_t, m - 0.70710678118654752440) >> 63));
  m += low_half * m;
  const double e_biased = static_cast<double>(
      static_cast<std::int32_t>((bits >> 52) & 0x7ffu));
  const double ed = e_biased - 1022.0 - low_half;
  const double logm = log1p_core(m - 1.0);
  return ed * kLn2Hi + (logm + ed * kLn2Lo);
}

/// ln(1+x). Small |x| feeds the ln(1+t) polynomial directly (no
/// cancellation, no renormalization); larger x falls through to
/// log_fast(1+x). The direct window sits strictly inside the polynomial's
/// fitted interval [sqrt(1/2)-1, sqrt(2)-1].
ADC_ALWAYS_INLINE inline double log1p_fast(double x) {
  if (x > -0.25 && x < 0.4) {
    return log1p_core(x);
  }
  return log_fast(1.0 + x);
}

/// sqrt(x) for +0 and positive normal x, with no divide or sqrt
/// instruction: integer-shift rsqrt seed (the 0x5FE6EB50C7B537A9 magic,
/// ~6 good bits), three Newton–Raphson refinements of y ≈ 1/sqrt(x)
/// (y ← y·(3/2 − x/2·y²); quadratic: 6 → 12 → 25 → 50 bits), then one
/// Heron-style correction on the product s = x·y to polish the last bits:
/// s + y/2·(x − s²). Worst observed error 1 ulp over the draw-pipeline
/// domain and random positive normals (tests/test_fast_rng.cpp).
///
/// The seed is deliberately *software* integer arithmetic, not a hardware
/// rsqrt approximation (`vrsqrt14pd` etc.): hardware seeds are
/// vendor-specific, and the fast contract's positional determinism must
/// hold across every machine that shares a scenario cache or fleet merge.
/// Association matters: `(h·y)·y` keeps intermediates normal even at
/// DBL_MAX, where `h·(y·y)` would round through a subnormal.
ADC_ALWAYS_INLINE inline double sqrt_fast(double x) {
  ADC_EXPECT((x >= 0.0 && x <= 0.0) || x >= 0x1p-1022,  // x == 0 without -Wfloat-equal
             "sqrt_fast: argument must be +0 or a positive normal double");
  const double h = 0.5 * x;
  const std::uint64_t seed = 0x5FE6EB50C7B537A9ull - (__builtin_bit_cast(std::uint64_t, x) >> 1);
  double y = __builtin_bit_cast(double, seed);
  y = y * (1.5 - h * y * y);
  y = y * (1.5 - h * y * y);
  y = y * (1.5 - h * y * y);
  const double s = x * y;
  return s + 0.5 * y * (x - s * s);
}

/// x^y for x > 0 as exp(y·ln x). The relative error grows with |y·ln x|
/// (~1e-14 at |y·ln x| ≈ 10); the simulator's junction exponents keep it
/// far below that.
ADC_ALWAYS_INLINE inline double pow_fast(double x, double y) { return exp_fast(y * log_fast(x)); }

/// sin and cos together: one π/2 Cody–Waite quadrant reduction (three-part
/// constant, good to |x| ~ 1e6 rad) feeding degree-15/16 Taylor kernels on
/// [-π/4, π/4], then the quadrant swap.
ADC_ALWAYS_INLINE inline void sincos_fast(double x, double& sin_out, double& cos_out) {
  constexpr double kTwoOverPi = 0.63661977236758134308;
  constexpr double kPio2Hi = 1.57079632673412561417e+00;
  constexpr double kPio2Mid = 6.07710050650619224932e-11;
  constexpr double kPio2Lo = 2.02226624871116645580e-21;
  // Magic-number rounding doubles as the quadrant extractor: the biased sum
  // holds 2^51 + n in its significand, and 2^51 ≡ 0 (mod 4), so the two low
  // mantissa bits are n mod 4 even for negative n.
  const double biased = x * kTwoOverPi + kRoundMagic;
  const auto quadrant = __builtin_bit_cast(std::uint64_t, biased);
  const double nd = biased - kRoundMagic;
  double r = x - nd * kPio2Hi;
  r -= nd * kPio2Mid;
  r -= nd * kPio2Lo;
  const double r2 = r * r;

  double sp = -1.0 / 1307674368000.0;
  sp = sp * r2 + 1.0 / 6227020800.0;
  sp = sp * r2 - 1.0 / 39916800.0;
  sp = sp * r2 + 1.0 / 362880.0;
  sp = sp * r2 - 1.0 / 5040.0;
  sp = sp * r2 + 1.0 / 120.0;
  sp = sp * r2 - 1.0 / 6.0;
  const double sr = r + r * r2 * sp;

  double cp = 1.0 / 20922789888000.0;
  cp = cp * r2 - 1.0 / 87178291200.0;
  cp = cp * r2 + 1.0 / 479001600.0;
  cp = cp * r2 - 1.0 / 3628800.0;
  cp = cp * r2 + 1.0 / 40320.0;
  cp = cp * r2 - 1.0 / 720.0;
  cp = cp * r2 + 1.0 / 24.0;
  cp = cp * r2 - 1.0 / 2.0;
  const double cr = 1.0 + r2 * cp;

  // Branchless quadrant swap/negate in the bit domain (masks and sign-bit
  // XORs, so the whole function vectorizes): sin picks the cos kernel in odd
  // quadrants and flips sign in quadrants 2 and 3; cos flips in 1 and 2.
  const auto sr_bits = __builtin_bit_cast(std::uint64_t, sr);
  const auto cr_bits = __builtin_bit_cast(std::uint64_t, cr);
  const std::uint64_t swap_mask = 0u - (quadrant & 1u);
  const std::uint64_t smag = (sr_bits & ~swap_mask) | (cr_bits & swap_mask);
  const std::uint64_t cmag = (cr_bits & ~swap_mask) | (sr_bits & swap_mask);
  sin_out = __builtin_bit_cast(double, smag ^ ((quadrant & 2u) << 62));
  cos_out = __builtin_bit_cast(double, cmag ^ (((quadrant + 1u) & 2u) << 62));
}

/// A Chebyshev series as plain data (adc::common::Chebyshev::view()): the
/// argument maps to y = (x - mid)·inv_half on [-1, 1].
struct ChebyshevView {
  const double* coef = nullptr;  ///< [count] coefficients, count >= 1
  std::size_t count = 0;
  double mid = 0.0;
  double inv_half = 1.0;
};

/// The series at the W points `x` by the Clenshaw recurrence, the
/// coefficient loop outermost so each step is a flat lane loop.
template <std::size_t W>
ADC_ALWAYS_INLINE inline void clenshaw(const ChebyshevView& c, const double* x, double* out) {
  double y[W];
  double two_y[W];
  double b1[W];
  double b2[W];
  for (std::size_t l = 0; l < W; ++l) {
    y[l] = (x[l] - c.mid) * c.inv_half;
    two_y[l] = 2.0 * y[l];
    b1[l] = 0.0;
    b2[l] = 0.0;
  }
  for (std::size_t k = c.count; k-- > 1;) {
    const double ck = c.coef[k];
    for (std::size_t l = 0; l < W; ++l) {
      const double b0 = two_y[l] * b1[l] - b2[l] + ck;
      b2[l] = b1[l];
      b1[l] = b0;
    }
  }
  const double c0 = c.coef[0];
  for (std::size_t l = 0; l < W; ++l) out[l] = y[l] * b1[l] - b2[l] + c0;
}

}  // namespace adc::common::fastmath

namespace adc::common::math {

/// Profile-dispatched transcendentals. Per-sample hot-path code calls these
/// instead of <cmath> directly (enforced by the `profile-math` rule of
/// tools/lint_physics): `kExact` compiles to the libm call the bit-identity
/// contract pins, `kFast` to the polynomial kernel above. Models branch on
/// their stored profile once and instantiate the whole kernel per profile,
/// so the dispatch costs nothing inside the loop.

template <FidelityProfile P>
inline double exp_p(double x) {
  if constexpr (P == FidelityProfile::kFast) {
    return fastmath::exp_fast(x);
  } else {
    return std::exp(x);
  }
}

template <FidelityProfile P>
inline double log1p_p(double x) {
  if constexpr (P == FidelityProfile::kFast) {
    return fastmath::log1p_fast(x);
  } else {
    return std::log1p(x);
  }
}

template <FidelityProfile P>
inline double pow_p(double x, double y) {
  if constexpr (P == FidelityProfile::kFast) {
    return fastmath::pow_fast(x, y);
  } else {
    return std::pow(x, y);
  }
}

}  // namespace adc::common::math
